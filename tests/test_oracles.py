"""The oracles judge the package, so they must not run any of its code. The
gate-by-gate reference judges the batched engine, so it may take from the
package only the conventions both build states with."""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")
GATESIM = Path(__file__).with_name("gatesim.py")
# module -> the names gatesim may import from it; None allows every name.
GATESIM_ALLOWED = {
    "gnss_qsvm": {"FeatureMapConfig"},
    "gnss_qsvm.feature_map": {"FeatureMapConfig"},
    "gnss_qsvm.sim": {"MAX_QUBITS", "_SQRT1_2"},
    "gnss_qsvm.errors": None,
}


def test_oracles_import_nothing_from_the_package():
    imported = set()
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported, "no imports found; the parse is broken"
    offending = {name for name in imported
                 if name.startswith(".") or name.split(".")[0] == "gnss_qsvm"}
    assert not offending


def test_gatesim_imports_only_shared_conventions_from_the_package():
    imported = set()  # (module, name); name None for a plain ``import``
    for node in ast.walk(ast.parse(GATESIM.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported.update((module, alias.name) for alias in node.names)
    assert imported, "no imports found; the parse is broken"
    offending = set()
    for module, name in imported:
        if module.startswith(".") or module.split(".")[0] == "gnss_qsvm":
            allowed = GATESIM_ALLOWED.get(module, set())
            if allowed is not None and name not in allowed:
                offending.add((module, name))
    assert not offending
