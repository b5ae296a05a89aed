"""The oracles judge the package, so they must not run any of its code."""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


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
