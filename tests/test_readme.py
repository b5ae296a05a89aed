"""README's library example runs against the package namespace as written."""

import re
from pathlib import Path

import gnss_qsvm

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    blocks = _python_blocks()
    assert blocks, "README has no python example"
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    accuracies = [float(line) for line in capsys.readouterr().out.split()]
    assert accuracies and all(0.0 <= a <= 1.0 for a in accuracies)


def test_example_uses_only_the_public_namespace():
    used = set(re.findall(r"\bgq\.(\w+)", "".join(_python_blocks())))
    assert used and used <= set(gnss_qsvm.__all__), used - set(gnss_qsvm.__all__)
