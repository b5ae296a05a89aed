"""README's library example and CLI commands run as written."""

import re
import shlex
from pathlib import Path

import gnss_qsvm
from gnss_qsvm import cli

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


def _cli_commands():
    """Each ``gnss-qsvm`` line of README's sh blocks, continuations joined,
    as an argument list."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["gnss-qsvm"]:
                commands.append(argv[1:])
    return commands


def test_cli_commands_run(tmp_path, monkeypatch):
    commands = _cli_commands()
    # train -> predict -> eval -> boundary runs on the saved model.json.
    assert {"synth", "experiment", "train", "predict", "eval", "boundary"} <= {
        argv[0] for argv in commands}
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    for argv in commands:
        assert cli.main(argv) == 0, shlex.join(["gnss-qsvm", *argv])
