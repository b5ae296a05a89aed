# Ensures this directory (and the oracles module) is importable from tests.
import os
from pathlib import Path

# pyproject's `pythonpath` puts src/ on this process's path; subprocesses
# (`python -m gnss_qsvm.cli`) need it in the environment as well.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
