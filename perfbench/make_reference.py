"""Compute the reference values that the benchmark's checks compare against.

    python3 perfbench/make_reference.py [--workload NAME ...] [--sets 0 1 ...]

Run it on the code the references should pin (they were produced from the
seed code of the repository); it merges into ``perfbench/reference.json``.
"""

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

PATH = HERE / "reference.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=sorted(workloads.WORKLOADS),
                        default=list(workloads.WORKLOADS))
    parser.add_argument("--sets", nargs="+", type=int,
                        default=list(range(workloads.N_INPUT_SETS)))
    args = parser.parse_args(argv)
    table = json.loads(PATH.read_text()) if PATH.exists() else {}
    table["input_sets"] = workloads.N_INPUT_SETS
    work = HERE.parent / ".perfbench_work" / "reference"
    try:
        for name in args.workload:
            for s in args.sets:
                wl = workloads.WORKLOADS[name](s, reference=None)
                wl.prepare(work / f"{name}-{s}")
                result = wl.op()
                table.setdefault(name, {})[str(s)] = wl.reference_values(result)
                print(name, s, table[name][str(s)], flush=True)
                PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
