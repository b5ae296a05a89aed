"""Run the benchmark over several seeds and print every metric by name
with its unit, per workload.

    python3 perfbench/sweep.py --seeds 0-9                  # all workloads
    python3 perfbench/sweep.py --workload rbf_pool --seeds 0 1 2 --trace 1
    python3 perfbench/sweep.py --seeds 0-9 --out perfbench/BASELINE.json

For each metric it prints the median, the quartiles (``statistics.quantiles``
with n=4) and their distance as a share of the median; for end-to-end
metrics it marks a spread above a third of the bound in ``BENCHMARK.json``
as unsteady. Runs go one at a time, cycling through the workloads for each
seed, so slow drift of the machine spreads over all of them.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 300


def parse_seeds(tokens) -> list[int]:
    seeds = []
    for tok in tokens:
        lo, _, hi = tok.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


def run_once(workload, seed, seconds, trace) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    env = next(json.loads(line)["env"] for line in lines if line.startswith('{"env"'))
    return env, json.loads(lines[-1])


def summarize(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values),
            "values": list(values)}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", nargs="+", default=["0-9"],
                        help="seeds or inclusive ranges such as 0-9")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the summary as JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = {w: [] for w in args.workload}
    env = None
    for seed in parse_seeds(args.seeds):
        for w in args.workload:
            env, result = run_once(w, seed, args.seconds, args.trace)
            results[w].append(result)
            print(f"  {w} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)

    summary = {"env": {k: env[k] for k in ("python", "numpy", "nproc", "cpu", "blas_threads")},
               "seeds": parse_seeds(args.seeds), "seconds": args.seconds,
               "trace": args.trace, "workloads": {}}
    steady = True
    for w, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{w}: runs={len(runs)} ops={attempted} fail_ratio={failed / attempted:g}")
        entry = {"runs": len(runs), "attempted": attempted, "failed": failed,
                 "fail_ratio": failed / attempted, "metrics": {}}
        for name, first in runs[0]["metrics"].items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = first["unit"]
            flag = ""
            if name in bounds and name != "setup_s" and stats["spread"] > bounds[name] / 3:
                flag, steady = "  UNSTEADY (bound/3 = %.3g)" % (bounds[name] / 3), False
            print(f"  {name:28s} {stats['median']:14.6g} {stats['unit']:6s} "
                  f"q1={stats['q1']:.6g} q3={stats['q3']:.6g} "
                  f"spread={stats['spread']:.2%}{flag}")
            entry["metrics"][name] = stats
        summary["workloads"][w] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
