"""Benchmark of the gnss-qsvm pipeline.

    python3 perfbench/run.py --workload exact_grid --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (see ``workloads.py``): ``exact_grid``, ``sampled_phase1``,
``rbf_pool``, ``exact_epochs``.

With ``--trace 0`` the run reports the end-to-end metrics, measured with
tracing off. A shared host runs this program, over stretches of seconds,
either fast or about 1.8 times slower, and the share of slow stretches
changes from run to run, so a run's median wall time moves by a third
between runs. Latency is therefore reported in units of a reference loop:
before each operation the run times a fixed loop of small numpy calls, the
kind of work the program does, and ``latency_p50_ref`` is the median over
operations of operation time divided by the loop's time just before it.
Operations are far shorter than a stretch, so both see the same state. The
wall-time median and 90th percentile are printed on the summary line.
Set-up is repeated at even intervals through the run, so its median spans
both states.

With ``--trace 1`` untraced and traced operations alternate;
the run reports per-layer metrics (medians over the traced operations) and
``trace.overhead_s``, the median traced minus the median untraced operation.
Spans are written to ``.perfbench_work/traces/`` at the end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
records the environment.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("exact_grid", "sampled_phase1", "rbf_pool", "exact_epochs")
SETUP_REPEATS = 10
REF_LOOP_STEPS = 1000  # about 1.5 ms on a 2-vCPU Xeon VM
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> int:
    """One BLAS thread unless asked for more, capped at nproc; must run
    before numpy is imported. The matrices are small, and a second thread
    waits on a CPU that other tenants share."""
    n = nproc()
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, 1))
        except ValueError:
            wanted = 1
        os.environ[var] = str(max(1, min(wanted, n)))
    return int(os.environ[BLAS_THREAD_VARS[0]])


def import_program() -> None:
    """Import every module of gnss_qsvm afresh from ``src/``. Dependencies
    already imported stay imported."""
    package = SRC / "gnss_qsvm"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n.split(".")[0] == "gnss_qsvm"]:
        del sys.modules[name]
    cli = importlib.import_module("gnss_qsvm.cli")
    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported gnss_qsvm from {cli.__file__}, not {package}")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method); the median for q=50."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def reference_loop() -> float:
    """Seconds that a fixed loop of small numpy calls takes now."""
    import numpy as np

    v = np.arange(4.0)
    t = time.perf_counter()
    for _ in range(REF_LOOP_STEPS):
        v = np.sqrt(v * v + 1.0)
    return time.perf_counter() - t


def measure(wl, seconds: float, tracer=None, set_up=None) -> dict:
    """Run operations until ``seconds`` have passed and at least
    ``wl.min_ops`` were attempted. With a tracer, every second operation
    is traced. Each untraced operation's time is paired with the reference
    loop's time just before it. ``set_up``, if given, is timed between
    operations at ``SETUP_REPEATS - 1`` even intervals of the run."""
    plain, ref, traced, per_op, setup_s = [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline or attempted < wl.min_ops:
        if set_up is not None and len(setup_s) < SETUP_REPEATS - 1 and (
                time.perf_counter() - start >= len(setup_s) * seconds / (SETUP_REPEATS - 1)):
            setup_s.append(set_up())
        trace_this = tracer is not None and attempted % 2 == 1
        ref_s = reference_loop()
        if trace_this:
            tracer.install()
            first = tracer.begin_op()
        attempted += 1
        t = time.perf_counter()
        try:
            result = wl.op()
        except Exception:  # a failed operation is counted, not fatal
            failed += 1
            if failed == 1:
                traceback.print_exc()
            continue
        finally:
            if trace_this:
                tracer.uninstall()
        elapsed = time.perf_counter() - t
        problems = wl.check(result)
        if problems:
            failed += 1
            print(f"check failed: {'; '.join(problems)}", file=sys.stderr)
            continue
        if trace_this:
            traced.append(elapsed)
            per_op.append(tracer.op_metrics(first))
        else:
            plain.append(elapsed)
            ref.append(ref_s)
    finish = getattr(wl, "finish", None)
    if finish is not None:
        failed += finish()
    return {"attempted": attempted, "failed": failed, "plain": plain, "ref": ref,
            "traced": traced, "per_op": per_op, "setup_s": setup_s}


def end_to_end_metrics(run: dict) -> dict:
    ratios = [t / r for t, r in zip(run["plain"], run["ref"])]
    return {
        "latency_p50_ref": (statistics.median(ratios), "refloop"),
        "setup_s": (statistics.median(run["setup_s"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(run: dict) -> dict:
    units = {"_s": "s", "_ratio": "ratio"}
    out = {}
    for key in run["per_op"][0]:
        unit = next((u for suffix, u in units.items() if key.endswith(suffix)), "count")
        out[key] = (statistics.median(op[key] for op in run["per_op"]), unit)
    out["trace.op_s"] = (statistics.median(run["traced"]), "s")
    out["trace.overhead_s"] = (statistics.median(run["traced"])
                               - statistics.median(run["plain"]), "s")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = cap_blas_threads()
    import numpy as np

    import_program()
    import workloads  # binds the modules of this import

    s = workloads.input_set(args.seed)
    reference = workloads.load_reference(HERE / "reference.json", args.workload, s)
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "nproc": nproc(), "cpu": cpu_model(), "blas_threads": blas_threads,
           "workload": args.workload, "seed": args.seed, "input_set": s,
           "trace": args.trace}

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    setup_dirs = iter(run_dir / f"setup{k}" for k in range(SETUP_REPEATS))

    def set_up():
        """Import the package afresh and prepare the workload; returns the
        seconds it took and the workload. numpy's one-time import is left
        out: it is set by the state of the file cache, not by this program.
        Operations keep using the modules that ``workloads`` bound."""
        t = time.perf_counter()
        import_program()
        wl = workloads.WORKLOADS[args.workload](s, reference)
        wl.prepare(next(setup_dirs))
        return time.perf_counter() - t, wl

    tracer = None
    try:
        if args.trace:
            import spans

            # The tracer wraps the modules in sys.modules, so they must stay
            # the ones the workload calls: no fresh import here.
            tracer = spans.Tracer()
            wl = workloads.WORKLOADS[args.workload](s, reference)
            wl.prepare(next(setup_dirs))
            wl.warm_up()
            run = measure(wl, args.seconds, tracer)
        else:
            first_s, wl = set_up()
            wl.warm_up()
            run = measure(wl, args.seconds, set_up=lambda: set_up()[0])
            run["setup_s"].insert(0, first_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not run["plain"] or (args.trace and not run["traced"]):
        raise SystemExit(f"error: no operation of {args.workload} succeeded")

    if args.trace:
        metrics = per_layer_metrics(run)
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        stem = trace_dir / f"{args.workload}-seed{args.seed}"
        tracer.save(f"{stem}.npz")
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump({"env": env, "per_op": run["per_op"], "traced_s": run["traced"],
                       "untraced_s": run["plain"]}, fh, indent=1)
    else:
        metrics = end_to_end_metrics(run)

    attempted, failed = run["attempted"], run["failed"]
    ms = [1000.0 * t for t in run["plain"]]
    print(json.dumps({"env": env}))
    print(f"{args.workload} seed={args.seed} ops={attempted} "
          f"untraced={len(run['plain'])} traced={len(run['traced'])} "
          f"fail_ratio={failed / attempted:g} latency_p50={percentile(ms, 50):.6g}ms "
          f"latency_p90={percentile(ms, 90):.6g}ms "
          + " ".join(f"{k}={v:.6g}{u}" for k, (v, u) in metrics.items()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
