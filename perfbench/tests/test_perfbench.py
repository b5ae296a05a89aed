"""Tests of the benchmark itself; kept out of the package's test suite.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from gnss_qsvm import cli, data, svm  # noqa: E402

GATES_PER_STATE = 14  # two repetitions of H, H, P, P and one CX-P-CX block


def _tiny_inputs(tmp_path):
    # 14 T0 rows spread over its class blocks; alternate rows go to train
    # and test, so both hold all three classes.
    t0 = data.generate_synthetic("T0_SHAPE", 3)
    rows = [t0.samples[i] for i in np.linspace(0, len(t0) - 1, 14).astype(int)]
    train, test = data.Dataset(samples=rows[0::2]), data.Dataset(samples=rows[1::2])
    paths = tmp_path / "train.csv", tmp_path / "test.csv"
    data.write_csv(train, paths[0])
    data.write_csv(test, paths[1])
    return [str(paths[0])], str(paths[1]), len(train), len(test)


def _traced(cfg):
    tracer = spans.Tracer()
    tracer.install()
    try:
        first = tracer.begin_op()
        _, artifacts = cli.run_experiment(cfg)
    finally:
        tracer.uninstall()
    return tracer.op_metrics(first), artifacts


def _support_vectors(model_path):
    model, _ = svm.load_model(model_path)
    per_model = sum(int(np.count_nonzero(bm.alpha > 0)) for bm in model.binary_models)
    union = set()
    for bm in model.binary_models:
        union.update(bm.training_indices[bm.alpha > 0].tolist())
    return per_model, len(union)


@pytest.mark.parametrize("kernel", ["exact", "sampled"])
def test_traced_counts_match_closed_forms(tmp_path, kernel):
    train, test, n, m = _tiny_inputs(tmp_path)
    res, shots = 3, 50
    cfg = cli.ExperimentConfig(train_sources=train, test_source=test, kernel=kernel,
                               shots=shots, grid_resolution=res, outdir=str(tmp_path / "out"))
    got, artifacts = _traced(cfg)
    g = res * res
    entries = n * (n - 1) // 2 + m * n + g * n
    per_model, union = _support_vectors(artifacts["model"])

    assert got["evaluate.grid_cells"] == g
    assert got["data.rows_loaded"] == n + m
    assert got["kernels.gram_entries"] == entries
    assert got["svm.support_vectors"] == per_model
    assert got["kernels.sv_column_ratio"] == pytest.approx(union / n)
    if kernel == "sampled":
        assert got["kernels.sampled_entries"] == entries
        assert got["sim.shots"] == entries * shots
        assert got["feature_map.states"] == 0
    else:
        states = n + (m + n) + (g + n)
        assert got["kernels.sampled_entries"] == 0
        assert got["sim.shots"] == 0
        assert got["feature_map.states"] == states
        assert got["sim.gates"] == states * GATES_PER_STATE
    layer_self = sum(got[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert 0 < got["svm.smo_s"] <= layer_self


def test_rbf_bypasses_feature_map_and_sim(tmp_path):
    train, test, n, m = _tiny_inputs(tmp_path)
    cfg = cli.ExperimentConfig(train_sources=train, test_source=test, model="svm",
                               outdir=str(tmp_path / "out"))
    got, _ = _traced(cfg)
    assert got["feature_map.states"] == 0
    assert got["sim.gates"] == 0
    assert got["feature_map.self_s"] == 0 and got["sim.self_s"] == 0
    assert got["kernels.gram_entries"] == n * (n - 1) // 2 + m * n
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = run.per_layer_metrics({"per_op": [got], "traced": [1.0], "plain": [1.0]})
    assert set(reported) == {m["name"] for m in bench["per_layer"]}


def test_tracer_restores_every_call_site(tmp_path):
    before = (cli.train_ovo, svm.gram_symmetric, data.Dataset.features)
    tracer = spans.Tracer()
    tracer.install()
    assert cli.train_ovo is not before[0] and svm.gram_symmetric is not before[1]
    tracer.uninstall()
    assert (cli.train_ovo, svm.gram_symmetric, data.Dataset.features) == before


def _flip_first_label(monkeypatch, max_rows=None):
    real = svm.predict

    def wrong(model, X):
        labels = real(model, X)
        if max_rows is None or len(labels) <= max_rows:
            labels[0] = next(c for c in model.classes if c != labels[0])
        return labels

    for module in (svm, sys.modules["gnss_qsvm.evaluate"], cli):
        monkeypatch.setattr(module, "predict", wrong)


def _exact_grid(tmp_path):
    ref = workloads.load_reference(BENCH_DIR / "reference.json", "exact_grid", 0)
    wl = workloads.ExactGrid(0, ref)
    wl.prepare(tmp_path / "grid")
    wl.min_ops = 2
    return wl


def test_exact_grid_passes_on_correct_code(tmp_path):
    result = run.measure(_exact_grid(tmp_path), seconds=0)
    assert (result["attempted"], result["failed"]) == (2, 0)


def test_injected_wrong_label_fails_exact_grid(tmp_path, monkeypatch):
    wl = _exact_grid(tmp_path)
    _flip_first_label(monkeypatch)
    result = run.measure(wl, seconds=0)
    assert result["failed"] == result["attempted"] == 2


def test_injected_wrong_label_fails_exact_epochs(tmp_path, monkeypatch):
    ref = workloads.load_reference(BENCH_DIR / "reference.json", "exact_epochs", 0)
    wl = workloads.ExactEpochs(0, ref)
    wl.prepare(tmp_path / "epochs")
    wl.min_ops = 5
    _flip_first_label(monkeypatch, max_rows=workloads.EPOCH_SIZE)
    result = run.measure(wl, seconds=0)
    assert result["attempted"] == 5
    assert result["failed"] / result["attempted"] == 1.0


def test_reference_covers_every_input_set():
    table = json.loads((BENCH_DIR / "reference.json").read_text())
    assert table["input_sets"] == workloads.N_INPUT_SETS
    for name in workloads.WORKLOADS:
        assert sorted(map(int, table[name])) == list(range(workloads.N_INPUT_SETS)), name


def test_benchmark_json_matches_what_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in bench["end_to_end"] if m["name"] == "setup_s").items()
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    fake = {"plain": [0.1, 0.2], "ref": [0.01, 0.01], "traced": [0.3], "per_op": [{}],
            "setup_s": [1.0]}
    assert set(run.end_to_end_metrics(fake)) == {m["name"] for m in bench["end_to_end"]}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rbf_pool", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
