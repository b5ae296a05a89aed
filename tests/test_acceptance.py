"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figures once its assertions hold (run with ``pytest -s`` to see
them). Golden accuracies were pinned from the first reference run at seed 0
and are asserted exactly thereafter.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from gnss_qsvm.cli import ExperimentConfig, fit_pipeline, run_experiment
from gnss_qsvm.data import Dataset, apply_scaler, fit_scaler, generate_synthetic
from gnss_qsvm.evaluate import boundary_grid, save_grid_csv
from gnss_qsvm.kernels import (
    FIDELITY_EXACT,
    FIDELITY_SAMPLED,
    KernelConfig,
    gram_rectangular,
    gram_symmetric,
)
from gnss_qsvm.svm import SvmConfig, predict, solve_binary_smo, train_ovo

from oracles import (
    brute_force_dual_max,
    compute_uncompute_fidelity,
    dual_value,
    overlap_fidelity,
    pair_seed,
    shot_estimate,
)

SEED = 0

GOLDEN_ACCURACY = {
    ("qsvm", 1): 0.8780487804878049,
    ("qsvm", 2): 0.85,
    ("svm", 1): 0.8536585365853658,
    ("svm", 2): 0.8833333333333333,
}
GOLDEN_RAW_ACCURACY = {1: 0.5609756097560976, 2: 0.6666666666666666}

PHASES = {1: (["T0_SHAPE"], "T1_SHAPE"), 2: (["T0_SHAPE", "T1_SHAPE"], "T2_SHAPE")}
VERDICT_SEEDS = range(10)
# phase -> (test points right only with QSVM, right only with RBF, exact
# two-sided McNemar p), pooled over VERDICT_SEEDS.
GOLDEN_VERDICT = {
    1: (11, 20, 0.14961278438568115),
    2: (19, 62, 1.7730682926908968e-06),
}
# Upper end hi of the [0, hi] scaling range -> phase-1 test points exact QSVM
# classifies right, pooled over VERDICT_SEEDS (410 points).
GOLDEN_SCALING_RIGHT = {0.25: 358, 0.5: 362, 1.0: 360, 2.0: 349, math.pi: 278}


def _experiment(train, test, model, raw, outdir, grid_resolution=None):
    config = ExperimentConfig(
        train_sources=list(train),
        test_source=test,
        model=model,
        kernel="exact",
        seed=SEED,
        raw=raw,
        grid_resolution=grid_resolution,
        outdir=str(outdir),
    )
    return run_experiment(config)


def test_criterion_1_compute_uncompute_oracle_equivalence():
    rng = np.random.default_rng(100)
    pairs = [(rng.uniform(0, 1, size=2), rng.uniform(0, 1, size=2)) for _ in range(100)]
    cfg = KernelConfig(mode=FIDELITY_EXACT)
    # The bound times the kernel alone; the oracles run after it.
    start = time.perf_counter()
    via_kernel = [gram_rectangular([x], [y], cfg).values[0, 0] for x, y in pairs]
    elapsed = time.perf_counter() - start
    worst = 0.0
    for value, (x, y) in zip(via_kernel, pairs):
        diff = max(abs(value - compute_uncompute_fidelity(x, y)),
                   abs(value - overlap_fidelity(x, y)))
        worst = max(worst, diff)
        assert diff <= 1e-10
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: kernel vs compute-uncompute and inner-product oracles, "
          f"max |diff| {worst:.2e} over 100 pairs in {elapsed:.2f}s")


def test_criterion_2_kernel_validity():
    dataset = generate_synthetic("T0_SHAPE", seed=5)
    X = apply_scaler(fit_scaler(dataset), dataset)[:40]
    gram = gram_symmetric(X, KernelConfig(mode=FIDELITY_EXACT))
    assert gram.values.shape == (40, 40)
    assert np.array_equal(gram.values, gram.values.T)
    assert np.all(gram.values.diagonal() == 1.0)
    assert gram.values.min() >= 0.0
    assert gram.values.max() <= 1.0
    min_eig = float(np.linalg.eigvalsh(gram.values).min())
    assert min_eig >= -1e-8
    print(f"\nACCEPTANCE 2 PASS: 40x40 Gram symmetric, unit diagonal, "
          f"entries in [0,1], min eigenvalue {min_eig:.2e}")


def test_criterion_3_shot_estimator_at_1000_shots():
    rng = np.random.default_rng(314)
    start = time.perf_counter()
    deviations = []
    for seed in range(50):
        x = rng.uniform(0, 1, size=2)
        y = rng.uniform(0, 1, size=2)
        exact = overlap_fidelity(x, y)
        cfg = KernelConfig(mode=FIDELITY_SAMPLED, shots=1000, seed=seed)
        sampled = gram_rectangular([x], [y], cfg).values[0, 0]
        assert sampled == shot_estimate(pair_seed(seed, 0, 0), 1000, exact)
        deviations.append(abs(sampled - exact))
    elapsed = time.perf_counter() - start
    mean_dev = float(np.mean(deviations))
    max_dev = float(np.max(deviations))
    assert mean_dev <= 0.02
    assert max_dev <= 0.06
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 3 PASS: 1000-shot estimator over 50 pairs, "
          f"mean |dev| {mean_dev:.4f} <= 0.02, max {max_dev:.4f} <= 0.06 "
          f"in {elapsed:.2f}s")


def test_criterion_4_smo_optimality_oracle():
    for C in (0.3, 1.0):
        model = solve_binary_smo(np.eye(2), [1, -1], SvmConfig(C=C))
        assert model.alpha == pytest.approx([C, C], abs=1e-6)
        assert model.bias == pytest.approx(0.0, abs=1e-6)

    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        points = rng.uniform(0, 1, size=(n, 2))
        gamma = float(rng.uniform(0.5, 3.0))
        K = np.exp(-gamma * ((points[:, None, :] - points[None, :, :]) ** 2).sum(-1))
        y = rng.choice([-1.0, 1.0], size=n)
        if np.all(y == y[0]):
            y[0] = -y[0]
        C = float(rng.choice([0.3, 1.0, 10.0]))
        model = solve_binary_smo(K, y, SvmConfig(C=C))
        achieved = dual_value(model.alpha, model.y, K)
        reference = brute_force_dual_max(K, y, C)
        worst_gap = max(worst_gap, abs(achieved - reference))
        assert achieved == pytest.approx(reference, abs=1e-3)
    print(f"\nACCEPTANCE 4 PASS: SMO within 1e-3 of brute-force dual maximum "
          f"on 20 instances (worst |gap| {worst_gap:.2e}); analytic 2-point "
          f"cases exact within 1e-6")


def test_criterion_5_two_phase_synthetic_analog(tmp_path):
    start = time.perf_counter()
    results = {}
    for model_kind in ("qsvm", "svm"):
        report1, _ = _experiment(
            ["T0_SHAPE"], "T1_SHAPE", model_kind, False, tmp_path / f"{model_kind}1"
        )
        report2, _ = _experiment(
            ["T0_SHAPE", "T1_SHAPE"], "T2_SHAPE", model_kind, False,
            tmp_path / f"{model_kind}2",
        )
        results[(model_kind, 1)] = report1.accuracy
        results[(model_kind, 2)] = report2.accuracy
    elapsed = time.perf_counter() - start
    for key, acc in results.items():
        assert acc >= 0.75, key
        assert acc == GOLDEN_ACCURACY[key], key
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 5 PASS: two-phase accuracies "
          f"QSVM {results[('qsvm', 1)]:.4f}/{results[('qsvm', 2)]:.4f}, "
          f"SVM {results[('svm', 1)]:.4f}/{results[('svm', 2)]:.4f}, "
          f"all >= 0.75 and equal to pinned goldens, in {elapsed:.1f}s")


def _mcnemar_p(b: int, c: int) -> float:
    """Exact two-sided McNemar p (Dietterich 1998): twice the smaller
    binomial tail of b + c discordant points at 1/2, capped at 1."""
    n = b + c
    tail = Fraction(sum(math.comb(n, i) for i in range(min(b, c) + 1)), 2 ** n)
    return float(min(1, 2 * tail))


def _right(train, test, model, seed, scale_hi=1.0):
    fitted, scaler = fit_pipeline(ExperimentConfig(train_sources=train, test_source=test,
                                                   model=model, seed=seed, scale_hi=scale_hi))
    data = generate_synthetic(test, seed=seed)
    return np.array(predict(fitted, apply_scaler(scaler, data))) == data.labels()


@pytest.mark.parametrize("phase", list(PHASES))
def test_paired_verdict_qsvm_against_rbf(phase):
    # Exact QSVM and the RBF baseline on the same draws; a point right for
    # both or for neither says nothing about which classifier is better.
    train, test = PHASES[phase]
    qsvm_only = rbf_only = 0
    for seed in VERDICT_SEEDS:
        qsvm, rbf = (_right(train, test, model, seed) for model in ("qsvm", "svm"))
        qsvm_only += int(np.sum(qsvm & ~rbf))
        rbf_only += int(np.sum(rbf & ~qsvm))
    p = _mcnemar_p(qsvm_only, rbf_only)
    assert (qsvm_only, rbf_only, p) == GOLDEN_VERDICT[phase]
    print(f"\nVERDICT phase {phase}: {qsvm_only} right only with QSVM, {rbf_only} only "
          f"with RBF over {len(VERDICT_SEEDS)} draws, exact McNemar p {p:.2g}")


def test_scaling_range_curve_phase_1():
    # The paper's scaling finding as a curve: a wider range narrows the
    # fidelity kernel's bandwidth, and accuracy falls from [0, 1] to [0, pi].
    train, test = PHASES[1]
    right = {hi: sum(int(np.sum(_right(train, test, "qsvm", seed, scale_hi=hi)))
                     for seed in VERDICT_SEEDS)
             for hi in GOLDEN_SCALING_RIGHT}
    assert right == GOLDEN_SCALING_RIGHT
    points = 41 * len(VERDICT_SEEDS)
    print("\nSCALING phase 1, accuracy at [0, hi]: " + ", ".join(
        f"{hi:.3g}: {count / points:.3f}" for hi, count in right.items()))


def test_criterion_6_scaling_effect_analog(tmp_path):
    gaps = {}
    for phase_num, (train, test) in enumerate(
        [(["T0_SHAPE"], "T1_SHAPE"), (["T0_SHAPE", "T1_SHAPE"], "T2_SHAPE")], start=1
    ):
        scaled, _ = _experiment(train, test, "qsvm", False, tmp_path / f"s{phase_num}")
        raw, _ = _experiment(train, test, "qsvm", True, tmp_path / f"r{phase_num}")
        assert scaled.accuracy == GOLDEN_ACCURACY[("qsvm", phase_num)]
        assert raw.accuracy == GOLDEN_RAW_ACCURACY[phase_num]
        gaps[phase_num] = scaled.accuracy - raw.accuracy
        assert gaps[phase_num] >= 0.10
    print(f"\nACCEPTANCE 6 PASS: raw-unit QSVM trails the [0,1]-scaled run by "
          f"{gaps[1]:.3f} (phase 1) and {gaps[2]:.3f} (phase 2), both >= 0.10")


def test_criterion_7_boundary_grid_structure(tmp_path):
    def build_grid_csv(path):
        t0 = generate_synthetic("T0_SHAPE", seed=SEED)
        t1 = generate_synthetic("T1_SHAPE", seed=SEED)
        pool = Dataset(t0.samples + t1.samples)
        scaler = fit_scaler(pool)
        X = apply_scaler(scaler, pool)
        model = train_ovo(
            X, pool.labels(), SvmConfig(), KernelConfig(mode=FIDELITY_EXACT),
            classes=["LOS", "NLOS", "LOS_NLOS"],
        )
        grid = boundary_grid(model, scaler, resolution=100)
        save_grid_csv(grid, path)
        return grid

    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    grid = build_grid_csv(path_a)
    build_grid_csv(path_b)
    labels_seen = set(grid.cells.ravel().tolist())
    assert labels_seen == {"LOS", "NLOS", "LOS_NLOS"}
    assert path_a.read_bytes() == path_b.read_bytes()
    print("\nACCEPTANCE 7 PASS: 100x100 T0+T1 QSVM grid contains all three "
          "labels and is byte-identical across independent rebuilds")


def test_criterion_8_experiment_determinism(tmp_path):
    def run(outdir):
        _, artifacts = _experiment(
            ["T0_SHAPE"], "T1_SHAPE", "qsvm", False, outdir, grid_resolution=25
        )
        return artifacts

    artifacts = run(tmp_path)
    first = {
        "report": artifacts["report"].read_bytes(),
        "grid": artifacts["grid"].read_bytes(),
    }
    artifacts = run(tmp_path)
    assert artifacts["report"].read_bytes() == first["report"]
    assert artifacts["grid"].read_bytes() == first["grid"]
    print("\nACCEPTANCE 8 PASS: repeated experiment invocations produce "
          "byte-identical report JSON and grid CSV")
