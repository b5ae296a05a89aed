"""Exact-kernel prediction through each binary model's observable W.

A binary model's decision value sum_i c_i |<psi_i|psi(x)>|^2 + b equals
<psi(x)|W|psi(x)> + b with W = sum_i c_i |psi_i><psi_i|. ``predict`` measures
W (or, below 2**n support vectors, the weighted support-vector states); the
reference here is the dual it replaced: the exact kernel row times
alpha * y, one matrix-vector product per binary model.
"""

import functools

import numpy as np
import pytest

from gnss_qsvm import svm
from gnss_qsvm.data import Dataset, apply_scaler, fit_scaler, generate_synthetic
from gnss_qsvm.feature_map import FeatureMapConfig
from gnss_qsvm.kernels import FIDELITY_EXACT, KernelConfig, gram_rectangular
from gnss_qsvm.svm import SvmConfig, _decisions, load_model, predict, save_model, train_ovo

TOL = 1e-12
PRESETS = ("T0_SHAPE", "T1_SHAPE", "T2_SHAPE")


def _dual_decisions(model, X) -> np.ndarray:
    K = gram_rectangular(X, model.training_features, model.kernel_config).values
    return np.column_stack([K[:, bm.training_indices] @ (bm.alpha * bm.y) + bm.bias
                            for bm in model.binary_models])


def _dual_labels(model, X, monkeypatch) -> list:
    """``predict``'s vote on the dual decision values."""
    with monkeypatch.context() as m:
        m.setattr(svm, "_decisions", _dual_decisions)
        return predict(model, X)


def _assert_matches_dual(model, X, monkeypatch):
    assert np.abs(_decisions(model, X) - _dual_decisions(model, X)).max() <= TOL
    assert predict(model, X) == _dual_labels(model, X, monkeypatch)


@functools.lru_cache(maxsize=None)
def _phase_model(train: tuple):
    """An exact model on scaled presets (data seed 0), and its scaler."""
    data = Dataset(samples=[s for p in train for s in generate_synthetic(p, seed=0).samples])
    scaler = fit_scaler(data)
    model = train_ovo(apply_scaler(scaler, data), data.labels(), SvmConfig(),
                      KernelConfig(mode=FIDELITY_EXACT))
    return model, scaler


PHASES = {"T0": ("T0_SHAPE",), "T0+T1": ("T0_SHAPE", "T1_SHAPE")}


def _points(name: str, scaler) -> np.ndarray:
    if name in PRESETS:  # seeds 0-3 of the preset, scaled
        return np.vstack([apply_scaler(scaler, generate_synthetic(name, seed=s))
                          for s in range(4)])
    if name == "outside":  # every point has a coordinate outside [0, 1]
        rng = np.random.default_rng(11)
        X = rng.uniform(-1.0, 2.0, size=(600, 2))
        return X[((X < 0) | (X > 1)).any(axis=1)]
    centers = np.linspace(-0.2, 1.2, 200)  # a 200 x 200 grid
    return np.array([(x, y) for y in centers for x in centers])


@pytest.mark.parametrize("points", [*PRESETS, "outside", "grid 200"])
@pytest.mark.parametrize("phase", list(PHASES))
def test_decisions_and_labels_match_the_dual(phase, points, monkeypatch):
    model, scaler = _phase_model(PHASES[phase])
    assert len(model.observables.w_models) == len(model.binary_models)  # n = 2: all W
    _assert_matches_dual(model, _points(points, scaler), monkeypatch)


def test_save_load_predict_is_byte_identical(tmp_path):
    model, scaler = _phase_model(PHASES["T0+T1"])
    X = np.vstack([_points("T2_SHAPE", scaler), _points("outside", scaler)])
    save_model(model, tmp_path / "model.json", scaler)
    loaded, _ = load_model(tmp_path / "model.json")
    assert loaded.observables.w_cat.tobytes() == model.observables.w_cat.tobytes()
    assert _decisions(loaded, X).tobytes() == _decisions(model, X).tobytes()
    assert predict(loaded, X) == predict(model, X)


def test_each_observable_is_hermitian_with_zero_trace():
    # Tr W = sum_i c_i <psi_i|psi_i> = sum_i alpha_i y_i, zero at any
    # feasible point of the dual.
    model, _ = _phase_model(PHASES["T0+T1"])
    dim = 1 << model.kernel_config.feature_map.num_features
    for k in range(len(model.binary_models)):
        W = model.observables.w_cat[:, k * dim:(k + 1) * dim]
        assert np.array_equal(W, W.conj().T)
        assert abs(np.trace(W)) <= 1e-9


def _random_model(num_features: int, X, labels):
    return train_ovo(X, labels, SvmConfig(),
                     KernelConfig(mode=FIDELITY_EXACT, feature_map=FeatureMapConfig(num_features)))


@pytest.mark.parametrize("num_features", [5, 6])
def test_support_vector_states_below_2n_support_vectors(num_features, monkeypatch):
    # 14 training points: every binary model has fewer than 2**n support
    # vectors, so none keeps a 2**n x 2**n W.
    rng = np.random.default_rng(num_features)
    model = _random_model(num_features, rng.uniform(0, 1, (14, num_features)),
                          ["ABC"[i % 3] for i in range(14)])
    obs = model.observables
    assert obs.w_models.size == 0 and obs.w_cat.size == 0
    assert [k for k, *_ in obs.sv_factors] == [0, 1, 2]
    for bm in model.binary_models:
        assert 0 < np.count_nonzero(bm.alpha > 0) < 1 << num_features
    X = rng.uniform(-0.5, 1.5, (200, num_features))
    _assert_matches_dual(model, X, monkeypatch)
    _assert_matches_dual(model, X[:1], monkeypatch)


def test_w_and_support_vector_states_in_one_model(monkeypatch):
    # Three qubits, 2**3 = 8: the A/B and B/C problems have 29 and 12
    # support vectors and take W; the A/C problem has 7 and keeps its states.
    rng = np.random.default_rng(6)
    X = np.vstack([rng.uniform(0, 1, (30, 3)), rng.uniform(0, 0.1, (2, 3))])
    model = _random_model(3, X, ["AB"[i % 2] for i in range(30)] + ["C", "C"])
    obs = model.observables
    assert obs.w_models.tolist() == [0, 2]
    assert [k for k, *_ in obs.sv_factors] == [1]
    Y = rng.uniform(-0.5, 1.5, (300, 3))
    _assert_matches_dual(model, Y, monkeypatch)
    assert _decisions(model, Y[7:8]).tobytes() == _decisions(model, Y)[7:8].tobytes()
