"""Exact-kernel prediction through each binary model's observable W.

A binary model's decision value sum_i c_i |<psi_i|psi(x)>|^2 + b equals
<psi(x)|W|psi(x)> + b with W = sum_i c_i |psi_i><psi_i|. ``predict`` measures
every binary model's W, also on wider feature maps where a binary model has
fewer support vectors than 2**n; the reference here is the dual it
replaced: the exact kernel row times alpha * y, one matrix-vector product
per binary model.
"""

import functools

import numpy as np
import pytest

from gnss_qsvm import svm
from gnss_qsvm.data import Dataset, apply_scaler, fit_scaler, generate_synthetic
from gnss_qsvm.feature_map import FeatureMapConfig
from gnss_qsvm.kernels import FIDELITY_EXACT, KernelConfig, gram_rectangular, gram_symmetric
from gnss_qsvm.svm import SvmConfig, _decisions, load_model, predict, save_model, train_ovo
from oracles import mapped_state, pauli_features, pauli_strings

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
    _assert_matches_dual(model, _points(points, scaler), monkeypatch)


def test_save_load_predict_is_byte_identical(tmp_path):
    model, scaler = _phase_model(PHASES["T0+T1"])
    X = np.vstack([_points("T2_SHAPE", scaler), _points("outside", scaler)])
    save_model(model, tmp_path / "model.json", scaler)
    loaded, _ = load_model(tmp_path / "model.json")
    assert loaded.observables.tobytes() == model.observables.tobytes()
    assert _decisions(loaded, X).tobytes() == _decisions(model, X).tobytes()
    assert predict(loaded, X) == predict(model, X)


def test_each_observable_is_hermitian_with_zero_trace():
    # Tr W = sum_i c_i <psi_i|psi_i> = sum_i alpha_i y_i, zero at any
    # feasible point of the dual.
    model, _ = _phase_model(PHASES["T0+T1"])
    dim = 1 << model.kernel_config.feature_map.num_features
    assert model.observables.shape == (dim, dim * len(model.binary_models))
    for k in range(len(model.binary_models)):
        W = model.observables[:, k * dim:(k + 1) * dim]
        assert np.array_equal(W, W.conj().T)
        assert abs(np.trace(W)) <= 1e-9


@pytest.mark.parametrize("phase", list(PHASES))
def test_gram_and_observables_match_the_pauli_oracle(phase):
    # Through the Pauli features of the oracle's own states, which share no
    # code with the Gram's _block or the model's _observables: K = Phi Phi^T / 4
    # and W = 1/4 sum_P w_P P with w = sum_i alpha_i y_i Phi_i.
    model, _ = _phase_model(PHASES[phase])
    phi = pauli_features([mapped_state(x) for x in model.training_features])
    gram = gram_symmetric(model.training_features, model.kernel_config).values
    assert np.abs(gram - phi @ phi.T / 4).max() <= 1e-13
    strings = pauli_strings(2)
    for k, bm in enumerate(model.binary_models):
        w = (bm.alpha * bm.y) @ phi[bm.training_indices]
        W = np.tensordot(w, strings, 1) / 4
        assert np.abs(model.observables[:, 4 * k:4 * (k + 1)] - W).max() <= 1e-13


def _random_model(num_features: int, X, labels):
    return train_ovo(X, labels, SvmConfig(),
                     KernelConfig(mode=FIDELITY_EXACT, feature_map=FeatureMapConfig(num_features)))


@pytest.mark.parametrize("num_features", [5, 6])
def test_wide_feature_map_matches_the_dual(num_features, monkeypatch):
    # 14 training points: every binary model has fewer than 2**n support
    # vectors, so each W is rank-deficient.
    rng = np.random.default_rng(num_features)
    model = _random_model(num_features, rng.uniform(0, 1, (14, num_features)),
                          ["ABC"[i % 3] for i in range(14)])
    for bm in model.binary_models:
        assert 0 < np.count_nonzero(bm.alpha > 0) < 1 << num_features
    X = rng.uniform(-0.5, 1.5, (200, num_features))
    _assert_matches_dual(model, X, monkeypatch)
    _assert_matches_dual(model, X[:1], monkeypatch)


def test_three_qubit_model_matches_the_dual(monkeypatch):
    # Three qubits, 2**3 = 8: the A/B and B/C problems have 29 and 12
    # support vectors, more than 8; the A/C problem has 7, fewer.
    rng = np.random.default_rng(6)
    X = np.vstack([rng.uniform(0, 1, (30, 3)), rng.uniform(0, 0.1, (2, 3))])
    model = _random_model(3, X, ["AB"[i % 2] for i in range(30)] + ["C", "C"])
    Y = rng.uniform(-0.5, 1.5, (300, 3))
    _assert_matches_dual(model, Y, monkeypatch)
    assert _decisions(model, Y[7:8]).tobytes() == _decisions(model, Y)[7:8].tobytes()
