import dataclasses
import hashlib
import itertools
import json
import math
import os
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gnss_qsvm.cli import ExperimentConfig, fit_pipeline, run_experiment
from gnss_qsvm.data import (
    Dataset,
    ScalerParams,
    SignalSample,
    apply_scaler,
    fit_scaler,
    generate_synthetic,
)
from gnss_qsvm.errors import (
    ConvergenceWarning,
    DimensionError,
    InvalidInputError,
    InvalidLabelsError,
    InvalidSettingError,
    ModelFormatError,
)
from gnss_qsvm.evaluate import boundary_grid, confusion, make_report
from gnss_qsvm.feature_map import FeatureMapConfig, statevectors
from gnss_qsvm.kernels import (
    FIDELITY_EXACT,
    FIDELITY_SAMPLED,
    RBF,
    KernelConfig,
    default_gamma,
    gram_rectangular,
    gram_symmetric,
)
from gnss_qsvm.svm import (
    BinaryModel,
    SvmConfig,
    SvmModel,
    _decisions,
    _json_text,
    load_model,
    model_from_dict,
    model_to_dict,
    predict,
    save_model,
    solve_binary_smo,
    train_ovo,
)

from oracles import brute_force_dual_max, dual_value, kkt_certificate, platt_smo

IDENTITY_GRAM = np.eye(2)

# Hand-built separable toy set: two tight clusters far apart.
TOY_X = np.array([[0.0, 0.0], [0.1, 0.1], [0.9, 0.9], [1.0, 1.0]])
TOY_LABELS = ["A", "A", "B", "B"]
RBF_CFG = KernelConfig(mode=RBF, gamma=1.0)


class TestSolveBinarySmo:
    def test_identity_gram_analytic_solution(self):
        model = solve_binary_smo(IDENTITY_GRAM, [1, -1], SvmConfig(C=1.0))
        assert model.alpha == pytest.approx([1.0, 1.0], abs=1e-6)
        assert model.bias == pytest.approx(0.0, abs=1e-6)
        assert model.converged

    def test_identity_gram_box_active(self):
        model = solve_binary_smo(IDENTITY_GRAM, [1, -1], SvmConfig(C=0.3))
        assert model.alpha == pytest.approx([0.3, 0.3], abs=1e-6)
        assert model.bias == pytest.approx(0.0, abs=1e-6)

    def test_feasibility_by_construction(self):
        rng = np.random.default_rng(21)
        for trial in range(10):
            n = int(rng.integers(4, 30))
            pts = rng.uniform(0, 1, size=(n, 2))
            K = np.exp(-((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
            y = rng.choice([-1.0, 1.0], size=n)
            if np.all(y == y[0]):
                y[0] = -y[0]
            C = float(rng.choice([0.5, 1.0, 5.0]))
            model = solve_binary_smo(K, y, SvmConfig(C=C))
            assert np.all(model.alpha >= 0.0)
            assert np.all(model.alpha <= C)
            assert abs(float(model.alpha @ model.y)) <= 1e-6

    def test_single_class_rejected(self):
        with pytest.raises(InvalidLabelsError):
            solve_binary_smo(IDENTITY_GRAM, [1, 1], SvmConfig())

    def test_non_pm1_labels_rejected(self):
        with pytest.raises(InvalidLabelsError):
            solve_binary_smo(IDENTITY_GRAM, [1, 0], SvmConfig())

    def test_gram_shape_checked(self):
        with pytest.raises(DimensionError):
            solve_binary_smo(np.eye(3), [1, -1], SvmConfig())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gram_rejected(self, bad):
        K = np.eye(4)
        K[1, 2] = K[2, 1] = bad
        with pytest.raises(ValueError, match="Gram values must be finite"):
            solve_binary_smo(K, [1, -1, 1, -1], SvmConfig())

    def test_asymmetric_gram_rejected(self):
        # One ulp off symmetry in one entry is enough: the solver reads
        # Gram column j as row j.
        K = np.exp(-np.subtract.outer(np.arange(4.0), np.arange(4.0)) ** 2)
        K[1, 2] = np.nextafter(K[1, 2], 1.0)
        with pytest.raises(InvalidInputError, match="Gram matrix must be symmetric"):
            solve_binary_smo(K, [1, -1, 1, -1], SvmConfig())

    def test_sweep_cap_flags_nonconvergence(self):
        rng = np.random.default_rng(22)
        pts = rng.uniform(0, 1, size=(30, 2))
        K = np.exp(-((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        y = rng.choice([-1.0, 1.0], size=30)
        y[0], y[1] = 1.0, -1.0
        with pytest.warns(ConvergenceWarning):
            model = solve_binary_smo(K, y, SvmConfig(max_passes=1))
        assert not model.converged
        # best-effort result still feasible
        assert np.all((model.alpha >= 0) & (model.alpha <= 1.0))

    def test_objective_matches_brute_force_on_small_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            n = int(rng.integers(2, 7))
            pts = rng.uniform(0, 1, size=(n, 2))
            K = np.exp(-float(rng.uniform(0.5, 3.0))
                       * ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
            y = rng.choice([-1.0, 1.0], size=n)
            if np.all(y == y[0]):
                y[0] = -y[0]
            C = float(rng.choice([0.3, 1.0, 10.0]))
            model = solve_binary_smo(K, y, SvmConfig(C=C))
            achieved = dual_value(model.alpha, model.y, K)
            assert achieved == pytest.approx(brute_force_dual_max(K, y, C), abs=1e-3)

    def test_read_only_inputs_accepted_and_left_unchanged(self):
        # The solver works through views of its own state arrays; the
        # caller's Gram and labels must stay read-only to it. This problem
        # runs the vector step test on two stuck points.
        rng = np.random.default_rng(44)
        pts = rng.uniform(0, 1, size=(20, 2))
        K = np.exp(-((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        y = np.where(pts[:, 0] > 0.5, 1.0, -1.0)
        y[:2] = 1.0, -1.0
        expected = solve_binary_smo(K.copy(), y.copy(), SvmConfig())
        K_bytes, y_bytes = K.tobytes(), y.tobytes()
        K.setflags(write=False)
        y.setflags(write=False)
        model = solve_binary_smo(K, y, SvmConfig())
        assert (K.tobytes(), y.tobytes()) == (K_bytes, y_bytes)
        assert model.alpha.tobytes() == expected.alpha.tobytes()
        assert repr(model.bias) == repr(expected.bias)

    def test_deterministic(self):
        rng = np.random.default_rng(24)
        pts = rng.uniform(0, 1, size=(20, 2))
        K = np.exp(-((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        y = np.where(pts[:, 0] > 0.5, 1.0, -1.0)
        if np.all(y == y[0]):
            y[0] = -y[0]
        a = solve_binary_smo(K, y, SvmConfig())
        b = solve_binary_smo(K, y, SvmConfig())
        assert np.array_equal(a.alpha, b.alpha)
        assert a.bias == b.bias


class TestSvmConfig:
    @pytest.mark.parametrize("field", ["C", "kkt_tolerance"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.inf, np.nan, True, "1", [1]])
    def test_non_positive_or_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            SvmConfig(**{field: value})

    @pytest.mark.parametrize("value", [0, -3, 2.5, 3.0, True, "10"])
    def test_max_passes_must_be_a_positive_int(self, value):
        with pytest.raises(ValueError, match="max_passes must be an integer"):
            SvmConfig(max_passes=value)

    @pytest.mark.parametrize("value", [1, np.int64(7)])
    def test_integer_max_passes_accepted(self, value):
        assert SvmConfig(max_passes=value).max_passes == value


class TestTrainOvo:
    def test_three_classes_three_models(self):
        ds = generate_synthetic("T1_SHAPE", seed=2)
        X = apply_scaler(fit_scaler(ds), ds)
        model = train_ovo(X, ds.labels(), SvmConfig(), RBF_CFG)
        assert len(model.binary_models) == 3
        pairs = {bm.label_pair for bm in model.binary_models}
        assert pairs == {("LOS", "LOS_NLOS"), ("LOS", "NLOS"), ("LOS_NLOS", "NLOS")}

    def test_two_classes_match_direct_solve(self):
        model = train_ovo(TOY_X, TOY_LABELS, SvmConfig(C=10.0), RBF_CFG)
        assert len(model.binary_models) == 1
        direct = solve_binary_smo(
            gram_symmetric(TOY_X, RBF_CFG).values,
            np.where(np.array(TOY_LABELS) == "A", 1.0, -1.0),
            SvmConfig(C=10.0),
        )
        bm = model.binary_models[0]
        assert np.array_equal(bm.alpha, direct.alpha)
        assert bm.bias == direct.bias

    def test_feasibility_on_synthetic_preset(self):
        ds = generate_synthetic("T1_SHAPE", seed=7)
        X = apply_scaler(fit_scaler(ds), ds)
        model = train_ovo(X, ds.labels(), SvmConfig(), KernelConfig(mode=FIDELITY_EXACT))
        for bm in model.binary_models:
            assert np.all((bm.alpha >= 0) & (bm.alpha <= 1.0))
            assert abs(float(bm.alpha @ bm.y)) <= 1e-6

    def test_missing_class_rejected(self):
        with pytest.raises(InvalidLabelsError):
            train_ovo(TOY_X, TOY_LABELS, SvmConfig(), RBF_CFG, classes=["A", "B", "C"])

    def test_single_class_rejected(self):
        with pytest.raises(InvalidLabelsError):
            train_ovo(TOY_X, ["A", "A", "A", "A"], SvmConfig(), RBF_CFG)

    def test_class_list_naming_a_class_twice_rejected(self, monkeypatch):
        # Refused before any Gram work, not inside the (A, A) pair's SMO.
        monkeypatch.setattr("gnss_qsvm.svm.gram_symmetric", lambda *args: pytest.fail("Gram"))
        with pytest.raises(InvalidLabelsError, match="names a class twice"):
            train_ovo([[0, 0], [1, 1]], ["A", "B"], SvmConfig(),
                      KernelConfig(FIDELITY_EXACT), classes=["A", "B", "A"])

    def test_labels_outside_the_class_list_rejected(self):
        with pytest.raises(InvalidLabelsError, match=r"outside the class list: \['B'\]"):
            train_ovo(TOY_X, ["A", "A", "B", "C"], SvmConfig(), RBF_CFG, classes=["A", "C"])

    def test_label_count_checked(self):
        with pytest.raises(DimensionError, match="3 label"):
            train_ovo(TOY_X, TOY_LABELS[:3], SvmConfig(), RBF_CFG)

    def test_rbf_gamma_resolved_and_stored(self):
        model = train_ovo(TOY_X, TOY_LABELS, SvmConfig(), KernelConfig(mode=RBF))
        assert model.kernel_config.gamma is not None
        assert model.kernel_config.gamma > 0

    def test_deterministic_models(self):
        ds = generate_synthetic("T1_SHAPE", seed=3)
        X = apply_scaler(fit_scaler(ds), ds)
        a = train_ovo(X, ds.labels(), SvmConfig(), RBF_CFG)
        b = train_ovo(X, ds.labels(), SvmConfig(), RBF_CFG)
        for bma, bmb in zip(a.binary_models, b.binary_models):
            assert np.array_equal(bma.alpha, bmb.alpha)
            assert bma.bias == bmb.bias


class TestPredict:
    def test_separable_toy_zero_training_errors(self):
        for C in (10.0, 100.0):
            model = train_ovo(TOY_X, TOY_LABELS, SvmConfig(C=C), RBF_CFG)
            assert predict(model, TOY_X) == TOY_LABELS

    def test_positive_decision_goes_to_first_class(self):
        model = _stub_model(biases={("A", "B"): 1.0})
        assert predict(model, np.zeros((1, 2))) == ["A"]
        model = _stub_model(biases={("A", "B"): -1.0})
        assert predict(model, np.zeros((1, 2))) == ["B"]

    def test_majority_vote_wins(self):
        # A beats B, A beats C, B beats C -> A on 2 votes
        model = _stub_model(
            biases={("A", "B"): 1.0, ("A", "C"): 1.0, ("B", "C"): 1.0},
            classes=["A", "B", "C"],
        )
        assert predict(model, np.zeros((1, 2))) == ["A"]

    def test_vote_tie_breaks_on_margin_sum(self):
        # three-way vote tie; C carries the largest winning margin
        model = _stub_model(
            biases={("A", "B"): 0.2, ("A", "C"): -2.0, ("B", "C"): 0.5},
            classes=["A", "B", "C"],
        )
        assert predict(model, np.zeros((1, 2))) == ["C"]

    def test_full_tie_breaks_on_lowest_class_index(self):
        model = _stub_model(
            biases={("A", "B"): 1.0, ("A", "C"): -1.0, ("B", "C"): 1.0},
            classes=["A", "B", "C"],
        )
        # votes A=1, B=1, C=1 and every margin is 1.0 -> lowest index wins
        assert predict(model, np.zeros((1, 2))) == ["A"]

    @pytest.mark.parametrize("pairs", [
        [("A", "C"), ("A", "B"), ("B", "C")],
        [("B", "A"), ("A", "C"), ("B", "C")],
    ])
    def test_pairs_out_of_combinations_order_rejected(self, pairs):
        with pytest.raises(InvalidLabelsError, match="one-vs-one pairs"):
            _stub_model(biases=dict.fromkeys(pairs, 1.0), classes=["A", "B", "C"])

    def test_feature_dimension_checked(self):
        model = train_ovo(TOY_X, TOY_LABELS, SvmConfig(), RBF_CFG)
        with pytest.raises(DimensionError):
            predict(model, np.zeros((1, 3)))


class TestSerialization:
    def test_round_trip_is_lossless(self, tmp_path):
        ds = generate_synthetic("T1_SHAPE", seed=4)
        scaler = fit_scaler(ds)
        X = apply_scaler(scaler, ds)
        model = train_ovo(X, ds.labels(), SvmConfig(), KernelConfig(mode=FIDELITY_EXACT))
        path = tmp_path / "model.json"
        save_model(model, path, scaler)
        loaded, loaded_scaler = load_model(path)

        assert loaded.classes == model.classes
        assert np.array_equal(loaded.training_features, model.training_features)
        assert loaded.kernel_config == model.kernel_config
        for bma, bmb in zip(model.binary_models, loaded.binary_models):
            assert bma.label_pair == bmb.label_pair
            assert np.array_equal(bma.alpha, bmb.alpha)
            assert np.array_equal(bma.y, bmb.y)
            assert bma.bias == bmb.bias
            assert np.array_equal(bma.training_indices, bmb.training_indices)
        assert np.array_equal(loaded_scaler.data_min, scaler.data_min)
        assert np.array_equal(loaded_scaler.data_max, scaler.data_max)
        assert (loaded_scaler.target_lo, loaded_scaler.target_hi) == (0.0, 1.0)

    def test_round_trip_without_scaler(self, tmp_path):
        model = train_ovo(TOY_X, TOY_LABELS, SvmConfig(), RBF_CFG)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded, scaler = load_model(path)
        assert scaler is None
        assert predict(loaded, TOY_X) == predict(model, TOY_X)

    def test_dict_round_trip_preserves_predictions(self):
        model = train_ovo(TOY_X, TOY_LABELS, SvmConfig(), RBF_CFG)
        doc = json.loads(json.dumps(model_to_dict(model)))
        loaded, _ = model_from_dict(doc)
        assert predict(loaded, TOY_X) == predict(model, TOY_X)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            model_from_dict({"format": "something-else"})

    def test_truncated_file_names_the_path(self, tmp_path):
        # What a write killed halfway leaves behind.
        path = tmp_path / "model.json"
        save_model(train_ovo(TOY_X, TOY_LABELS, SvmConfig(), RBF_CFG), path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[:len(text) // 2], encoding="utf-8")
        with pytest.raises(ModelFormatError, match="model.json: not a JSON document"):
            load_model(path)


# Strings full of what the writer's re-indentation looks for, numbers at
# the edges of repr, and lists of numbers (flat, rows, ragged) and of
# scalars of every kind.
_TRICKY_TEXT = st.sampled_from([", ", "], [", "[1, 2]", '", "', "{}"]) | st.text(
    st.sampled_from(['"', ",", " ", "[", "]", "{", "}", ":", "\\", "\n", "1", "é", "\u2028"]))
_NUMBERS = st.one_of(
    st.integers(), st.integers(min_value=2**64, max_value=2**80).map(lambda i: -i),
    st.floats(), st.sampled_from([-0.0, 5e-324, 1e300, math.inf, -math.inf, math.nan, 2**65]))
_SCALARS = st.one_of(st.none(), st.booleans(), _NUMBERS, _TRICKY_TEXT, st.text())
_JSON_DOCS = st.recursive(
    st.one_of(_SCALARS, *(st.lists(x, max_size=8)
                          for x in (_NUMBERS, st.lists(_NUMBERS, max_size=4), _SCALARS))),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_TRICKY_TEXT | st.text(), children, max_size=4),
    max_leaves=20)


@settings(deadline=None)
@given(_JSON_DOCS)
def test_json_text_is_the_stdlib_indented_encoding(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


def _stub_model(biases: dict, classes=None) -> SvmModel:
    """Model whose binary decisions are constant (all-zero alphas), letting
    vote logic be exercised directly through the bias terms."""
    if classes is None:
        classes = sorted({c for pair in biases for c in pair})
    train = np.array([[0.0, 0.0], [1.0, 1.0]])
    binary_models = [
        BinaryModel(
            label_pair=pair,
            alpha=np.zeros(2),
            y=np.array([1.0, -1.0]),
            bias=bias,
            training_indices=np.arange(2),
        )
        for pair, bias in biases.items()
    ]
    return SvmModel(
        classes=list(classes),
        binary_models=binary_models,
        kernel_config=RBF_CFG,
        training_features=train,
    )


@pytest.mark.parametrize("mode", [FIDELITY_EXACT, FIDELITY_SAMPLED, RBF])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_rejected(mode, bad):
    kcfg = KernelConfig(mode=mode, shots=16)
    X_bad = TOY_X.copy()
    X_bad[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        train_ovo(X_bad, TOY_LABELS, SvmConfig(), kcfg)
    model = train_ovo(TOY_X, TOY_LABELS, SvmConfig(), kcfg)
    with pytest.raises(ValueError, match="finite"):
        predict(model, [[0.5, bad]])


_NAN_X = [[0.5, np.nan]]


def _two_point_model(mode=RBF, alpha=(0.5, 0.5), indices=(0, 1), classes=None, **fields):
    """A hand-built A-vs-B model on two training points; ``alpha``, ``indices``,
    ``classes`` and the binary model's other ``fields`` are passed as given."""
    bm = BinaryModel(**{"label_pair": ("A", "B"), "alpha": alpha, "y": (1.0, -1.0), "bias": 0.0,
                        "training_indices": indices, **fields})
    return SvmModel(["A", "B"] if classes is None else classes, [bm],
                    KernelConfig(mode=mode, gamma=1.0), np.array([[0.2, 0.3], [0.7, 0.6]]))


_HALF_SCALER = ScalerParams(np.zeros(2), np.full(2, 0.5))  # scales by 2


def _toy_model(mode=RBF):
    return train_ovo(TOY_X, TOY_LABELS, SvmConfig(), KernelConfig(mode=mode, gamma=1.0, shots=64))


@pytest.mark.parametrize("call", [
    lambda: predict(train_ovo(TOY_X, TOY_LABELS, SvmConfig(), RBF_CFG), _NAN_X),
    lambda: train_ovo(_NAN_X + TOY_X.tolist(), ["A"] + TOY_LABELS, SvmConfig(), RBF_CFG),
    lambda: gram_symmetric(_NAN_X, KernelConfig(mode=FIDELITY_EXACT)),
    lambda: gram_rectangular(TOY_X, _NAN_X, RBF_CFG),
    lambda: statevectors(np.array(_NAN_X), FeatureMapConfig(num_features=2)),
    lambda: solve_binary_smo([[1.0, np.inf], [np.inf, 1.0]], [1, -1], SvmConfig()),
    lambda: SignalSample(np.nan, 45.0, "LOS"),
    lambda: SignalSample(1.0, np.nan, "LOS"),
    lambda: SignalSample(1.0, np.inf, "LOS"),
    lambda: SignalSample(1.0, -np.inf, "LOS"),
    lambda: SignalSample(1.0, 95.0, "LOS"),
    lambda: fit_scaler(Dataset([])),
    lambda: make_report([], [], ["A", "B"]),
    lambda: confusion(["A"], ["A", "B"], ["A", "B"]),
    # Values that are no numbers, and containers of the wrong kind.
    lambda: SignalSample("1.0", 10.0, "LOS"),
    lambda: SignalSample(1.0, None, "LOS"),
    lambda: fit_scaler([[1.0, 2.0]]),
    lambda: Dataset([1, 2]).features(),
    lambda: Dataset([1, 2]).labels(),
    lambda: solve_binary_smo(np.eye(2), ["LOS", -1], SvmConfig()),
    lambda: solve_binary_smo([[1.0, "0.5"], ["x", 1.0]], [1, -1], SvmConfig()),
    # Hand-built models that the loader would refuse.
    lambda: _two_point_model(FIDELITY_EXACT, indices=(0, 2)),
    lambda: _two_point_model(FIDELITY_EXACT, alpha=(np.nan, 0.5)),
    lambda: _two_point_model(RBF, alpha=(np.nan, 0.5)),
    lambda: _two_point_model(RBF, alpha=(-0.5, 0.5)),
    # Hand-built fields that model.json could not record or reload.
    lambda: _two_point_model(converged="no"),
    lambda: _two_point_model(converged=np.True_),
    lambda: _two_point_model(bias=True),
    lambda: _two_point_model(alpha=np.array([True, True])),
    lambda: SvmModel(["A", "B"], [{"label_pair": ["A", "B"], "alpha": [0.5, 0.5]}], RBF_CFG,
                     TOY_X),
    # A feature or scaled feature that is no finite number.
    lambda: apply_scaler(_HALF_SCALER, [[0.5, np.nan]]),
    lambda: apply_scaler(_HALF_SCALER, [[np.inf, 0.5]]),
    lambda: apply_scaler(_HALF_SCALER, [[0.5, -np.inf]]),
    lambda: apply_scaler(_HALF_SCALER, [[1e308, 0.5]]),
    # A bool, string or complex value in any array a caller passes, as the
    # model types refuse it in theirs; an object array is read entry by entry.
    lambda: predict(_toy_model(), [["0.95", 0.9]]),
    lambda: predict(_toy_model(), [[True, True]]),
    lambda: predict(_toy_model(), np.array([[True, True]])),
    lambda: predict(_toy_model(), TOY_X + 0.5j),
    lambda: predict(_toy_model(), np.array([[0.5, True]], dtype=object)),
    lambda: train_ovo(TOY_X > 0.5, TOY_LABELS, SvmConfig(), RBF_CFG),
    lambda: apply_scaler(_HALF_SCALER, [["0.5", True]]),
    lambda: solve_binary_smo([["1", "0"], ["0", "1"]], ["1", "-1"], SvmConfig()),
    lambda: solve_binary_smo(np.eye(2), [True, -1], SvmConfig()),
    lambda: statevectors(TOY_X > 0.5, FeatureMapConfig(num_features=2)),
    lambda: statevectors(TOY_X + 0j, FeatureMapConfig(num_features=2)),
    lambda: gram_symmetric(np.array([[0.5, True], [0.2, 0.1]], dtype=object), RBF_CFG),
    lambda: SignalSample(True, 45.0, "LOS"),
    lambda: SignalSample(1.0, np.True_, "LOS"),
    # Features so large that the feature map's phases overflow to NaN states.
    lambda: predict(_toy_model(FIDELITY_EXACT), [[1e200, 1e200]]),
], ids=["predict", "train_ovo", "gram_symmetric", "gram_rectangular", "statevectors",
        "solve_binary_smo", "SignalSample", "SignalSample_elevation_nan",
        "SignalSample_elevation_inf", "SignalSample_elevation_-inf",
        "SignalSample_elevation_range", "fit_scaler_empty",
        "make_report_empty", "confusion_lengths", "SignalSample_string",
        "SignalSample_elevation_none", "fit_scaler_list", "Dataset_features",
        "Dataset_labels", "solve_binary_smo_string_label", "solve_binary_smo_string_gram",
        "SvmModel_index_past_the_end", "SvmModel_nan_alpha_exact", "SvmModel_nan_alpha_rbf",
        "SvmModel_negative_alpha", "SvmModel_string_converged", "SvmModel_numpy_bool_converged",
        "SvmModel_bool_bias", "SvmModel_bool_alpha", "SvmModel_dict_binary_model",
        "apply_scaler_nan", "apply_scaler_inf", "apply_scaler_-inf", "apply_scaler_overflow",
        "predict_numeric_string", "predict_bool_list", "predict_bool_array", "predict_complex",
        "predict_object_array_bool", "train_ovo_bool_array", "apply_scaler_string_and_bool",
        "solve_binary_smo_numeric_strings", "solve_binary_smo_bool_label",
        "statevectors_bool_array", "statevectors_complex", "gram_symmetric_object_array_bool",
        "SignalSample_bool_cn0", "SignalSample_numpy_bool_elevation", "predict_huge_feature"])
def test_unusable_input_raises_invalid_input_error(call):
    with pytest.raises(InvalidInputError):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: SvmConfig(max_passes=0), "max_passes must be an integer"),
    (lambda: SvmConfig(C=-1.0), "C must be positive and finite"),
    (lambda: KernelConfig(mode="poly"), "mode must be one of"),
    (lambda: FeatureMapConfig(num_features=2, entanglement="ring"),
     "entanglement must be one of"),
    (lambda: generate_synthetic("T9_SHAPE"), "unknown preset 'T9_SHAPE'"),
    (lambda: fit_pipeline(ExperimentConfig([], "T1_SHAPE")),
     "at least one training source is required"),
    (lambda: fit_pipeline(ExperimentConfig(["T1_SHAPE"], "T1_SHAPE", model="knn")),
     "model must be one of"),
    (lambda: fit_pipeline(ExperimentConfig(["T1_SHAPE"], "T1_SHAPE", kernel="noisy")),
     "kernel must be one of"),
    (lambda: run_experiment(ExperimentConfig(["T1_SHAPE"], "T1_SHAPE", raw=True,
                                             grid_resolution=4)),
     "boundary grids need scaled features"),
    (lambda: gram_symmetric(TOY_X, KernelConfig(mode=RBF)), "rbf mode requires gamma"),
    (lambda: ScalerParams(np.zeros(2), np.ones(2), 1.0, 0.0), "target_hi must exceed target_lo"),
    # A setting the artifacts cannot record is refused before any training
    # (the experiment's outdir is a file, so nothing could be written).
    (lambda: SvmConfig(C=Fraction(1, 2)), "C must be positive and finite"),
    (lambda: SvmConfig(kkt_tolerance=Decimal("0.001")), "kkt_tolerance must be positive"),
    (lambda: KernelConfig(mode=RBF, gamma=Fraction(1, 2)), "gamma must be positive and finite"),
    (lambda: run_experiment(ExperimentConfig(["T1_SHAPE"], "T1_SHAPE", model="svm",
                                             C=Fraction(1, 2), outdir=os.devnull)),
     "C must be positive and finite"),
    # model.json records floats: a longdouble C could not be written, and a
    # longdouble gamma would run the RBF block in extended precision.
    (lambda: SvmConfig(C=np.longdouble(0.5)), "C must be positive and finite"),
    (lambda: KernelConfig(mode=RBF, gamma=np.longdouble(0.5)),
     "gamma must be positive and finite"),
    (lambda: boundary_grid(train_ovo(TOY_X, TOY_LABELS, SvmConfig(), RBF_CFG), None, 4),
     "model was trained on raw features"),
    # An int beyond float range has no float for the artifacts to record.
    (lambda: SvmConfig(C=10**400), "C must be positive and finite"),
    (lambda: KernelConfig(mode=RBF, gamma=10**400), "gamma must be positive and finite"),
    (lambda: ScalerParams(np.zeros(2), np.ones(2), 0, 10**400), "scaler targets must be"),
    # The report echoes shots also for an RBF model, which spends none.
    (lambda: run_experiment(ExperimentConfig(["T1_SHAPE"], "T1_SHAPE", model="svm",
                                             shots="x", outdir=os.devnull)),
     "shots must be an integer"),
], ids=["_check_int", "_check_positive", "KernelConfig.mode", "entanglement", "preset",
        "no training source", "model", "kernel", "grid with raw", "rbf gamma",
        "ScalerParams targets", "Fraction C", "Decimal tolerance", "Fraction gamma",
        "Fraction C experiment", "longdouble C", "longdouble gamma", "boundary_grid raw",
        "huge int C", "huge int gamma", "huge int ScalerParams target", "svm string shots"])
def test_invalid_setting_raises_invalid_setting_error(call, message):
    with pytest.raises(InvalidSettingError, match=message):
        call()


@pytest.mark.parametrize("call, error, message", [
    (lambda: SignalSample(1.0, 10.0, "X"), InvalidLabelsError, "unknown label 'X'"),
    (lambda: train_ovo(TOY_X, [["A"], ["A"], ["B"], ["B"]], SvmConfig(), RBF_CFG),
     InvalidLabelsError, "unhashable type: 'list'"),
    (lambda: train_ovo([[0.1, 0.2], [0.8, 0.9]], [1, "a"], SvmConfig(),
                       KernelConfig(FIDELITY_EXACT)),
     InvalidLabelsError, "'<' not supported between instances of"),
    (lambda: train_ovo([[0.1, 0.2], [0.8, 0.9]], ["A", "B"], SvmConfig(),
                       KernelConfig(FIDELITY_EXACT), classes=[["A"], "B"]),
     InvalidLabelsError, "unhashable type: 'list'"),
    (lambda: ScalerParams(np.zeros(3), np.ones(3)), DimensionError,
     "data_min and data_max must hold 2 values"),
    (lambda: boundary_grid(train_ovo(np.column_stack([TOY_X, TOY_X[:, 0]]), TOY_LABELS,
                                     SvmConfig(), RBF_CFG),
                           ScalerParams(np.zeros(2), np.ones(2)), 4),
     DimensionError, "boundary grids need a 2-feature model, got 3 feature"),
    # A string in a feature matrix is named as data._numbers names it.
    (lambda: predict(train_ovo(TOY_X, TOY_LABELS, SvmConfig(), RBF_CFG), [[0.5, "LOS"]]),
     InvalidInputError, "expected numbers, got 'LOS'"),
    (lambda: apply_scaler(ScalerParams(np.zeros(2), np.ones(2)), [[0.5, "LOS"]]),
     InvalidInputError, "expected numbers, got 'LOS'"),
    # Labels that are not one vector, with a Gram that would fit their length.
    (lambda: solve_binary_smo(np.eye(1), 1.0, SvmConfig()), DimensionError,
     r"labels must be a 1-D array, got shape \(\)"),
    (lambda: solve_binary_smo(np.eye(2), [[1.0], [-1.0]], SvmConfig()), DimensionError,
     r"labels must be a 1-D array, got shape \(2, 1\)"),
    (lambda: solve_binary_smo(np.zeros((0, 0)), np.zeros(0), SvmConfig()), InvalidLabelsError,
     r"training labels must hold both \+1 and -1"),
    (lambda: _two_point_model(RBF, alpha=(0.5, 0.5, 0.5)), DimensionError,
     r"alpha, y and training_indices differ in shape: \(3,\), \(2,\), \(2,\)"),
    # list() would take a string of one-letter classes as their list.
    (lambda: _two_point_model(classes="AB"), InvalidLabelsError,
     "one-vs-one pairs of a list of at least two distinct classes 'AB'"),
], ids=["SignalSample label", "train_ovo unhashable labels", "train_ovo unsortable labels",
        "train_ovo unhashable class", "ScalerParams shapes",
        "boundary_grid width", "predict string", "apply_scaler string",
        "solve_binary_smo scalar labels", "solve_binary_smo column labels",
        "solve_binary_smo no labels", "SvmModel alpha longer than y", "SvmModel string classes"])
def test_unusable_labels_or_shapes_raise_named_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


def _json_round_trip(model: SvmModel) -> SvmModel:
    loaded, _ = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
    assert loaded.classes == model.classes and loaded.kernel_config == model.kernel_config
    assert loaded.training_features.tobytes() == model.training_features.tobytes()
    for bm, lbm in zip(model.binary_models, loaded.binary_models, strict=True):
        assert (bm.label_pair, bm.bias, bm.converged) == (lbm.label_pair, lbm.bias, lbm.converged)
        for name in ("alpha", "y", "training_indices"):
            assert np.array_equal(getattr(bm, name), getattr(lbm, name))
    return loaded


@pytest.mark.parametrize("fields", [{"alpha": [0.5, 0.5]}, {"label_pair": ["A", "B"]}],
                         ids=["list alpha", "list label pair"])
def test_hand_built_model_converts_its_fields_and_reloads_equal(fields):
    model = _two_point_model(**fields)
    (bm,) = model.binary_models
    assert bm.label_pair == ("A", "B") and bm.alpha.dtype == np.float64
    loaded = _json_round_trip(model)
    assert predict(loaded, TOY_X) == predict(model, TOY_X)


def test_object_array_of_numbers_predicts_as_its_float_array():
    X = np.array([[0.05, 1], [np.float64(0.8), 0.95]], dtype=object)
    model = _toy_model(FIDELITY_EXACT)
    assert predict(model, X) == predict(model, X.astype(float))


def test_model_fields_are_frozen_and_replace_checks_again():
    model = _toy_model(FIDELITY_EXACT)
    (bm,) = model.binary_models
    with pytest.raises(dataclasses.FrozenInstanceError):
        bm.alpha = np.zeros_like(bm.alpha)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.training_features = np.zeros((4, 3))
    with pytest.raises(InvalidInputError, match="alpha must be finite and non-negative"):
        dataclasses.replace(bm, alpha=np.full_like(bm.alpha, -0.5))
    # A replaced binary model gives its new model new observables, so it
    # predicts as the model.json round trip of its fields does.
    zeroed = dataclasses.replace(
        model, binary_models=[dataclasses.replace(bm, alpha=np.zeros_like(bm.alpha))])
    labels = predict(zeroed, TOY_X)
    assert labels == predict(_json_round_trip(zeroed), TOY_X) and labels != predict(model, TOY_X)


def test_model_classes_and_binary_models_are_tuples_that_replace_takes():
    # Neither list can change under a checked model: both are stored as
    # tuples, and replace passes them back as they are.
    model = train_ovo(TOY_X, ["A", "A", "B", "C"], SvmConfig(), KernelConfig(mode=FIDELITY_EXACT))
    assert type(model.classes) is type(model.binary_models) is tuple
    with pytest.raises(TypeError):
        model.binary_models[0] = model.binary_models[1]
    with pytest.raises(AttributeError):
        model.classes.append("EXTRA")
    assert model_to_dict(dataclasses.replace(model)) == model_to_dict(model)
    biased = dataclasses.replace(model, binary_models=(
        dataclasses.replace(model.binary_models[0], bias=50.0), *model.binary_models[1:]))
    labels = predict(biased, TOY_X)
    assert labels == predict(_json_round_trip(biased), TOY_X) and labels != predict(model, TOY_X)


def test_model_arrays_are_read_only_copies():
    # A write through a model's arrays would change its predictions but not
    # its observables, which were derived on construction; model.json would
    # record the change. The caller's own arrays stay theirs.
    X = TOY_X.copy()
    model = train_ovo(X, TOY_LABELS, SvmConfig(), KernelConfig(mode=FIDELITY_EXACT))
    (bm,) = model.binary_models
    alpha = bm.alpha.copy()
    hand_built = BinaryModel(bm.label_pair, alpha, bm.y, bm.bias, bm.training_indices)
    for array in (bm.alpha, bm.y, bm.training_indices, hand_built.alpha,
                  model.training_features, model.observables):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    X[:] = alpha[:] = 0
    assert hand_built.alpha.tobytes() == bm.alpha.tobytes()
    labels = predict(model, TOY_X)
    assert labels == ["A", "A", "B", "B"] == predict(_json_round_trip(model), TOY_X)


def _all_columns_decisions(model, X):
    # The sampled dual sums with shots spent on every kernel entry.
    K = gram_rectangular(X, model.training_features, model.kernel_config).values
    return np.column_stack([(K.take(bm.training_indices, axis=1) * (bm.alpha * bm.y)).sum(axis=1)
                            + bm.bias for bm in model.binary_models])


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.sampled_from([1, 16, 1000]))
def test_sampled_decisions_spend_shots_only_on_weighed_columns(seed, m, shots):
    # Three classes of 2-4 training points each. The first point of a class
    # is a support vector of both its binary models and the second of none,
    # so that every model weighs both labels and skips a column of label -1
    # (its coefficient alpha * y is -0.0); the others are drawn.
    rng = np.random.default_rng(seed)
    classes = ["A", "B", "C"]
    sizes = rng.integers(2, 5, size=3)
    label = np.repeat(np.arange(3), sizes)
    start = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    weighed = rng.random(len(label)) < 0.5
    weighed[start], weighed[start + 1] = True, False
    models = []
    for a, b in itertools.combinations(range(3), 2):
        idx = np.flatnonzero((label == a) | (label == b))
        alpha = np.where(weighed[idx], rng.uniform(0.1, 2.0, len(idx)), 0.0)
        models.append(BinaryModel((classes[a], classes[b]), alpha,
                                  np.where(label[idx] == a, 1.0, -1.0), rng.normal(), idx))
    model = SvmModel(classes, models, KernelConfig(FIDELITY_SAMPLED, shots=shots, seed=seed),
                     rng.uniform(0.0, 1.0, size=(len(label), 2)))
    X = rng.uniform(-0.5, 1.5, size=(m, 2))
    assert _decisions(model, X).tobytes() == _all_columns_decisions(model, X).tobytes()


def _forms(*values):
    """``values`` as a list, a tuple or the array numpy infers from them."""
    return st.sampled_from([list, tuple, np.array]).map(lambda form: form(values))


# Each field of a hand-built two-class model: valid forms first, then ones
# that model.json could not record or that a model cannot use.
_MODEL_FIELDS = {
    "classes": [["A", "B"], "AB", ("A", "B"), ["A", "A"], ["A"], [["A"], "B"]],
    "label_pair": [("A", "B"), ["A", "B"], "AB", ("B", "A"), ["A"], None],
    "alpha": [_forms(0, 0.5, np.float64(2.0)), _forms(np.int64(1), 0.25, 0), [0.5, -0.5, 1],
              [math.nan, 0, 0], (math.inf, 0, 0), np.array([True, False, True]),
              ["0.5", 0, 0], "[0.5, 0, 0]", np.float64(0.5), [0.5, 0.5], {"a": 1}],
    "y": [_forms(1, -1.0, np.int64(1)), _forms(-1.0, 1.0, 1.0), [1, 1, 5], [True, -1, 1],
          np.array([True, False, True]), (1, -1), "1", np.array(["1", "-1", "1"])],
    "bias": [0, -0.25, np.float64(0.5), np.int64(-2), np.float32(1.5), True, np.True_,
             math.nan, math.inf, "0", None, 10**400, np.longdouble(0.5), [0.0]],
    "training_indices": [_forms(0, 1, 2), _forms(2, np.int64(0), np.uint8(2)), [0, 1, 3],
                         (-1, 0, 1), [0.5, 1, 2], np.array([0.0, 1.0, 2.0]), [True, 0, 1],
                         [0, 1, 2**70], np.array([0, 1, 2**63], dtype=np.uint64), "012"],
    "converged": [True, False, "no", np.True_, 1, None],
    "training_features": [_forms([0.2, 0.3], [0.7, 0.6], [0.1, 0.9]),
                          np.array([[0, 1], [1, 0], [1, 1]]), [[0.2, 0.3, 0.5]] * 3,
                          [["0.2", 0.3], [0.7, 0.6], [0.1, 0.9]], np.ones((3, 2), dtype=bool),
                          [[math.nan, 0.3], [0.7, 0.6], [0.1, 0.9]], [[0.2, 0.3]],
                          [[0.2, 0.3], [0.7], [0.1, 0.9]], "features"],
}


@st.composite
def _hand_built_fields(draw):
    """Each field in its first listed form, except up to two drawn from all of theirs."""
    fields = {name: values[0] for name, values in _MODEL_FIELDS.items()}
    for name in draw(st.sets(st.sampled_from(list(_MODEL_FIELDS)), max_size=2)):
        fields[name] = draw(st.sampled_from(_MODEL_FIELDS[name]))
    return {name: draw(value) if isinstance(value, st.SearchStrategy) else value
            for name, value in fields.items()}


@settings(deadline=None)
@given(_hand_built_fields(), st.sampled_from([RBF_CFG, KernelConfig(FIDELITY_EXACT),
                                              KernelConfig(FIDELITY_SAMPLED, shots=64)]))
def test_hand_built_model_raises_a_named_error_or_round_trips(fields, kcfg):
    bm_fields = {name: fields.pop(name) for name in
                 ("label_pair", "alpha", "y", "bias", "training_indices", "converged")}
    try:
        model = SvmModel(binary_models=[BinaryModel(**bm_fields)], kernel_config=kcfg, **fields)
    except ValueError as exc:
        assert type(exc).__module__ == "gnss_qsvm.errors", repr(exc)
        return
    loaded = _json_round_trip(model)
    X = model.training_features
    assert predict(loaded, X) == predict(model, X)


# Each entry of a drawn feature matrix: as often a number of a type a caller
# might pass as a value that is no number or no finite one.
_FEATURE_ENTRIES = st.one_of(
    st.one_of(st.floats(-100, 100), st.floats(), st.integers(), st.floats().map(np.float64),
              st.floats(width=32).map(np.float32), st.integers(-2**63, 2**63 - 1).map(np.int64)),
    st.one_of(st.booleans(), st.booleans().map(np.bool_), st.none(),
              st.sampled_from([math.nan, math.inf, -math.inf]),
              st.complex_numbers(), st.complex_numbers().map(np.complex128),
              st.floats(allow_nan=False, allow_infinity=False).map(str), st.integers().map(str)),
)


@st.composite
def _feature_matrices(draw):
    """A 1-4 row, 2-column matrix as nested lists, nested tuples or the array numpy infers."""
    rows = draw(st.lists(st.tuples(_FEATURE_ENTRIES, _FEATURE_ENTRIES), min_size=1, max_size=4))
    form = draw(st.sampled_from(["list", "tuple", "array"]))
    return [list(row) for row in rows] if form == "list" else \
        tuple(rows) if form == "tuple" else np.array(rows)


@settings(deadline=None)
@given(_feature_matrices(), st.sampled_from([FIDELITY_EXACT, FIDELITY_SAMPLED, RBF]))
def test_feature_matrix_raises_a_named_error_or_acts_as_its_float_array(X, mode):
    model = _toy_model(mode)
    for call in (lambda X: predict(model, X), lambda X: apply_scaler(_HALF_SCALER, X)):
        try:
            result = call(X)
        except ValueError as exc:
            assert type(exc).__module__ == "gnss_qsvm.errors", repr(exc)
            continue
        assert np.array_equal(result, call(np.asarray(X, dtype=float)))


def _reference_vote(votes, margins):
    # The per-row tie-break loop the vectorized vote replaced.
    winners = []
    for r in range(votes.shape[0]):
        tied = np.flatnonzero(votes[r] == votes[r].max())
        winners.append(tied[0] if tied.size == 1 else tied[int(np.argmax(margins[r, tied]))])
    return winners


def test_vectorized_vote_matches_per_row_loop():
    # Training points 10 apart under an RBF kernel with gamma 1: predicting
    # them gives an identity kernel block to double precision, so each binary
    # model's decision on row i is exactly its coefficient alpha_i * y_i,
    # here d_i. Coefficients of +-1 and +-2 over four classes give 2- and
    # 3-way vote ties, many of them with tied margin sums as well.
    classes = ["A", "B", "C", "D"]
    m = 400
    rng = np.random.default_rng(0)
    points = np.column_stack([10.0 * np.arange(m), np.zeros(m)])
    decisions = {pair: rng.choice([-2.0, -1.0, 1.0, 2.0], size=m)
                 for pair in itertools.combinations(classes, 2)}
    model = SvmModel(
        classes=classes,
        binary_models=[
            BinaryModel(label_pair=pair, alpha=np.abs(d), y=np.sign(d), bias=0.0,
                        training_indices=np.arange(m))
            for pair, d in decisions.items()
        ],
        kernel_config=RBF_CFG,
        training_features=points,
    )

    votes = np.zeros((m, len(classes)), dtype=int)
    margins = np.zeros((m, len(classes)))
    for (a, b), d in decisions.items():
        for r in range(m):
            winner = classes.index(a if d[r] > 0 else b)
            votes[r, winner] += 1
            margins[r, winner] += abs(d[r])
    top = (votes == votes.max(axis=1, keepdims=True)).sum(axis=1)
    assert {2, 3} <= set(top.tolist())

    expected = [classes[w] for w in _reference_vote(votes, margins)]
    assert predict(model, points) == expected


def _corrupt(doc, field, value, index=0):
    doc["binary_models"][index][field] = value
    return doc


CORRUPTIONS = {
    "unknown format": lambda doc: {**doc, "format": "something-else"},
    "short alpha": lambda doc: _corrupt(doc, "alpha", doc["binary_models"][0]["alpha"][:-1]),
    "short y": lambda doc: _corrupt(doc, "y", doc["binary_models"][0]["y"][1:]),
    "short indices": lambda doc: _corrupt(
        doc, "training_indices", doc["binary_models"][0]["training_indices"][:-1]),
    "index past the end": lambda doc: _corrupt(
        doc, "training_indices", [0, 1, 2, len(doc["training_features"])]),
    "negative index": lambda doc: _corrupt(doc, "training_indices", [-1, 1, 2, 3]),
    "fractional index": lambda doc: _corrupt(doc, "training_indices", [0.5, 1, 2, 3]),
    "label pair outside classes": lambda doc: _corrupt(doc, "label_pair", ["A", "Z"]),
    "missing binary-model key": lambda doc: {
        **doc, "binary_models": [_without(doc["binary_models"][0], "alpha")]},
    "missing top-level key": lambda doc: _without(doc, "scaler"),
    "extra top-level key": lambda doc: {**doc, "notes": "x"},
    "JSON list": lambda doc: [doc],
    "missing feature_map key": lambda doc: {**doc, "kernel": {
        **doc["kernel"], "feature_map": _without(doc["kernel"]["feature_map"], "repetitions")}},
    "NaN alpha": lambda doc: _corrupt(
        doc, "alpha", [math.nan, *doc["binary_models"][0]["alpha"][1:]]),
    "NaN training feature": lambda doc: {
        **doc, "training_features": [[math.nan, 0.0], *doc["training_features"][1:]]},
    "y entry of 5": lambda doc: _corrupt(doc, "y", [5.0, *doc["binary_models"][0]["y"][1:]]),
    "string converged": lambda doc: _corrupt(doc, "converged", "false"),
    "boolean bias": lambda doc: _corrupt(doc, "bias", True),
    "label pair of one class twice": lambda doc: _corrupt(doc, "label_pair", ["A", "A"]),
    "string alpha entry": lambda doc: _corrupt(
        doc, "alpha", ["0.5", *doc["binary_models"][0]["alpha"][1:]]),
    "boolean y entry": lambda doc: _corrupt(doc, "y", [True, *doc["binary_models"][0]["y"][1:]]),
    "string training feature": lambda doc: {
        **doc, "training_features": [["0.25", 0.0], *doc["training_features"][1:]]},
    "boolean training index": lambda doc: _corrupt(doc, "training_indices", [True, 0, 2, 3]),
    "negative alpha": lambda doc: _corrupt(
        doc, "alpha", [-0.5, *doc["binary_models"][0]["alpha"][1:]]),
    "class listed twice": lambda doc: {**doc, "classes": [*doc["classes"], "A"]},
    "class with no binary model": lambda doc: {**doc, "classes": [*doc["classes"], "D"]},
    "binary model dropped": lambda doc: {**doc, "binary_models": doc["binary_models"][:-1]},
    "binary model duplicated": lambda doc: {
        **doc, "binary_models": [*doc["binary_models"], doc["binary_models"][0]]},
    "no binary models": lambda doc: {**doc, "binary_models": []},
    "list-valued class": lambda doc: _rename_class(doc, "A", ["A"]),
    "string classes": lambda doc: {**doc, "classes": "".join(doc["classes"])},
    "string label pair": lambda doc: _corrupt(doc, "label_pair", "AB"),
}


def _rename_class(doc, old, new):
    doc["classes"] = [new if c == old else c for c in doc["classes"]]
    for bm in doc["binary_models"]:
        bm["label_pair"] = [new if c == old else c for c in bm["label_pair"]]
    return doc


@pytest.mark.parametrize("corruption", list(CORRUPTIONS))
def test_corrupted_model_rejected_at_load(tmp_path, corruption):
    # Three classes; binary model 0 is A vs B on the four TOY_X points.
    model = train_ovo(np.vstack([TOY_X, [[0.0, 1.0], [0.1, 0.9]]]), [*TOY_LABELS, "C", "C"],
                      SvmConfig(), RBF_CFG)
    doc = CORRUPTIONS[corruption](json.loads(json.dumps(model_to_dict(model))))
    with pytest.raises(ModelFormatError):
        model_from_dict(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError):
        load_model(path)


def _without(section: dict, key: str) -> dict:
    return {k: v for k, v in section.items() if k != key}


KERNEL_CORRUPTIONS = {
    "fractional shots": lambda k: {**k, "mode": FIDELITY_SAMPLED, "shots": 2.5},
    "unknown mode": lambda k: {**k, "mode": "poly"},
    "unknown feature_map key": lambda k: {**k, "feature_map": {**k["feature_map"], "depth": 3}},
    "missing kernel key": lambda k: _without(k, "gamma"),
    "fractional repetitions": lambda k: {**k, "feature_map": {**k["feature_map"],
                                                              "repetitions": 2.5}},
    "fractional num_features": lambda k: {**k, "feature_map": {**k["feature_map"],
                                                               "num_features": 2.5}},
    "string seed": lambda k: {**k, "mode": FIDELITY_SAMPLED, "seed": "x"},
    "boolean gamma": lambda k: {**k, "gamma": True},
    "string shots": lambda k: {**k, "shots": "1000"},
}


@pytest.mark.parametrize("corruption", list(KERNEL_CORRUPTIONS))
def test_corrupted_kernel_section_rejected_at_load(tmp_path, corruption):
    model = train_ovo(TOY_X, TOY_LABELS, SvmConfig(), RBF_CFG)
    doc = json.loads(json.dumps(model_to_dict(model)))
    doc["kernel"] = KERNEL_CORRUPTIONS[corruption](doc["kernel"])
    with pytest.raises(ModelFormatError, match="invalid kernel section"):
        model_from_dict(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="invalid kernel section"):
        load_model(path)


def test_feature_map_wider_than_training_features_rejected_at_load():
    # An exact model derives its observables from the training states on
    # load, so a width the feature map cannot take is a format error there.
    model = train_ovo(TOY_X, TOY_LABELS, SvmConfig(), KernelConfig(mode=FIDELITY_EXACT))
    doc = json.loads(json.dumps(model_to_dict(model)))
    doc["kernel"]["feature_map"]["num_features"] = 3
    with pytest.raises(ModelFormatError, match="does not fit the training features"):
        model_from_dict(doc)


SCALER_CORRUPTIONS = {
    "missing scaler key": lambda s: _without(s, "target_hi"),
    "NaN data_min": lambda s: {**s, "data_min": [math.nan, 0.0]},
    "three data_max values": lambda s: {**s, "data_max": [*s["data_max"], 1.0]},
    "data_max equal to data_min": lambda s: {**s, "data_max": s["data_min"]},
    "infinite target_hi": lambda s: {**s, "target_hi": math.inf},
    "string target_lo": lambda s: {**s, "target_lo": "0.0"},
    "boolean target_lo": lambda s: {**s, "target_lo": False},
    "string data_min entry": lambda s: {**s, "data_min": ["-10", s["data_min"][1]]},
}


@pytest.mark.parametrize("corruption", list(SCALER_CORRUPTIONS))
def test_corrupted_scaler_section_rejected_at_load(tmp_path, corruption):
    model = train_ovo(TOY_X, TOY_LABELS, SvmConfig(), RBF_CFG)
    scaler = ScalerParams(np.array([-1.0, 5.0]), np.array([9.0, 85.0]))
    doc = json.loads(json.dumps(model_to_dict(model, scaler)))
    doc["scaler"] = SCALER_CORRUPTIONS[corruption](doc["scaler"])
    with pytest.raises(ModelFormatError, match="invalid scaler"):
        model_from_dict(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="invalid scaler"):
        load_model(path)


def _pair_blocks(presets, kcfg, seeds=(0,), stride=1):
    """The one-vs-one pair problems (Gram block, +/-1 labels) that train_ovo
    solves on every ``stride``-th row of the presets, pooled over the data
    seeds (seed-major) and scaled."""
    data = [Dataset(samples=generate_synthetic(p, seed=s).samples[::stride])
            for s in seeds for p in presets]
    pooled = Dataset(samples=[s for d in data for s in d.samples])
    X = apply_scaler(fit_scaler(pooled), pooled)
    if kcfg.mode == RBF:
        kcfg = KernelConfig(mode=RBF, gamma=default_gamma(X))
    gram = gram_symmetric(X, kcfg).values
    labels = np.array(pooled.labels())
    blocks = []
    for a, b in itertools.combinations(sorted(set(pooled.labels())), 2):
        idx = np.flatnonzero((labels == a) | (labels == b))
        blocks.append((gram[np.ix_(idx, idx)], np.where(labels[idx] == a, 1.0, -1.0)))
    return blocks


def _solve_quietly(K, y, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        return solve_binary_smo(K, y, cfg)


def _assert_matches_plain_platt(K, y, cfg):
    model = _solve_quietly(K, y, cfg)
    alpha, bias, converged = platt_smo(K, y, cfg.C, cfg.kkt_tolerance, cfg.max_passes)
    assert model.alpha.tobytes() == alpha.tobytes()
    assert (repr(model.bias), model.converged) == (repr(bias), converged)


def _sha256(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


GOLDEN_PROBLEMS = {
    "rbf T0+T1": (("T0_SHAPE", "T1_SHAPE"), KernelConfig(mode=RBF)),
    "exact T0": (("T0_SHAPE",), KernelConfig(mode=FIDELITY_EXACT)),
    "sampled T0 8 shots": (("T0_SHAPE",), KernelConfig(mode=FIDELITY_SAMPLED, shots=8, seed=0)),
    # The benchmark's rbf_pool training set: every 6th row of T0+T1+T2 over
    # data seeds 0-3, 212 points. Its 84-point NLOS/LOS_NLOS problem is the
    # slowest pair problem of the benchmark.
    "rbf pool": (("T0_SHAPE", "T1_SHAPE", "T2_SHAPE"), KernelConfig(mode=RBF), range(4), 6),
    # The benchmark's exact_grid training set: every 4th row of T0+T1 at data
    # seed 0. Its 39-, 36- and 23-point blocks are the workload's, byte for
    # byte, up to the labels of one pair, which this helper's sorted classes
    # negate.
    "exact grid": (("T0_SHAPE", "T1_SHAPE"), KernelConfig(mode=FIDELITY_EXACT), (0,), 4),
}

# sha256 of every block's bytes and labels. The model digests below hold for
# exactly these inputs; another platform's exp/cos may move Gram entries by
# an ulp, and then test_pair_models_match_plain_platt_scan is the check.
GOLDEN_INPUTS = {
    "rbf T0+T1": "1688b6318ed6739f01025fd8290f54405cfd4cc159c128a20bdebef1905547bc",
    "exact T0": "e76b8db36d7e7c8b3c6091337280e51beb677143486fea61fd82a8939562b14e",
    "sampled T0 8 shots": "1a510133d12edd95817eb92546ba9ad18f7351edbc058e1eaa05d677794cc85d",
    "rbf pool": "5e283d835d5f5102b28eb38d5fee81c7375ea5eab097df39155794ef3e254c6e",
    "exact grid": "54dfe0beb849949ffb620c4c8e5fcde75401f12c73ddc2c158ff1b94fee4e03f",
}

# (problem, C, max_passes) -> sha256 over each pair model's alpha bytes,
# repr(bias) and converged flag, recorded from the solver that tried every
# partner in turn. Skipping partners that cannot move must not change a bit.
GOLDEN_DIGESTS = {
    ("rbf T0+T1", 0.1, 10_000): "7d5b611a621ab0d4e676b2c48d380e0cfd0c91b7039f50b0f8421de4f0d827ef",
    ("rbf T0+T1", 1.0, 10_000): "f88ebab0a270ad727f2ead0c48e3db3897bb9fecb7263bae0dba618120f9f11f",
    ("rbf T0+T1", 10.0, 10_000): "6dabe7b8e5a37b67b5ba223df18f2603470d9089ce68e77e981cbc583256901d",
    ("rbf T0+T1", 1.0, 1): "412ede23098577ca056fb09d96bebbd73fec1e556ef2f47f290c9b1c524778ba",
    ("exact T0", 0.1, 10_000): "d7c1e53fd77b9ce3e8517d8ffdc04a40192e3627704b878e229764dae9d1d45a",
    ("exact T0", 1.0, 10_000): "384b9e81e60cf39bf430829fcda7fc3faadc06c701ee6aae3d9e891d865e613e",
    ("exact T0", 10.0, 10_000): "7e63e5fc9a7b57bb857348db7a223a1c69f58e0e58db3b2e068972261b680c5f",
    ("sampled T0 8 shots", 0.1, 10_000):
        "4fdc9e73a9bb82cf81116a43d7eb4b86829180e04ffee9aaeec95fdcb59d1ba7",
    ("sampled T0 8 shots", 1.0, 10_000):
        "43ae54ab2f3601a34665d23ea603c9cab88ebd2541c2ff69f5021d8d3947683e",
    ("sampled T0 8 shots", 10.0, 10_000):
        "08df701dcbc6c25f51fb3f084d920411fee66f4a256d69090ebffc60a9942644",
    ("rbf pool", 0.1, 10_000): "82256c78a969212dce0ed41afd9875da42334b89e6b280bd5bfc42f668d02cf8",
    ("rbf pool", 1.0, 10_000): "ca80b525a346585a748937107779414683c75f27641b2db061b7923b930cc80c",
    ("rbf pool", 10.0, 10_000): "9cb866bdddd4d4c98d7e1b9220d9a3f02acb291a98f20ecb8518d2a4cdf2c58f",
    ("rbf pool", 1.0, 1): "f44e214a929934a63eb44553c0a7c2a0d2ce1e65baa421065e9c7322bec9f094",
    ("exact grid", 0.1, 10_000): "7e8b0b68e38a17e92883e75fc22597cc4497d25ab0e8b18f61bf9e1f3afe6745",
    ("exact grid", 1.0, 10_000): "3ca117e0dd458dfab175ad8ab805926070d2fbaedb2b1a2085fa1aae305f07fd",
    ("exact grid", 10.0, 10_000): "1685c65369f0c6e478a5f86a6687b6e015e913739acdefae93574fb7548710e1",
    ("exact grid", 1.0, 1): "148605b67ac8589f4fd10c55f494c49d2c6fa8f1446bd359d027273a3b71ea54",
}


@pytest.fixture(scope="module")
def golden_blocks():
    return {name: _pair_blocks(*spec) for name, spec in GOLDEN_PROBLEMS.items()}


@pytest.mark.parametrize("problem, C, max_passes", list(GOLDEN_DIGESTS))
def test_pair_models_match_golden_bytes(golden_blocks, problem, C, max_passes):
    blocks = golden_blocks[problem]
    if _sha256(*(part.tobytes() for block in blocks for part in block)) != GOLDEN_INPUTS[problem]:
        pytest.skip("Gram bytes differ from those the digests were recorded on")
    models = [_solve_quietly(K, y, SvmConfig(C=C, max_passes=max_passes)) for K, y in blocks]
    assert all(m.converged == (max_passes > 1) for m in models)
    parts = [(m.alpha.tobytes(), m.bias, m.converged) for m in models]
    assert _sha256(*itertools.chain.from_iterable(parts)) == GOLDEN_DIGESTS[problem, C, max_passes]


@pytest.mark.parametrize("problem, C, max_passes", list(GOLDEN_DIGESTS))
def test_pair_models_match_plain_platt_scan(golden_blocks, problem, C, max_passes):
    for K, y in golden_blocks[problem]:
        _assert_matches_plain_platt(K, y, SvmConfig(C=C, max_passes=max_passes))


@pytest.mark.parametrize("problem", list(GOLDEN_PROBLEMS))
def test_memory_order_of_gram_moves_no_bit(golden_blocks, problem):
    for K, y in golden_blocks[problem]:
        c_model = _solve_quietly(np.ascontiguousarray(K), y, SvmConfig())
        f_model = _solve_quietly(np.asfortranarray(K), y, SvmConfig())
        assert c_model.alpha.tobytes() == f_model.alpha.tobytes()
        assert repr(c_model.bias) == repr(f_model.bias)


# The largest relative duality gap that each positive semi-definite golden
# problem showed over C = 0.1, 1 and 10 when this test was written (5.3e-3,
# 2.4e-3, 4.8e-4 and 6.3e-4), rounded up. The 8-shot sampled Gram is
# indefinite, so its primal has no w.w >= 0 and is left out.
DUALITY_GAP_BOUNDS = {"rbf T0+T1": 6e-3, "exact T0": 3e-3, "rbf pool": 5e-4, "exact grid": 7e-4}


@pytest.mark.parametrize("C", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("problem", list(GOLDEN_PROBLEMS))
def test_pair_models_pass_kkt_certificate(golden_blocks, problem, C):
    # Platt's per-point test at tolerance tol leaves the maximal-violating-pair
    # gap at most 2 * tol. The certificate counts a coefficient within 1e-8 * C
    # (the solver's _BOUND_EPS) of a bound as on it: take_step can leave one a
    # single ulp short of C (0.7 + 0.3 is 0.9999999999999999), where it counts
    # as free although no pair can move it, and then the strict gap reaches
    # 3.94 (ROADMAP item 11).
    cfg = SvmConfig(C=C)
    for K, y in golden_blocks[problem]:
        model = _solve_quietly(K, y, cfg)
        gap, residual, duality_gap = kkt_certificate(K, y, model.alpha, model.bias, C, 1e-8)
        assert gap <= 2 * cfg.kkt_tolerance
        assert residual <= 1e-12 * C
        if problem in DUALITY_GAP_BOUNDS:
            assert -1e-12 <= duality_gap <= DUALITY_GAP_BOUNDS[problem]


def test_sampled_golden_pair_blocks_are_indefinite(golden_blocks):
    # Keeps the non-positive-curvature (eta <= 0) branch of the pair update
    # under the golden bytes.
    for K, _ in golden_blocks["sampled T0 8 shots"]:
        assert np.linalg.eigvalsh(K).min() < 0


@pytest.mark.parametrize("C", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("tol", [1e-3, 1e-5])
def test_random_grams_match_plain_platt_scan(C, tol):
    # Odd trials are symmetric Gaussian matrices, far from PSD; a 200-sweep
    # cap keeps the ones that never converge short.
    rng = np.random.default_rng(31)
    for trial in range(12):
        n = int(rng.integers(4, 40))
        if trial % 2:
            A = rng.normal(size=(n, n))
            K = (A + A.T) / 2
        else:
            pts = rng.uniform(0, 1, size=(n, 2))
            K = np.exp(-float(rng.uniform(0.5, 5)) * ((pts[:, None] - pts[None]) ** 2).sum(-1))
        y = rng.choice([-1.0, 1.0], size=n)
        y[:2] = 1.0, -1.0
        _assert_matches_plain_platt(K, y, SvmConfig(C=C, kkt_tolerance=tol, max_passes=200))


@pytest.mark.parametrize("C", [0.1, 1.0, 10.0])
def test_zero_curvature_pairs_match_plain_platt_scan(C):
    # Duplicated points make pairs of zero curvature (eta = 0), some with
    # opposite labels; a division by it warns, which the test settings turn
    # into an error. An 8-shot sampled Gram is indefinite, and every pair
    # whose shots all came out all-zeros has zero curvature too; its pair
    # updates succeed only through the bound comparison, which the step test
    # must leave to the scalar update.
    rng = np.random.default_rng(14)
    pts = rng.uniform(0, 1, size=(14, 2))
    X = np.vstack([pts, pts[:7]])
    y = np.where(rng.uniform(size=len(X)) < 0.5, 1.0, -1.0)
    y[:2] = 1.0, -1.0
    y[14:16] = -y[:2]
    rbf = gram_symmetric(X, KernelConfig(RBF, gamma=3.0)).values
    sampled = gram_symmetric(pts, KernelConfig(FIDELITY_SAMPLED, shots=8, seed=14)).values
    assert np.linalg.eigvalsh(sampled).min() < 0
    assert np.any(np.triu(sampled, k=1) == 1.0)
    for K, labels in [(rbf, y), (sampled, y[:14])]:
        _assert_matches_plain_platt(K, labels, SvmConfig(C=C, max_passes=200))


@settings(deadline=None, max_examples=40)
@given(kind=st.sampled_from(["rbf", "sampled", "duplicated"]), n=st.integers(6, 30),
       C=st.sampled_from([0.3, 1.0, 10.0]), seed=st.integers(0, 2**32 - 1))
@example(kind="rbf", n=14, C=1.0, seed=13)
@example(kind="duplicated", n=14, C=1.0, seed=3)
@example(kind="sampled", n=30, C=1.0, seed=10)
@example(kind="rbf", n=10, C=10.0, seed=28)
@example(kind="sampled", n=18, C=1.0, seed=57)
@example(kind="sampled", n=12, C=0.3, seed=5)
def test_smo_matches_plain_platt_scan_on_random_problems(kind, n, C, seed):
    # Random labels on random points leave many points on a bound, so full
    # scans run. Some fail: the point is then stuck, and its next examines
    # go through the step test until a step takes it off the stuck set. Each
    # explicit example does all three, and in the first five the step test
    # rejects a stuck point's heuristic partner. In the fourth and fifth, a
    # stuck point's free loop also skips a partner that the test rejects and
    # then steps with a later one. The step test keeps the curvature row of
    # the last point it tested; in the last example two stuck points
    # alternate (points 10, 6, 10, 6, 6, 6), so the kept row is replaced and
    # rebuilt, point 10 steps off the stuck set after its rebuilt test, and
    # point 6's last two tests reuse the kept row. All of this was counted
    # with an instrumented copy of the solver. 8-shot sampled Grams are
    # indefinite; duplicated points give zero curvature.
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 1, size=(n, 2))
    if kind == "sampled":
        K = gram_symmetric(pts, KernelConfig(FIDELITY_SAMPLED, shots=8, seed=seed)).values
    else:
        if kind == "duplicated":
            pts = np.vstack([pts, pts[: n // 2]])
        K = gram_symmetric(pts, KernelConfig(RBF, gamma=float(rng.uniform(0.5, 20)))).values
    y = rng.choice([-1.0, 1.0], size=len(pts))
    y[:2] = 1.0, -1.0
    _assert_matches_plain_platt(K, y, SvmConfig(C=C, max_passes=200))
