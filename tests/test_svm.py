import hashlib
import itertools
import json
import math
import warnings

import numpy as np
import pytest

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
    ModelFormatError,
)
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
    load_model,
    model_from_dict,
    model_to_dict,
    predict,
    save_model,
    solve_binary_smo,
    train_ovo,
)

from oracles import brute_force_dual_max, dual_value, platt_smo

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
], ids=["predict", "train_ovo", "gram_symmetric", "gram_rectangular", "statevectors",
        "solve_binary_smo", "SignalSample", "SignalSample_elevation_nan",
        "SignalSample_elevation_inf", "SignalSample_elevation_-inf"])
def test_unusable_input_raises_invalid_input_error(call):
    with pytest.raises(InvalidInputError):
        call()


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
    # model's decision on row i is exactly its coefficient i. Coefficients
    # of +-1 and +-2 over four classes give 2- and 3-way vote ties, many of
    # them with tied margin sums as well.
    classes = ["A", "B", "C", "D"]
    m = 400
    rng = np.random.default_rng(0)
    points = np.column_stack([10.0 * np.arange(m), np.zeros(m)])
    decisions = {pair: rng.choice([-2.0, -1.0, 1.0, 2.0], size=m)
                 for pair in itertools.combinations(classes, 2)}
    model = SvmModel(
        classes=classes,
        binary_models=[
            BinaryModel(label_pair=pair, alpha=d, y=np.ones(m), bias=0.0,
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
}

# sha256 of every block's bytes and labels. The model digests below hold for
# exactly these inputs; another platform's exp/cos may move Gram entries by
# an ulp, and then test_pair_models_match_plain_platt_scan is the check.
GOLDEN_INPUTS = {
    "rbf T0+T1": "1688b6318ed6739f01025fd8290f54405cfd4cc159c128a20bdebef1905547bc",
    "exact T0": "e76b8db36d7e7c8b3c6091337280e51beb677143486fea61fd82a8939562b14e",
    "sampled T0 8 shots": "1a510133d12edd95817eb92546ba9ad18f7351edbc058e1eaa05d677794cc85d",
    "rbf pool": "5e283d835d5f5102b28eb38d5fee81c7375ea5eab097df39155794ef3e254c6e",
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
