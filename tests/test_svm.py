import hashlib
import itertools
import json
import warnings

import numpy as np
import pytest

from gnss_qsvm.data import Dataset, apply_scaler, fit_scaler, generate_synthetic
from gnss_qsvm.errors import (
    ConvergenceWarning,
    DimensionError,
    InvalidLabelsError,
    ModelFormatError,
)
from gnss_qsvm.kernels import (
    FIDELITY_EXACT,
    FIDELITY_SAMPLED,
    RBF,
    KernelConfig,
    KernelMatrix,
    default_gamma,
    gram_symmetric,
)
from gnss_qsvm.svm import (
    BinaryModel,
    SvmConfig,
    SvmModel,
    decision_value,
    dual_objective,
    load_model,
    model_from_dict,
    model_to_dict,
    predict,
    save_model,
    solve_binary_smo,
    train_ovo,
)

from oracles import brute_force_dual_max, platt_smo

IDENTITY_GRAM = KernelMatrix(2, 2, np.eye(2), symmetric=True)

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
            achieved = dual_objective(model.alpha, model.y, K)
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
    @pytest.mark.parametrize("value", [0.0, -1.0, np.inf, np.nan])
    def test_non_positive_or_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            SvmConfig(**{field: value})


class TestDecisionValue:
    def test_zero_coefficients_return_bias(self):
        model = BinaryModel(
            label_pair=(1, -1),
            alpha=np.zeros(3),
            y=np.array([1.0, -1.0, 1.0]),
            bias=0.5,
            training_indices=np.arange(3),
        )
        assert decision_value(model, [0.9, 0.1, 0.4]) == 0.5

    def test_two_point_model_rows(self):
        model = solve_binary_smo(IDENTITY_GRAM, [1, -1], SvmConfig(C=1.0))
        assert decision_value(model, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-6)
        assert decision_value(model, [0.0, 1.0]) == pytest.approx(-1.0, abs=1e-6)

    def test_row_length_checked(self):
        model = solve_binary_smo(IDENTITY_GRAM, [1, -1], SvmConfig())
        with pytest.raises(DimensionError):
            decision_value(model, [1.0, 0.0, 0.0])


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
            gram_symmetric(TOY_X, RBF_CFG),
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
    "label pair outside classes": lambda doc: _corrupt(doc, "label_pair", ["A", "Z"]),
}


@pytest.mark.parametrize("corruption", list(CORRUPTIONS))
def test_corrupted_model_rejected_at_load(tmp_path, corruption):
    model = train_ovo(TOY_X, TOY_LABELS, SvmConfig(), RBF_CFG)
    doc = CORRUPTIONS[corruption](json.loads(json.dumps(model_to_dict(model))))
    with pytest.raises(ModelFormatError):
        model_from_dict(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError):
        load_model(path)


def _pair_blocks(presets, kcfg):
    """The one-vs-one pair problems (Gram block, +/-1 labels) that train_ovo
    solves on the scaled, pooled presets at data seed 0."""
    data = [generate_synthetic(p, seed=0) for p in presets]
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
}

# sha256 of every block's bytes and labels. The model digests below hold for
# exactly these inputs; another platform's exp/cos may move Gram entries by
# an ulp, and then test_pair_models_match_plain_platt_scan is the check.
GOLDEN_INPUTS = {
    "rbf T0+T1": "1688b6318ed6739f01025fd8290f54405cfd4cc159c128a20bdebef1905547bc",
    "exact T0": "e76b8db36d7e7c8b3c6091337280e51beb677143486fea61fd82a8939562b14e",
    "sampled T0 8 shots": "1a510133d12edd95817eb92546ba9ad18f7351edbc058e1eaa05d677794cc85d",
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
