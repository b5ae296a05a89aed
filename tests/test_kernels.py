import hashlib
import math

import numpy as np
import pytest

from gnss_qsvm.data import Dataset, apply_scaler, fit_scaler, generate_synthetic, mask_seed
from gnss_qsvm.errors import DegenerateDataError, DimensionError
from gnss_qsvm.kernels import (
    FIDELITY_EXACT,
    FIDELITY_SAMPLED,
    MAX_SHOTS,
    RBF,
    KernelConfig,
    _Keys,
    _pair_seeds,
    _pcg64_keys,
    _shot_estimates,
    default_gamma,
    gram_rectangular,
    gram_symmetric,
)

from oracles import (
    compute_uncompute_fidelity,
    overlap_fidelity,
    pair_seed,
    rbf_value,
    second_order_map_unitary,
    shot_estimate,
    shot_noise_edge,
)

EXACT = KernelConfig(FIDELITY_EXACT)

# |<psi(y)|psi(x)>|^2 for x = (0.5, 0.5), y = (0.1, 0.9), frozen from the
# statevector inner-product oracle.
GOLDEN_FIDELITY = 0.31806752067069

# The 100,000-shot estimate of that overlap at master seed 7, frozen from
# default_rng(pair_seed(7, 0, 0)).binomial(100000, GOLDEN_FIDELITY) / 100000.
GOLDEN_SAMPLED_ESTIMATE = 0.3168

# default_gamma on the scaled 193-sample T0+T1 synthetic pool at seed 0,
# frozen from evaluating 1/(d * pooled variance) directly.
GOLDEN_GAMMA = 6.619457406598038


def _entry(x, y, cfg: KernelConfig) -> float:
    """k(x, y): the one entry of the 1 x 1 rectangular block."""
    return float(gram_rectangular([x], [y], cfg).values[0, 0])


def _sampled(shots: int, seed: int) -> KernelConfig:
    return KernelConfig(FIDELITY_SAMPLED, shots=shots, seed=seed)


class TestFidelityExact:
    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.uniform(0, 1, size=2)
            assert _entry(x, x, EXACT) == pytest.approx(1.0, abs=1e-10)

    def test_pi_pair(self):
        assert _entry([math.pi, math.pi], [math.pi, math.pi], EXACT) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_golden_value(self):
        value = _entry([0.5, 0.5], [0.1, 0.9], EXACT)
        assert value == pytest.approx(GOLDEN_FIDELITY, abs=1e-12)
        oracle = overlap_fidelity([0.5, 0.5], [0.1, 0.9])
        assert oracle == pytest.approx(GOLDEN_FIDELITY, abs=1e-12)
        assert 0.0 < value < 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            gram_rectangular([[0.1]], [[0.1, 0.2]], EXACT)


class TestFidelitySampled:
    """Entry (0, 0) of a sampled 1 x 1 block, the estimate seeded with
    pair_seed(seed, 0, 0)."""

    def test_identical_inputs_always_one(self):
        for shots in (1, 10, 1000):
            assert _entry([0.4, 0.6], [0.4, 0.6], _sampled(shots, 3)) == 1.0

    def test_golden_seeded_estimate(self):
        x, y = [0.5, 0.5], [0.1, 0.9]
        estimate = _entry(x, y, _sampled(100000, 7))
        assert estimate == shot_estimate(pair_seed(7, 0, 0), 100000, overlap_fidelity(x, y))
        assert estimate == GOLDEN_SAMPLED_ESTIMATE
        assert abs(estimate - GOLDEN_FIDELITY) < 0.01

    def test_single_shot_is_bernoulli(self):
        values = {_entry([0.5, 0.5], [0.1, 0.9], _sampled(1, s)) for s in range(20)}
        assert values <= {0.0, 1.0}
        assert len(values) == 2  # both outcomes occur across seeds

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            _sampled(0, 0)

    @pytest.mark.parametrize("seed", [2.5, 2.0, True, None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            _sampled(100, seed)

    def test_negative_seed_accepted(self):
        # Seeds are taken modulo 2**64, as SeedSequence needs them unsigned.
        X = np.random.default_rng(6).uniform(0, 1, size=(5, 2))
        block = gram_symmetric(X, _sampled(100, -42)).values
        assert block.tobytes() == gram_symmetric(X, _sampled(100, (1 << 64) - 42)).values.tobytes()

    @pytest.mark.parametrize("shots", [1, 8, 1000])
    def test_equals_all_zeros_count_of_circuit_histogram(self, shots):
        # Reference: the full outcome histogram of the compute-uncompute
        # circuit U(y)^-1 U(x) |0...0>, drawn with the entry's seed; the
        # estimate must be its all-zeros count over the shots.
        rng = np.random.default_rng(shots)
        for seed in range(300):
            x, y = rng.uniform(0, 1, size=(2, 2))
            column = second_order_map_unitary(y).conj().T @ second_order_map_unitary(x)[:, 0]
            probs = np.abs(column) ** 2
            counts = np.random.default_rng(pair_seed(seed, 0, 0)).multinomial(
                shots, probs / probs.sum())
            assert _entry(x, y, _sampled(shots, seed)) == counts[0] / shots


class TestRbf:
    def test_self_similarity(self):
        assert _entry([1.2, 3.4], [1.2, 3.4], KernelConfig(RBF, gamma=0.7)) == 1.0

    def test_unit_distance(self):
        value = _entry([0, 0], [1, 0], KernelConfig(RBF, gamma=1.0))
        assert value == pytest.approx(math.exp(-1), abs=1e-12)

    def test_three_four_five(self):
        value = _entry([0, 0], [3, 4], KernelConfig(RBF, gamma=0.1))
        assert value == pytest.approx(math.exp(-2.5), abs=1e-12)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            KernelConfig(RBF, gamma=0.0)


class TestDefaultGamma:
    def test_stated_example(self):
        assert default_gamma([[0, 0], [1, 1]]) == pytest.approx(2.0, abs=1e-12)

    def test_constant_matrix_rejected(self):
        with pytest.raises(DegenerateDataError):
            default_gamma([[0, 0], [0, 0]])

    def test_golden_on_scaled_synthetic_pool(self):
        t0 = generate_synthetic("T0_SHAPE", seed=0)
        t1 = generate_synthetic("T1_SHAPE", seed=0)
        pool = Dataset(t0.samples + t1.samples)
        X = apply_scaler(fit_scaler(pool), pool)
        gamma = default_gamma(X)
        assert gamma == pytest.approx(GOLDEN_GAMMA, abs=1e-12)
        flat = X.ravel()
        direct = 1.0 / (2 * float(((flat - flat.mean()) ** 2).mean()))
        assert gamma == pytest.approx(direct, rel=1e-12)


class TestGramSymmetric:
    def test_single_point(self):
        km = gram_symmetric([[0.3, 0.4]], KernelConfig(mode=FIDELITY_EXACT))
        assert km.values.tolist() == [[1.0]]
        assert km.symmetric

    def test_identical_points_all_ones(self):
        km = gram_symmetric([[0.3, 0.4], [0.3, 0.4]], KernelConfig(mode=FIDELITY_EXACT))
        assert np.allclose(km.values, 1.0, atol=1e-12)

    def test_matches_per_entry_recomputation(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 1, size=(10, 2))
        exact = gram_symmetric(X, EXACT).values
        rbf = gram_symmetric(X, KernelConfig(RBF, gamma=1.7)).values
        for i in range(10):
            for j in range(10):
                expected = 1.0 if i == j else overlap_fidelity(X[i], X[j])
                assert exact[i, j] == pytest.approx(expected, abs=1e-12)
                assert rbf[i, j] == pytest.approx(rbf_value(X[i], X[j], 1.7), abs=1e-12)

    def test_sampled_symmetric_by_construction(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(0, 1, size=(6, 2))
        cfg = KernelConfig(mode=FIDELITY_SAMPLED, shots=64, seed=5)
        km = gram_symmetric(X, cfg)
        assert np.array_equal(km.values, km.values.T)
        assert np.all(km.values.diagonal() == 1.0)

    def test_sampled_entries_use_pair_derived_seeds(self):
        rng = np.random.default_rng(10)
        X = rng.uniform(0, 1, size=(5, 2))
        cfg = KernelConfig(mode=FIDELITY_SAMPLED, shots=128, seed=77)
        km = gram_symmetric(X, cfg)
        for i in range(5):
            for j in range(i + 1, 5):
                expected = shot_estimate(pair_seed(77, i, j), 128, overlap_fidelity(X[i], X[j]))
                assert km.values[i, j] == expected

    def test_rbf_requires_gamma(self):
        with pytest.raises(ValueError):
            gram_symmetric([[0, 0], [1, 1]], KernelConfig(mode=RBF))

    def test_feature_dim_checked_against_map(self):
        with pytest.raises(DimensionError):
            gram_symmetric([[0.1, 0.2, 0.3]], KernelConfig(mode=FIDELITY_EXACT))

    @pytest.mark.parametrize("X", [[0.1, 0.2], np.zeros((0, 2))], ids=["1-D", "empty"])
    def test_non_matrix_input_rejected(self, X):
        with pytest.raises(DimensionError, match="non-empty 2-D matrix"):
            gram_symmetric(X, KernelConfig(RBF, gamma=1.0))


class TestGramRectangular:
    def test_same_inputs_match_symmetric(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(0, 1, size=(6, 2))
        cfg = KernelConfig(mode=FIDELITY_EXACT)
        sym = gram_symmetric(X, cfg)
        rect = gram_rectangular(X, X, cfg)
        assert not rect.symmetric
        assert np.allclose(rect.values, sym.values, atol=1e-12)

    def test_single_identical_pair(self):
        km = gram_rectangular([[0.2, 0.9]], [[0.2, 0.9]], KernelConfig(mode=FIDELITY_EXACT))
        assert km.values.shape == (1, 1)
        assert km.values[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_per_entry_recomputation(self):
        rng = np.random.default_rng(12)
        A = rng.uniform(0, 1, size=(3, 2))
        B = rng.uniform(0, 1, size=(5, 2))
        exact = gram_rectangular(A, B, EXACT).values
        rbf = gram_rectangular(A, B, KernelConfig(RBF, gamma=1.7)).values
        for i in range(3):
            for j in range(5):
                assert exact[i, j] == pytest.approx(overlap_fidelity(A[i], B[j]), abs=1e-12)
                assert rbf[i, j] == pytest.approx(rbf_value(A[i], B[j], 1.7), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            gram_rectangular([[0.1, 0.2]], [[0.1, 0.2, 0.3]], KernelConfig(mode=RBF, gamma=1.0))

    @pytest.mark.parametrize("width", range(1, 8))
    def test_rbf_blocks_equal_distance_tensor_formula(self, width):
        # The blocks sum squared distances one feature column at a time; up
        # to 7 features that is bit for bit numpy's sum over the (m, n, d)
        # tensor of squared differences, 1-row blocks included.
        def formula(A, B, gamma):
            return np.exp(-gamma * ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=-1))

        rng = np.random.default_rng(width)
        for m, n in [(1, 1), (1, 9), (9, 1), (7, 12), (12, 12)]:
            A = rng.normal(scale=3.0, size=(m, width))
            B = rng.normal(size=(n, width))
            cfg = KernelConfig(RBF, gamma=float(rng.uniform(0.05, 5.0)))
            assert np.array_equal(gram_rectangular(A, B, cfg).values, formula(A, B, cfg.gamma))
            upper = np.triu(formula(A, A, cfg.gamma), k=1)
            expected = upper + upper.T
            np.fill_diagonal(expected, 1.0)
            assert np.array_equal(gram_symmetric(A, cfg).values, expected)

    def test_exact_single_rows_equal_bulk_block_bytes(self):
        # Scaled T1 test points against scaled T0 training points, the
        # phase-1 prediction block: a point's kernel row must not depend on
        # the batch it came in.
        t0, t1 = generate_synthetic("T0_SHAPE", seed=0), generate_synthetic("T1_SHAPE", seed=0)
        scaler = fit_scaler(t0)
        X_train, X_test = apply_scaler(scaler, t0), apply_scaler(scaler, t1)
        cfg = KernelConfig(mode=FIDELITY_EXACT)
        bulk = gram_rectangular(X_test, X_train, cfg).values
        for i, x in enumerate(X_test):
            assert gram_rectangular([x], X_train, cfg).values.tobytes() == bulk[i].tobytes()


class TestInvariants:
    def test_exact_gram_positive_semidefinite(self):
        rng = np.random.default_rng(13)
        for _ in range(3):
            X = rng.uniform(0, 1, size=(40, 2))
            km = gram_symmetric(X, KernelConfig(mode=FIDELITY_EXACT))
            assert np.linalg.eigvalsh(km.values).min() >= -1e-8

    def test_compute_uncompute_matches_inner_product(self):
        # The kernel's inner products of batched states against the
        # compute-uncompute circuit's all-zeros probability.
        X, Y = np.random.default_rng(14).uniform(0, 1, size=(2, 100, 2))
        K = gram_rectangular(X, Y, EXACT).values
        for k, (x, y) in enumerate(zip(X, Y)):
            assert K[k, k] == pytest.approx(compute_uncompute_fidelity(x, y), abs=1e-10)

    def test_exact_kernel_symmetric(self):
        A, B = np.random.default_rng(15).uniform(0, 1, size=(2, 50, 2))
        assert np.allclose(gram_rectangular(A, B, EXACT).values,
                           gram_rectangular(B, A, EXACT).values.T, rtol=0, atol=1e-12)

    def test_sampled_estimator_within_concentration_bound(self):
        x, y = np.array([0.3, 0.8]), np.array([0.6, 0.2])
        exact = overlap_fidelity(x, y)
        for shots in (200, 1000):
            bound = 4 * math.sqrt(exact * (1 - exact) / shots) + 2 / shots
            for seed in range(50):
                estimate = _entry(x, y, _sampled(shots, seed))
                assert abs(estimate - exact) <= bound

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(16)
        X = rng.uniform(-3, 3, size=(15, 2))
        km = gram_symmetric(X, KernelConfig(mode=FIDELITY_EXACT))
        assert km.values.min() >= 0.0
        assert km.values.max() <= 1.0


class TestKernelConfig:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            KernelConfig(mode="poly")

    def test_sampled_needs_positive_shots(self):
        with pytest.raises(ValueError):
            KernelConfig(mode=FIDELITY_SAMPLED, shots=0)

    def test_gamma_positive_when_given(self):
        with pytest.raises(ValueError):
            KernelConfig(mode=RBF, gamma=-1.0)

    @pytest.mark.parametrize("gamma", [True, "x", "0.5", [0.5]])
    def test_gamma_must_be_a_number(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            KernelConfig(mode=RBF, gamma=gamma)

    @pytest.mark.parametrize("mode", [FIDELITY_EXACT, RBF])
    @pytest.mark.parametrize("shots", ["x", 2.5, True, -1, 2**63])
    def test_shots_must_be_an_integer_in_every_mode(self, mode, shots):
        with pytest.raises(ValueError, match="shots"):
            KernelConfig(mode=mode, shots=shots)

    @pytest.mark.parametrize("mode", [FIDELITY_EXACT, RBF])
    def test_zero_shots_outside_sampled_mode(self, mode):
        assert KernelConfig(mode=mode, shots=0).shots == 0


@pytest.mark.parametrize("kernel", [
    EXACT, _sampled(16, 0), KernelConfig(RBF, gamma=1.0),
], ids=["exact", "sampled", "rbf"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pointwise_kernels_reject_non_finite(kernel, bad):
    # A single kernel value is the one entry of a 1 x 1 block.
    with pytest.raises(ValueError, match="finite"):
        _entry([0.5, bad], [0.5, 0.5], kernel)
    with pytest.raises(ValueError, match="finite"):
        _entry([0.5, 0.5], [bad, 0.5], kernel)


def test_default_gamma_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        default_gamma([[0.0, 1.0], [np.nan, 0.5]])


# Master seeds for the batched seeding oracles: 1- and 2-word entropies
# (below and from 2**32), the ends of the masked range and a negative seed.
ORACLE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -42] + [
    int(v) for v in np.random.default_rng(2024).integers(-(2**63), 2**63 - 1, size=4)
] + [int(v) for v in np.random.default_rng(2025).integers(0, 2**32, size=2)]


def _numpy_pcg64_state(seed):
    state = np.random.default_rng(seed).bit_generator.state["state"]
    return state["state"], state["inc"]


class TestBatchedSeeding:
    """The batched SeedSequence hash, and PCG64 seeded from its keys,
    against numpy's own SeedSequence and default_rng."""

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_pair_seeds_match_seed_sequence(self, seed):
        rows, cols = np.indices((12, 12)).reshape(2, -1)
        rows = np.concatenate([rows, [0, 2**31, 2**32 - 1, 65536]])
        cols = np.concatenate([cols, [2**32 - 1, 3, 2**32 - 1, 0]])
        expected = [pair_seed(seed, int(i), int(j)) for i, j in zip(rows, cols)]
        assert _pair_seeds(seed, rows, cols).tolist() == expected

    def test_oracle_seeds_cover_both_entropy_lengths(self):
        # SeedSequence takes a masked seed below 2**32 as one uint32 word.
        words = {1 if mask_seed(s) < 2**32 else 2 for s in ORACLE_SEEDS}
        assert words == {1, 2}

    @pytest.mark.parametrize("kind", ["one-word", "two-word", "mixed"])
    def test_pcg64_states_match_default_rng(self, kind):
        # default_rng hashes a seed below 2**32 as one entropy word, else two.
        rng = np.random.default_rng(3)
        one_word = [0, 1, 5, 2**31, 2**32 - 1] + rng.integers(0, 2**32, 20).tolist()
        two_word = [2**32, 2**32 + 3, 2**63, 2**64 - 1] + rng.integers(
            2**32, 2**64, 20, dtype=np.uint64).tolist()
        seeds = {"one-word": one_word, "two-word": two_word,
                 "mixed": [s for pair in zip(one_word, two_word) for s in pair]}[kind]
        keys = _pcg64_keys(np.array(seeds, dtype=np.uint64))
        states = [np.random.PCG64(_Keys(row)).state["state"] for row in keys]
        assert [(st["state"], st["inc"]) for st in states] == [
            _numpy_pcg64_state(s) for s in seeds
        ]

    @pytest.mark.parametrize("shots", [1, 2, 8, 31, 1000, 8192])
    def test_shot_estimates_match_default_rng(self, shots):
        rng = np.random.default_rng(shots)
        p = np.concatenate([[0.0, 1.0, 1 - 1e-12, 1e-12, 0.5, 30 / shots],
                            rng.uniform(0, 1, size=200)]).clip(0, 1)
        seeds = rng.integers(0, 2**64, size=p.size, dtype=np.uint64)
        seeds[:3] = [0, 2**32 - 1, 2**64 - 1]
        expected = [shot_estimate(s, shots, pk) for s, pk in zip(seeds.tolist(), p.tolist())]
        assert _shot_estimates(p, seeds, shots).tolist() == expected

    def test_single_point_gram_has_no_sampled_entries(self):
        km = gram_symmetric([[0.3, 0.4]], KernelConfig(FIDELITY_SAMPLED, shots=8, seed=3))
        assert km.values.tolist() == [[1.0]]

    @pytest.mark.parametrize("seed", [0, -42, 2**32 + 3])
    def test_single_row_rectangular_block_matches_per_entry(self, seed):
        rng = np.random.default_rng(11)
        x, X = rng.uniform(0, 1, size=2), rng.uniform(0, 1, size=(7, 2))
        km = gram_rectangular([x], X, KernelConfig(FIDELITY_SAMPLED, shots=50, seed=seed))
        assert km.values.shape == (1, 7)
        assert km.values[0].tolist() == [
            shot_estimate(pair_seed(seed, 0, j), 50, overlap_fidelity(x, X[j])) for j in range(7)
        ]


# sha256 of the sampled T0 Gram bytes (scaled T0 at data seed 0), recorded
# from the per-entry SeedSequence / default_rng implementation. They hold for
# exactly the exact Gram below; another platform's exp/cos may move an overlap
# by an ulp, and then the oracle tests above are the check.
GOLDEN_EXACT_T0 = "67bd6b245ff4570cb927936ba9e23b60e042aff2dde9e0e3e0ddd60e00abf002"
GOLDEN_SAMPLED_T0 = {
    (1000, 0): "e798669555f96f6146f72ea832d71de454941a80fe921a575fae5aef086ecc4b",
    (8, 3): "0e6afbda8142850ea08b85a8dc0b98c682d1c9ee41b1b40029317769cb36f01b",
    (200, 5): "0123725b68c20238522bb399bae80a200ac797c3d34f2c45101bfbf823469f83",
    (1, 1): "2c3a9d9edc4d4982694bf51ab138adc2763242ceefb1f81eabfde8b653e619ca",
    (100, -42): "919fcfd41432d08f0d0339df7442ad36999d59d6533b829bb5fae5c77e4645af",
}


@pytest.fixture(scope="module")
def scaled_t0():
    t0 = generate_synthetic("T0_SHAPE", seed=0)
    return apply_scaler(fit_scaler(t0), t0)


@pytest.mark.parametrize("shots, seed", list(GOLDEN_SAMPLED_T0))
def test_sampled_gram_matches_golden_bytes(scaled_t0, shots, seed):
    exact = gram_symmetric(scaled_t0, KernelConfig(FIDELITY_EXACT)).values
    if hashlib.sha256(exact.tobytes()).hexdigest() != GOLDEN_EXACT_T0:
        pytest.skip("exact Gram bytes differ from those the digests were recorded on")
    sampled = gram_symmetric(scaled_t0, KernelConfig(FIDELITY_SAMPLED, shots=shots, seed=seed))
    assert hashlib.sha256(sampled.values.tobytes()).hexdigest() == GOLDEN_SAMPLED_T0[shots, seed]


@pytest.mark.parametrize("shots", [8, 32, 128, 1000])
@pytest.mark.parametrize("seed", [0, 3])
def test_sampled_gram_spectrum_reaches_shot_noise_edge(seed, shots):
    # The exact 2-qubit Gram has rank 16, so the sampled Gram's negative
    # spectrum is that of its shot noise, whose edge the oracle predicts from
    # the exact overlaps alone. Entries that share a seed, or whose streams
    # are correlated, move -lambda_min well outside this band.
    t0 = generate_synthetic("T0_SHAPE", seed=seed)
    X = apply_scaler(fit_scaler(t0), t0)
    edge = shot_noise_edge(gram_symmetric(X, EXACT).values, shots)
    sampled = gram_symmetric(X, _sampled(shots, seed)).values
    assert 0.9 <= -np.linalg.eigvalsh(sampled)[0] / edge <= 1.1


@pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan, 0.0])
def test_non_finite_or_non_positive_gamma_rejected(gamma):
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        KernelConfig(mode=RBF, gamma=gamma)


@pytest.mark.parametrize("shots", [0, -1, 2.5, 3.0, np.float64(4), True, False, "8",
                                   MAX_SHOTS + 1, 10**20])
def test_shots_must_be_an_int_in_range(shots):
    with pytest.raises(ValueError, match="shots must be an integer"):
        KernelConfig(mode=FIDELITY_SAMPLED, shots=shots)


@pytest.mark.parametrize("mode", [FIDELITY_EXACT, FIDELITY_SAMPLED, RBF])
@pytest.mark.parametrize("seed", [2.5, 3.0, True, "x", None])
def test_seed_must_be_an_int(mode, seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        KernelConfig(mode=mode, seed=seed)


@pytest.mark.parametrize("seed", [-(2**70), -1, np.int64(5), np.uint64(2**64 - 1), 2**70])
def test_any_integer_seed_accepted(seed):
    assert KernelConfig(mode=FIDELITY_SAMPLED, seed=seed).seed == seed


@pytest.mark.parametrize("shots", [1, np.int64(16), MAX_SHOTS])
def test_shots_range_ends_accepted(shots):
    assert KernelConfig(mode=FIDELITY_SAMPLED, shots=shots).shots == shots
    x, y = [0.5, 0.5], [0.1, 0.9]
    expected = shot_estimate(pair_seed(0, 0, 0), shots, overlap_fidelity(x, y))
    assert _entry(x, y, _sampled(shots, 0)) == expected
