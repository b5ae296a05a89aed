import math

import numpy as np
import pytest

from gnss_qsvm.data import Dataset, apply_scaler, fit_scaler, generate_synthetic
from gnss_qsvm.errors import DegenerateDataError, DimensionError
from gnss_qsvm.feature_map import FeatureMapConfig, map_to_state
from gnss_qsvm.kernels import (
    FIDELITY_EXACT,
    FIDELITY_SAMPLED,
    RBF,
    KernelConfig,
    default_gamma,
    fidelity_exact,
    fidelity_sampled,
    gram_rectangular,
    gram_symmetric,
    pair_seed,
    rbf,
    save_kernel_csv,
)
from gnss_qsvm.sim import inner_product

from oracles import second_order_map_unitary

FM2 = FeatureMapConfig(num_features=2)

# fidelity_exact((0.5, 0.5), (0.1, 0.9)), frozen from the statevector
# inner-product oracle |<psi(y)|psi(x)>|^2.
GOLDEN_FIDELITY = 0.31806752067069

# default_gamma on the scaled 193-sample T0+T1 synthetic pool at seed 0,
# frozen from evaluating 1/(d * pooled variance) directly.
GOLDEN_GAMMA = 6.619457406598038


class TestFidelityExact:
    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.uniform(0, 1, size=2)
            assert fidelity_exact(x, x, FM2) == pytest.approx(1.0, abs=1e-10)

    def test_pi_pair(self):
        assert fidelity_exact([math.pi, math.pi], [math.pi, math.pi], FM2) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_golden_value(self):
        value = fidelity_exact([0.5, 0.5], [0.1, 0.9], FM2)
        assert value == pytest.approx(GOLDEN_FIDELITY, abs=1e-12)
        assert 0.0 < value < 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            fidelity_exact([0.1], [0.1, 0.2], FM2)


class TestFidelitySampled:
    def test_identical_inputs_always_one(self):
        for shots in (1, 10, 1000):
            assert fidelity_sampled([0.4, 0.6], [0.4, 0.6], FM2, shots, seed=3) == 1.0

    def test_golden_seeded_estimate(self):
        estimate = fidelity_sampled([0.5, 0.5], [0.1, 0.9], FM2, 100000, seed=7)
        assert estimate == 0.31785
        assert abs(estimate - GOLDEN_FIDELITY) < 0.01

    def test_single_shot_is_bernoulli(self):
        values = {
            fidelity_sampled([0.5, 0.5], [0.1, 0.9], FM2, 1, seed=s) for s in range(20)
        }
        assert values <= {0.0, 1.0}
        assert len(values) == 2  # both outcomes occur across seeds

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            fidelity_sampled([0.5, 0.5], [0.1, 0.9], FM2, 0, seed=0)

    def test_negative_seed_accepted(self):
        # Seeds are taken modulo 2**64, as SeedSequence needs them unsigned.
        x, y = [0.5, 0.5], [0.1, 0.9]
        estimate = fidelity_sampled(x, y, FM2, 100, seed=-42)
        assert estimate == fidelity_sampled(x, y, FM2, 100, seed=(1 << 64) - 42)

    @pytest.mark.parametrize("shots", [1, 8, 1000])
    def test_equals_all_zeros_count_of_circuit_histogram(self, shots):
        # Reference: the full outcome histogram of the compute-uncompute
        # circuit U(y)^-1 U(x) |0...0>, drawn with the same seed; the
        # estimate must be its all-zeros count over the shots.
        rng = np.random.default_rng(shots)
        for seed in range(300):
            x, y = rng.uniform(0, 1, size=(2, 2))
            column = second_order_map_unitary(y).conj().T @ second_order_map_unitary(x)[:, 0]
            probs = np.abs(column) ** 2
            counts = np.random.default_rng(seed).multinomial(shots, probs / probs.sum())
            assert fidelity_sampled(x, y, FM2, shots, seed) == counts[0] / shots


class TestRbf:
    def test_self_similarity(self):
        assert rbf([1.2, 3.4], [1.2, 3.4], gamma=0.7) == 1.0

    def test_unit_distance(self):
        assert rbf([0, 0], [1, 0], gamma=1.0) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_three_four_five(self):
        assert rbf([0, 0], [3, 4], gamma=0.1) == pytest.approx(math.exp(-2.5), abs=1e-12)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            rbf([0, 0], [1, 1], gamma=0.0)


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
        km = gram_symmetric(X, KernelConfig(mode=FIDELITY_EXACT))
        for i in range(10):
            for j in range(10):
                expected = 1.0 if i == j else fidelity_exact(X[i], X[j], FM2)
                assert km.values[i, j] == pytest.approx(expected, abs=1e-12)

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
                expected = fidelity_sampled(
                    X[i], X[j], FM2, 128, pair_seed(77, i, j)
                )
                assert km.values[i, j] == expected

    def test_rbf_requires_gamma(self):
        with pytest.raises(ValueError):
            gram_symmetric([[0, 0], [1, 1]], KernelConfig(mode=RBF))

    def test_feature_dim_checked_against_map(self):
        with pytest.raises(DimensionError):
            gram_symmetric([[0.1, 0.2, 0.3]], KernelConfig(mode=FIDELITY_EXACT))


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
        km = gram_rectangular(A, B, KernelConfig(mode=FIDELITY_EXACT))
        for i in range(3):
            for j in range(5):
                assert km.values[i, j] == pytest.approx(
                    fidelity_exact(A[i], B[j], FM2), abs=1e-12
                )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            gram_rectangular([[0.1, 0.2]], [[0.1, 0.2, 0.3]], KernelConfig(mode=RBF, gamma=1.0))


class TestInvariants:
    def test_exact_gram_positive_semidefinite(self):
        rng = np.random.default_rng(13)
        for _ in range(3):
            X = rng.uniform(0, 1, size=(40, 2))
            km = gram_symmetric(X, KernelConfig(mode=FIDELITY_EXACT))
            assert np.linalg.eigvalsh(km.values).min() >= -1e-8

    def test_compute_uncompute_matches_inner_product(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            x = rng.uniform(0, 1, size=2)
            y = rng.uniform(0, 1, size=2)
            direct = abs(inner_product(map_to_state(y, FM2), map_to_state(x, FM2))) ** 2
            assert fidelity_exact(x, y, FM2) == pytest.approx(direct, abs=1e-10)

    def test_exact_kernel_symmetric(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            x = rng.uniform(0, 1, size=2)
            y = rng.uniform(0, 1, size=2)
            assert fidelity_exact(x, y, FM2) == pytest.approx(
                fidelity_exact(y, x, FM2), abs=1e-12
            )

    def test_sampled_estimator_within_concentration_bound(self):
        x, y = np.array([0.3, 0.8]), np.array([0.6, 0.2])
        exact = fidelity_exact(x, y, FM2)
        for shots in (200, 1000):
            bound = 4 * math.sqrt(exact * (1 - exact) / shots) + 2 / shots
            for seed in range(50):
                estimate = fidelity_sampled(x, y, FM2, shots, seed)
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


def test_csv_export_round_trips_at_17_digits(tmp_path):
    rng = np.random.default_rng(17)
    X = rng.uniform(0, 1, size=(4, 2))
    km = gram_symmetric(X, KernelConfig(mode=FIDELITY_EXACT))
    path = tmp_path / "gram.csv"
    save_kernel_csv(km, path)
    loaded = np.array(
        [[float(v) for v in line.split(",")] for line in path.read_text().splitlines()]
    )
    assert np.array_equal(loaded, km.values)


@pytest.mark.parametrize("kernel", [
    lambda x, y: fidelity_exact(x, y, FM2),
    lambda x, y: fidelity_sampled(x, y, FM2, 16, 0),
    lambda x, y: rbf(x, y, 1.0),
], ids=["exact", "sampled", "rbf"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pointwise_kernels_reject_non_finite(kernel, bad):
    with pytest.raises(ValueError, match="finite"):
        kernel([0.5, bad], [0.5, 0.5])
    with pytest.raises(ValueError, match="finite"):
        kernel([0.5, 0.5], [bad, 0.5])


def test_default_gamma_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        default_gamma([[0.0, 1.0], [np.nan, 0.5]])
