import math

import numpy as np
import pytest

from gnss_qsvm import feature_map
from gnss_qsvm.errors import DimensionError, InvalidInputError
from gnss_qsvm.feature_map import FeatureMapConfig, statevectors
from gnss_qsvm.evaluate import grid_centers
from gnss_qsvm.sim import MAX_QUBITS

from gatesim import QuantumState, build_circuit, map_to_state, run_circuit
from oracles import mapped_state, second_order_map_unitary

FM2 = FeatureMapConfig(num_features=2)

# map_to_state((0.5, 0.5), reps=2), frozen from the independent
# matrix-product oracle in oracles.py.
GOLDEN_STATE_05_05 = np.array(
    [
        -0.21921934348946154 + 0.5688527502072237j,
        -0.10330067150115227 + 0.40785699189275115j,
        -0.10330067150115226 + 0.4078569918927512j,
        -0.10886632300231697 + 0.5123093231641374j,
    ]
)


def _phases(x):
    """phi_i per qubit and phi_ij per entangled pair, read back from the
    PHASE angles 2*phi of one repetition of build_circuit."""
    gates = build_circuit(x, FeatureMapConfig(num_features=len(x), repetitions=1)).gates
    single, pairwise = [], {}
    for before, gate in zip([None] + gates, gates):
        if gate.kind == "PHASE" and before is not None and before.kind == "CX":
            pairwise[(before.control, gate.target)] = gate.theta / 2
        elif gate.kind == "PHASE":
            single.append(gate.theta / 2)
    return np.array(single), pairwise


class TestComputePhases:
    """The data-to-phase formulas of build_circuit: phi_i = x_i and
    phi_ij = (pi - x_i) * (pi - x_j)."""

    def test_pi_inputs_zero_the_pair_phase(self):
        single, pairwise = _phases([math.pi, math.pi])
        assert np.allclose(single, [math.pi, math.pi])
        assert pairwise[(0, 1)] == pytest.approx(0.0)

    def test_zero_inputs_give_pi_squared(self):
        single, pairwise = _phases([0.0, 0.0])
        assert np.allclose(single, [0.0, 0.0])
        assert pairwise[(0, 1)] == pytest.approx(math.pi**2)

    def test_half_inputs(self):
        _, pairwise = _phases([0.5, 0.5])
        assert pairwise[(0, 1)] == pytest.approx((math.pi - 0.5) ** 2)

    def test_one_entry_per_unordered_pair(self):
        _, pairwise = _phases([0.1, 0.2, 0.3])
        assert set(pairwise) == {(0, 1), (0, 2), (1, 2)}

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            build_circuit([0.1, math.nan], FM2)
        with pytest.raises(ValueError):
            build_circuit([math.inf, 0.0], FM2)


class TestBuildCircuit:
    def test_gate_count_two_features_two_reps(self):
        # per repetition: 2 H + 2 PHASE + (CX, PHASE, CX)
        circuit = build_circuit([0.3, 0.7], FM2)
        assert len(circuit.gates) == 14

    def test_pi_inputs_reduce_to_hadamards(self):
        circuit = build_circuit(
            [math.pi, math.pi], FeatureMapConfig(num_features=2, repetitions=1)
        )
        produced = run_circuit(circuit, _basis(0)).amplitudes
        assert np.allclose(produced, [0.5, 0.5, 0.5, 0.5], atol=1e-10)

    def test_unitary_matches_matrix_oracle(self):
        oracle = second_order_map_unitary([0.5, 0.9], repetitions=2)
        circuit = build_circuit([0.5, 0.9], FM2)
        columns = [run_circuit(circuit, _basis(k)).amplitudes for k in range(4)]
        assert np.allclose(np.stack(columns, axis=1), oracle, atol=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            build_circuit([0.1, 0.2, 0.3], FM2)

    def test_deterministic_gate_for_gate(self):
        a = build_circuit([0.12, 0.34], FM2)
        b = build_circuit([0.12, 0.34], FM2)
        assert a.gates == b.gates

    def test_linear_entanglement_pairs(self):
        cfg = FeatureMapConfig(num_features=4, repetitions=1, entanglement="linear")
        assert cfg.pairs() == [(0, 1), (1, 2), (2, 3)]


class TestMapToState:
    def test_pi_inputs_return_to_zero(self):
        state = map_to_state([math.pi, math.pi], FM2)
        expected = np.zeros(4)
        expected[0] = 1.0
        assert np.allclose(state.amplitudes, expected, atol=1e-10)

    def test_unit_norm_for_any_input(self):
        state = map_to_state([12.3, -4.5], FM2)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10

    def test_golden_amplitudes(self):
        state = map_to_state([0.5, 0.5], FM2)
        assert np.allclose(state.amplitudes, GOLDEN_STATE_05_05, atol=1e-12)


class TestInvariants:
    def test_norm_preserved_over_random_inputs(self):
        rng = np.random.default_rng(321)
        for _ in range(1000):
            x = rng.uniform(-2 * math.pi, 2 * math.pi, size=2)
            state = map_to_state(x, FM2)
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10

    def test_phase_argument_periodicity(self):
        # Adding 2*pi to any one phase gate leaves the mapped state alone.
        rng = np.random.default_rng(55)
        for _ in range(20):
            x = rng.uniform(0, 1, size=2)
            base = build_circuit(x, FM2)
            reference = run_circuit(base, _basis(0)).amplitudes
            phase_positions = [
                i for i, gate in enumerate(base.gates) if gate.kind == "PHASE"
            ]
            bump = int(rng.choice(phase_positions))
            gates = list(base.gates)
            gates[bump] = type(gates[bump])(
                "PHASE", gates[bump].target, theta=gates[bump].theta + 2 * math.pi
            )
            bumped = run_circuit(type(base)(2, gates), _basis(0)).amplitudes
            assert np.allclose(bumped, reference, atol=1e-10)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FeatureMapConfig(num_features=0)
        with pytest.raises(ValueError):
            FeatureMapConfig(num_features=2, repetitions=0)
        with pytest.raises(ValueError):
            FeatureMapConfig(num_features=2, entanglement="ring")

    def test_qubit_cap(self):
        assert FeatureMapConfig(num_features=MAX_QUBITS).num_features == MAX_QUBITS
        with pytest.raises(ValueError):
            FeatureMapConfig(num_features=MAX_QUBITS + 1)

    @pytest.mark.parametrize("field", ["num_features", "repetitions"])
    @pytest.mark.parametrize("value", [2.5, 2.0, np.float64(2), True, "2"],
                             ids=["2.5", "2.0", "float64", "True", "str"])
    def test_integer_fields_reject_non_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            FeatureMapConfig(**{"num_features": 2, field: value})

    @pytest.mark.parametrize("field", ["num_features", "repetitions"])
    def test_integer_fields_accept_numpy_integers(self, field):
        config = FeatureMapConfig(**{"num_features": 2, field: np.int64(3)})
        assert getattr(config, field) == 3


class TestStatevectors:
    """The batched engine against the gate simulator and the matrix oracle."""

    @pytest.mark.parametrize("points", ["grid", "random"])
    def test_rows_equal_gate_simulator_bit_for_bit(self, points):
        if points == "grid":
            centers = grid_centers(0.0, 1.0, 100)
            X = np.column_stack([np.tile(centers, 100), np.repeat(centers, 100)])
        else:
            X = np.random.default_rng(71).uniform(-2 * math.pi, 2 * math.pi, size=(500, 2))
        batched = statevectors(X, FM2)
        reference = np.array([map_to_state(x, FM2).amplitudes for x in X])
        assert np.array_equal(batched.view(np.float64), reference.view(np.float64))

    @pytest.mark.parametrize("entanglement", ["full", "linear"])
    @pytest.mark.parametrize("repetitions", [1, 2, 3])
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_matches_oracle_and_simulator(self, width, repetitions, entanglement):
        cfg = FeatureMapConfig(width, repetitions, entanglement)
        X = np.random.default_rng(width * 10 + repetitions).uniform(
            -2 * math.pi, 2 * math.pi, size=(12, width)
        )
        batched = statevectors(X, cfg)
        oracle = np.array([mapped_state(x, repetitions, entanglement) for x in X])
        assert batched.shape == (12, 1 << width)
        assert np.max(np.abs(batched - oracle)) <= 1e-12
        reference = np.array([map_to_state(x, cfg).amplitudes for x in X])
        if width >= 2:
            # A one-element in-place multiply takes numpy's scalar loop in
            # the simulator, so width 1 agrees only to about 1e-16.
            assert np.array_equal(batched.view(np.float64), reference.view(np.float64))
        else:
            assert np.max(np.abs(batched - reference)) <= 1e-15

    @pytest.mark.parametrize("width, entanglement", [(2, "full"), (3, "full"), (4, "linear")])
    def test_stacked_rows_equal_per_part_calls_bit_for_bit(self, width, entanglement):
        # kernels._block builds both sides of a rectangular block in one call
        # and splits it, which relies on every row being computed on its own.
        cfg = FeatureMapConfig(width, 2, entanglement)
        rng = np.random.default_rng(width)
        parts = [rng.uniform(-2 * math.pi, 2 * math.pi, size=(m, width)) for m in (1, 7, 30)]
        stacked = statevectors(np.concatenate(parts), cfg)
        per_part = np.concatenate([statevectors(p, cfg) for p in parts])
        assert stacked.tobytes() == per_part.tobytes()

    @pytest.mark.parametrize("entanglement", ["full", "linear"])
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_one_row_call_equals_bulk_row_bit_for_bit(self, width, entanglement):
        # A one-element complex multiply takes numpy's scalar loop, which
        # rounds differently from the vector loop a bulk call gets.
        cfg = FeatureMapConfig(width, 2, entanglement)
        X = np.random.default_rng(40 + width).uniform(-2 * math.pi, 2 * math.pi, size=(9, width))
        bulk = statevectors(X, cfg)
        for k, row in enumerate(X):
            assert statevectors(row[None], cfg).tobytes() == bulk[k : k + 1].tobytes()

    @pytest.mark.parametrize("entanglement", ["full", "linear"])
    @pytest.mark.parametrize("width", [2, 3, 4])
    @pytest.mark.parametrize("rows", [2, 3])
    def test_shortest_vector_loop_batches_equal_gate_simulator(self, rows, width, entanglement):
        # Two and three rows are the shortest batches that numpy's vector
        # loop multiplies, and every row starts from the plan's amplitudes,
        # which come from a two-column batch.
        for repetitions in (1, 2, 3):
            cfg = FeatureMapConfig(width, repetitions, entanglement)
            X = np.random.default_rng(rows + width).uniform(-2 * math.pi, 2 * math.pi,
                                                            size=(rows, width))
            reference = np.array([map_to_state(x, cfg).amplitudes for x in X])
            assert np.array_equal(statevectors(X, cfg).view(np.float64),
                                  reference.view(np.float64))

    def test_interleaved_configs_keep_the_states_of_their_first_call(self):
        # Each config's plan is built on its first call; no later call, of
        # that config or any other, may change what it returns.
        configs = [FeatureMapConfig(w, r, e) for w in (1, 2, 3, 4) for r in (1, 2, 3)
                   for e in ("full", "linear")]
        X = np.random.default_rng(8).uniform(-2 * math.pi, 2 * math.pi, size=(5, 4))
        first = {cfg: statevectors(X[:, :cfg.num_features], cfg).tobytes() for cfg in configs}
        order = np.random.default_rng(9).permutation(2 * len(configs)) % len(configs)
        for k in order.tolist():
            cfg = configs[k]
            n = cfg.num_features
            assert statevectors(X[:, :n], cfg).tobytes() == first[cfg]
            assert statevectors(X[:1, :n], cfg).tobytes() == first[cfg][:16 << n]  # one row

    def test_plan_arrays_are_read_only(self):
        # A caller who reaches the shared amplitudes cannot corrupt later calls.
        cfg = FeatureMapConfig(3, 2, "linear")
        before = statevectors([[0.1, 0.2, 0.3]], cfg).tobytes()
        (first,) = [a for a in feature_map._plan(cfg) if isinstance(a, np.ndarray)]
        with pytest.raises(ValueError, match="read-only"):
            first[...] = 0
        assert statevectors([[0.1, 0.2, 0.3]], cfg).tobytes() == before

    @pytest.mark.parametrize("rows", [1, 2, 37])
    def test_returns_c_contiguous_rows(self, rows):
        X = np.random.default_rng(rows).uniform(0.0, 1.0, size=(rows, 2))
        states = statevectors(X, FM2)
        assert states.shape == (rows, 4)
        assert states.flags.c_contiguous

    def test_width_must_match_map(self):
        with pytest.raises(DimensionError):
            statevectors([[0.1, 0.2, 0.3]], FM2)
        with pytest.raises(DimensionError):
            statevectors([0.1, 0.2], FM2)
        with pytest.raises(DimensionError):
            statevectors(np.zeros((0, 2)), FM2)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            statevectors([[0.1, math.nan]], FM2)

    def test_entry_that_is_no_number_rejected(self):
        with pytest.raises(InvalidInputError, match="expected numbers, got 'b'"):
            statevectors([["a", "b"]], FM2)


def _basis(index: int) -> QuantumState:
    amps = np.zeros(4, dtype=complex)
    amps[index] = 1.0
    return QuantumState(2, amps)
