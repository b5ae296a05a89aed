import math

import numpy as np
import pytest

from gnss_qsvm.errors import DimensionError

from gatesim import (
    Circuit,
    Gate,
    InvalidGateError,
    QuantumState,
    cnot,
    hadamard,
    phase,
    run_circuit,
    zero_state,
)

SQRT1_2 = 1.0 / math.sqrt(2.0)


def random_state(num_qubits: int, rng) -> QuantumState:
    v = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return QuantumState(num_qubits, v / np.linalg.norm(v))


def random_gate(num_qubits: int, rng) -> Gate:
    kind = rng.choice(["H", "PHASE", "CX"] if num_qubits > 1 else ["H", "PHASE"])
    target = int(rng.integers(num_qubits))
    if kind == "H":
        return hadamard(target)
    if kind == "PHASE":
        return phase(float(rng.uniform(-2 * math.pi, 2 * math.pi)), target)
    control = int(rng.integers(num_qubits - 1))
    if control >= target:
        control += 1
    return cnot(control, target)


def apply_gate(state: QuantumState, gate: Gate) -> QuantumState:
    """One gate, as a one-gate circuit."""
    return run_circuit(Circuit(state.num_qubits, [gate]), state)


class TestApplyGate:
    def test_hadamard_on_zero(self):
        out = apply_gate(zero_state(1), hadamard(0))
        assert np.allclose(out.amplitudes, [SQRT1_2, SQRT1_2])

    def test_phase_pi_flips_sign_of_one(self):
        one = QuantumState(1, np.array([0.0, 1.0], dtype=complex))
        out = apply_gate(one, phase(math.pi, 0))
        assert np.allclose(out.amplitudes, [0.0, -1.0])

    def test_cnot_truth_table_little_endian(self):
        # |01> has qubit 0 set -> control fires, qubit 1 flips -> |11>
        state = QuantumState(2, np.array([0, 1, 0, 0], dtype=complex))
        out = apply_gate(state, cnot(0, 1))
        assert np.allclose(out.amplitudes, [0, 0, 0, 1])

    def test_input_state_is_untouched(self):
        state = zero_state(1)
        apply_gate(state, hadamard(0))
        assert np.allclose(state.amplitudes, [1.0, 0.0])

    def test_out_of_range_target_rejected(self):
        with pytest.raises(InvalidGateError):
            apply_gate(zero_state(1), hadamard(1))

    def test_out_of_range_control_rejected(self):
        with pytest.raises(InvalidGateError):
            apply_gate(zero_state(2), cnot(2, 0))


class TestGateValidation:
    def test_cx_needs_distinct_qubits(self):
        with pytest.raises(InvalidGateError):
            cnot(1, 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidGateError):
            Gate("SWAP", 0)

    def test_phase_needs_angle(self):
        with pytest.raises(InvalidGateError):
            Gate("PHASE", 0)


class TestRunCircuit:
    def test_empty_circuit_is_identity(self):
        rng = np.random.default_rng(1)
        state = random_state(2, rng)
        out = run_circuit(Circuit(2, []), state)
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_double_hadamard_cancels(self):
        out = run_circuit(Circuit(1, [hadamard(0), hadamard(0)]), zero_state(1))
        assert np.allclose(out.amplitudes, [1.0, 0.0], atol=1e-10)

    def test_qubit_count_mismatch(self):
        with pytest.raises(DimensionError):
            run_circuit(Circuit(2, []), zero_state(1))

    def test_gates_applied_in_list_order(self):
        # PHASE then H differs from H then PHASE on |0>.
        a = run_circuit(Circuit(1, [hadamard(0), phase(0.7, 0)]), zero_state(1))
        b = run_circuit(Circuit(1, [phase(0.7, 0), hadamard(0)]), zero_state(1))
        assert not np.allclose(a.amplitudes, b.amplitudes)
        assert np.allclose(a.amplitudes, [SQRT1_2, SQRT1_2 * np.exp(0.7j)])


class TestStateValidation:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            QuantumState(1, np.array([1.0, 1.0], dtype=complex))

    def test_length_enforced(self):
        with pytest.raises(DimensionError):
            QuantumState(2, np.array([1.0, 0.0], dtype=complex))

    def test_qubit_cap_enforced(self):
        with pytest.raises(ValueError):
            zero_state(11)


class TestInvariants:
    def test_unitarity_over_random_circuits(self):
        rng = np.random.default_rng(2718)
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            circuit = Circuit(n, [random_gate(n, rng) for _ in range(int(rng.integers(1, 12)))])
            out = run_circuit(circuit, random_state(n, rng))
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10

    def test_gate_algebra_self_inverses(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            state = random_state(2, rng)
            hh = apply_gate(apply_gate(state, hadamard(1)), hadamard(1))
            assert np.allclose(hh.amplitudes, state.amplitudes, atol=1e-10)
            cc = apply_gate(apply_gate(state, cnot(0, 1)), cnot(0, 1))
            assert np.allclose(cc.amplitudes, state.amplitudes, atol=1e-10)
            theta = float(rng.uniform(-6, 6))
            pp = apply_gate(apply_gate(state, phase(theta, 0)), phase(-theta, 0))
            assert np.allclose(pp.amplitudes, state.amplitudes, atol=1e-10)

    def test_phase_periodicity(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            state = random_state(2, rng)
            theta = float(rng.uniform(-10, 10))
            a = apply_gate(state, phase(theta, 1))
            b = apply_gate(state, phase(theta + 2 * math.pi, 1))
            assert np.allclose(a.amplitudes, b.amplitudes, atol=1e-10)
