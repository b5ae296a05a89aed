"""Gate-by-gate statevector simulator for the H / PHASE / CX gate set, and
the feature-map circuits on it: the reference that the batched
``feature_map.statevectors`` must equal bit for bit, one sample at a time.

It shares only the basis conventions of ``gnss_qsvm.sim`` (the qubit cap
and the Hadamard factor) and ``FeatureMapConfig`` with the package, so it
runs none of the engine's code (``tests/test_oracles.py`` checks this).
Indices are little-endian: qubit 0 is the least-significant bit of the
amplitude index.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from gnss_qsvm.errors import DimensionError
from gnss_qsvm.feature_map import FeatureMapConfig
from gnss_qsvm.sim import _SQRT1_2, MAX_QUBITS

NORM_TOL = 1e-10

GATE_KINDS = ("H", "PHASE", "CX")


class InvalidGateError(ValueError):
    """Gate is malformed or addresses qubits outside the register."""


@dataclass(frozen=True)
class Gate:
    """One gate application: H, PHASE(theta), or CX(control -> target)."""

    kind: str
    target: int
    control: int | None = None
    theta: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise InvalidGateError(f"unknown gate kind {self.kind!r}")
        if self.target < 0:
            raise InvalidGateError(f"target must be >= 0, got {self.target}")
        if self.kind == "CX":
            if self.control is None:
                raise InvalidGateError("CX requires a control qubit")
            if self.control < 0:
                raise InvalidGateError(f"control must be >= 0, got {self.control}")
            if self.control == self.target:
                raise InvalidGateError("CX control and target must differ")
        elif self.control is not None:
            raise InvalidGateError(f"{self.kind} takes no control qubit")
        if self.kind == "PHASE":
            if self.theta is None:
                raise InvalidGateError("PHASE requires an angle")
        elif self.theta is not None:
            raise InvalidGateError(f"{self.kind} takes no angle")


def hadamard(target: int) -> Gate:
    return Gate("H", target)


def phase(theta: float, target: int) -> Gate:
    return Gate("PHASE", target, theta=float(theta))


def cnot(control: int, target: int) -> Gate:
    return Gate("CX", target, control=control)


def _check_width(num_qubits: int) -> None:
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}], got {num_qubits}")


@dataclass(eq=False)
class QuantumState:
    """Unit-norm dense amplitude vector over ``num_qubits`` qubits."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_width(self.num_qubits)
        amps = np.asarray(self.amplitudes, dtype=complex)
        dim = 1 << self.num_qubits
        if amps.shape != (dim,):
            raise DimensionError(
                f"amplitude vector must have length {dim}, got shape {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        self.amplitudes = amps


def zero_state(num_qubits: int) -> QuantumState:
    """The all-|0> computational basis state."""
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[0] = 1.0
    return QuantumState(num_qubits, amps)


@dataclass(eq=False)
class Circuit:
    """Ordered gate sequence acting on a fixed-width register."""

    num_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        _check_width(self.num_qubits)
        self.gates = list(self.gates)
        for gate in self.gates:
            for role, qubit in (("target", gate.target), ("control", gate.control)):
                if qubit is not None and qubit >= self.num_qubits:
                    raise InvalidGateError(
                        f"{role} {qubit} out of range for {self.num_qubits} qubit(s)"
                    )


def _apply_inplace(amps: np.ndarray, gate: Gate) -> None:
    # amps is a full 2^n amplitude vector; indices are little-endian.
    dim = amps.shape[0]
    t_mask = 1 << gate.target
    idx = np.arange(dim)
    if gate.kind == "H":
        lo = idx[(idx & t_mask) == 0]
        hi = lo | t_mask
        a, b = amps[lo], amps[hi]
        amps[lo] = (a + b) * _SQRT1_2
        amps[hi] = (a - b) * _SQRT1_2
    elif gate.kind == "PHASE":
        sel = (idx & t_mask) != 0
        amps[sel] *= np.exp(1j * gate.theta)
    else:  # CX
        c_mask = 1 << gate.control
        src = idx[((idx & c_mask) != 0) & ((idx & t_mask) == 0)]
        dst = src | t_mask
        amps[src], amps[dst] = amps[dst], amps[src]


def run_circuit(circuit: Circuit, initial: QuantumState) -> QuantumState:
    """Apply the circuit's gates in list order starting from ``initial``."""
    if circuit.num_qubits != initial.num_qubits:
        raise DimensionError(
            f"circuit acts on {circuit.num_qubits} qubit(s) but state has "
            f"{initial.num_qubits}"
        )
    amps = initial.amplitudes.copy()
    for gate in circuit.gates:
        _apply_inplace(amps, gate)
    return QuantumState(circuit.num_qubits, amps)


def build_circuit(x, config: FeatureMapConfig) -> Circuit:
    """Feature map circuit for ``x``; deterministic gate-for-gate."""
    x = np.asarray(x, dtype=float)
    if x.shape != (config.num_features,):
        raise DimensionError(
            f"expected {config.num_features} feature(s), got shape {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("feature values must be finite")
    n = config.num_features
    gates = []
    for _ in range(config.repetitions):
        for q in range(n):
            gates.append(hadamard(q))
        for q in range(n):
            gates.append(phase(2.0 * x[q], q))
        for i, j in config.pairs():
            gates.append(cnot(i, j))
            gates.append(phase(2.0 * ((math.pi - x[i]) * (math.pi - x[j])), j))
            gates.append(cnot(i, j))
    return Circuit(n, gates)


def map_to_state(x, config: FeatureMapConfig) -> QuantumState:
    """Run the feature map circuit on |0...0>."""
    return run_circuit(build_circuit(x, config), zero_state(config.num_features))
