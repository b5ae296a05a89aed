"""Second-order (ZZ-interaction) feature map.

A feature vector x is encoded by repeating, per repetition: a Hadamard
layer, single-qubit phases 2*x_i, and for each entangled pair (i, j) the
block CX(i->j), PHASE(2*(pi - x_i)*(pi - x_j)) on j, CX(i->j). One qubit
per feature. The kernels take their states from the batched
:func:`statevectors`; :func:`map_to_state` runs the same gates on the ``sim``
gate simulator, one sample at a time, as the reference for the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import _check_int
from .errors import DimensionError
from .sim import (_SQRT1_2, MAX_QUBITS, Circuit, QuantumState, cnot, hadamard, phase,
                  run_circuit, zero_state)

ENTANGLEMENTS = ("full", "linear")


@dataclass(frozen=True)
class FeatureMapConfig:
    num_features: int
    repetitions: int = 2
    entanglement: str = "full"

    def __post_init__(self):
        _check_int(self.num_features, "num_features", 1, MAX_QUBITS)
        _check_int(self.repetitions, "repetitions", 1)
        if self.entanglement not in ENTANGLEMENTS:
            raise ValueError(
                f"entanglement must be one of {ENTANGLEMENTS}, got "
                f"{self.entanglement!r}"
            )

    def pairs(self) -> list[tuple[int, int]]:
        """Qubit pairs receiving an entangling block, enumerated i < j."""
        n = self.num_features
        if self.entanglement == "full":
            return [(i, j) for i in range(n) for j in range(i + 1, n)]
        return [(i, i + 1) for i in range(n - 1)]


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


def statevectors(X, config: FeatureMapConfig) -> np.ndarray:
    """Feature-map states of every row of ``X``, shape (m, 2**n): the gates
    of :func:`build_circuit` applied to all rows at once with the simulator's
    arithmetic, so that for two or more features each row equals
    :func:`map_to_state` bit for bit."""
    X = np.asarray(X, dtype=float)
    n = config.num_features
    if X.ndim != 2 or X.shape[1] != n:
        raise DimensionError(f"expected an (m, {n}) feature matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("feature values must be finite")
    bit = [(np.arange(1 << n) >> q) & 1 == 1 for q in range(n)]
    # PHASE multiplies the amplitudes whose target bit is set; a
    # CX . PHASE . CX block multiplies those where z_i != z_j.
    factors = [(bit[q], np.exp(1j * (2.0 * X[:, q]))) for q in range(n)] + [
        (bit[i] != bit[j], np.exp(1j * (2.0 * ((math.pi - X[:, i]) * (math.pi - X[:, j])))))
        for i, j in config.pairs()
    ]
    states = np.zeros((X.shape[0], 1 << n), dtype=complex)
    states[:, 0] = 1.0
    for _ in range(config.repetitions):
        for q in range(n):
            a, b = states[:, ~bit[q]], states[:, bit[q]]
            states[:, ~bit[q]] = (a + b) * _SQRT1_2
            states[:, bit[q]] = (a - b) * _SQRT1_2
        for mask, factor in factors:
            states[:, mask] *= factor[:, None]
    return states
