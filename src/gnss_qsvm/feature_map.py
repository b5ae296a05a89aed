"""Second-order (ZZ-interaction) feature map.

A feature vector x is encoded by repeating, per repetition: a Hadamard
layer, single-qubit phases 2*x_i, and for each entangled pair (i, j) the
block CX(i->j), PHASE(2*(pi - x_i)*(pi - x_j)) on j, CX(i->j). One qubit
per feature. :func:`statevectors` builds the states of a whole batch at
once; the kernels take their states from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import _check_int, _check_matrix
from .errors import InvalidSettingError
# The gate-by-gate reference in tests/gatesim.py takes the same conventions
# from gnss_qsvm.sim, so its states can equal these bit for bit.
from .sim import _SQRT1_2, MAX_QUBITS

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
            raise InvalidSettingError(
                f"entanglement must be one of {ENTANGLEMENTS}, got "
                f"{self.entanglement!r}"
            )

    def pairs(self) -> list[tuple[int, int]]:
        """Qubit pairs receiving an entangling block, enumerated i < j."""
        n = self.num_features
        if self.entanglement == "full":
            return [(i, j) for i in range(n) for j in range(i + 1, n)]
        return [(i, i + 1) for i in range(n - 1)]


def statevectors(X, config: FeatureMapConfig) -> np.ndarray:
    """Feature-map states of every row of ``X``, shape (m, 2**n): the gates
    of the module docstring applied to all rows at once with the arithmetic
    of the gate-by-gate simulator in ``tests/gatesim.py``, so that for two
    or more features each row equals a run of the circuit on that
    simulator bit for bit.

    The states are held amplitude-major, (2**n, m), and reshaped to one axis
    per qubit, so that the halves a gate acts on are basic-slice views and
    every gate is an in-place operation on whole rows of samples. numpy
    multiplies a one-element complex row in its scalar loop, which rounds
    differently from the vector loop of any longer row, so a one-row call
    runs on the row doubled and keeps one."""
    n = config.num_features
    X = _check_matrix(X, width=n)
    m = len(X)
    if m == 1:
        X = np.repeat(X, 2, axis=0)
    states = np.zeros((1 << n, len(X)), dtype=complex)
    states[0] = 1.0
    # Little-endian: qubit q is axis n - 1 - q. half((q, v), ...) is the view
    # of the amplitudes whose bit q is v for every pair given.
    qubits = states.reshape((2,) * n + (-1,))

    def half(*bits):
        index = [slice(None)] * n
        for q, v in bits:
            index[n - 1 - q] = v
        return qubits[tuple(index)]

    hadamards = [(half((q, 0)), half((q, 1))) for q in range(n)]
    # PHASE multiplies the amplitudes whose target bit is set; a
    # CX . PHASE . CX block multiplies those where z_i != z_j.
    phases = [([half((q, 1))], np.exp(1j * (2.0 * X[:, q]))) for q in range(n)] + [
        ([half((i, 1), (j, 0)), half((i, 0), (j, 1))],
         np.exp(1j * (2.0 * ((math.pi - X[:, i]) * (math.pi - X[:, j])))))
        for i, j in config.pairs()
    ]
    for _ in range(config.repetitions):
        for a, b in hadamards:
            diff = a - b
            a += b
            a *= _SQRT1_2
            np.multiply(diff, _SQRT1_2, out=b)
        for targets, factor in phases:
            for target in targets:
                target *= factor
    return np.ascontiguousarray(states[:, :m].T)
