"""Second-order (ZZ-interaction) feature map.

A feature vector x is encoded by repeating, per repetition: a Hadamard
layer, single-qubit phases 2*x_i, and for each entangled pair (i, j) the
block CX(i->j), PHASE(2*(pi - x_i)*(pi - x_j)) on j, CX(i->j). One qubit
per feature. :func:`statevectors` builds the states of a whole batch at
once, from a plan built once per config; the kernels take their states
from it.
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


def _plan(config: FeatureMapConfig) -> tuple:
    """The gate indices of ``config`` and the amplitudes after its first
    Hadamard layer, which are the same for every row: built on the first
    call and kept on the config."""
    plan = vars(config).get("_plan")
    if plan is None:
        n, pairs = config.num_features, config.pairs()

        # Little-endian: qubit q is axis n - 1 - q. half((q, v), ...) indexes
        # the amplitudes whose bit q is v for every pair given.
        def half(*bits):
            index = [slice(None)] * n
            for q, v in bits:
                index[n - 1 - q] = v
            return tuple(index)

        halves = [(half((q, 0)), half((q, 1))) for q in range(n)]
        # On two columns, as every call runs, so the same vector loop rounds.
        first = np.zeros((1 << n, 2), dtype=complex)
        first[0] = 1.0
        _hadamard_layer(first, halves)
        first = first[:, :1].copy()
        first.flags.writeable = False
        # PHASE multiplies the amplitudes whose target bit is set; a
        # CX . PHASE . CX block multiplies those where z_i != z_j.
        targets = [[b] for _, b in halves] + [
            [half((i, 1), (j, 0)), half((i, 0), (j, 1))] for i, j in pairs]
        # d[a] * d[b] over these row slices of d = pi - x are the pair phases
        # in the order of pairs(): each qubit's partners j > i are consecutive.
        blocks = [(slice(i, i + 1), slice(i + 1, n if config.entanglement == "full" else i + 2))
                  for i in range(n - 1)]
        plan = vars(config)["_plan"] = halves, targets, blocks, first  # frozen: past __setattr__
    return plan


def _hadamard_layer(states, halves):
    # Halves a, b become (a + b) * 1/sqrt(2) and (a - b) * 1/sqrt(2).
    qubits = states.reshape((2,) * len(halves) + (-1,))
    sums = np.empty_like(states)
    out = sums.reshape(qubits.shape)
    for a, b in halves:
        qa, qb = qubits[a], qubits[b]
        np.add(qa, qb, out=out[a])
        np.subtract(qa, qb, out=out[b])
        np.multiply(sums, _SQRT1_2, out=states)


def statevectors(X, config: FeatureMapConfig) -> np.ndarray:
    """Feature-map states of every row of ``X``, shape (m, 2**n): the gates
    of the module docstring applied to all rows at once with the arithmetic
    of the gate-by-gate simulator in ``tests/gatesim.py``, so that for two
    or more features each row equals a run of the circuit on that
    simulator bit for bit.

    The states are held amplitude-major, (2**n, m), and reshaped to one axis
    per qubit, so that the halves a gate acts on are basic-slice views and
    every gate is an operation on whole rows of samples. The first layer's
    amplitudes come from the config's plan, and one ``exp`` forms every
    phase factor. numpy multiplies a one-element complex row in its scalar
    loop, which rounds differently from the vector loop of any longer row,
    so a one-row call runs on the row doubled and keeps one."""
    n = config.num_features
    X = _check_matrix(X, width=n)
    m = len(X)
    if m == 1:
        X = np.repeat(X, 2, axis=0)
    halves, targets, blocks, first = _plan(config)
    states = first.repeat(len(X), axis=1)
    qubits = states.reshape((2,) * n + (-1,))
    # exp(1j * (2.0 * phi)) for phi = x_q, then for phi = (pi - x_i) * (pi - x_j).
    d = math.pi - X.T
    factors = np.exp(np.concatenate([X.T, *[d[a] * d[b] for a, b in blocks]]) * 2j)
    for rep in range(config.repetitions):
        if rep:
            _hadamard_layer(states, halves)
        for factor, indices in zip(factors, targets):
            for index in indices:
                view = qubits[index]
                view *= factor
    return np.ascontiguousarray(states[:, :m].T)
