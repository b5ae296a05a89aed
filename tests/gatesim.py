"""Gate-by-gate feature-map circuits on the package's statevector simulator
``gnss_qsvm.sim``: the reference that the batched
``feature_map.statevectors`` must equal bit for bit, one sample at a time."""

import math

import numpy as np

from gnss_qsvm.errors import DimensionError
from gnss_qsvm.feature_map import FeatureMapConfig
from gnss_qsvm.sim import Circuit, QuantumState, cnot, hadamard, phase, run_circuit, zero_state


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
