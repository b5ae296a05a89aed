"""Basis conventions of the feature-map states.

Basis convention is little-endian: qubit 0 is the least-significant bit of
the amplitude index, so for two qubits |01> (qubit 0 set, qubit 1 clear)
sits at index 1.

The batched engine ``feature_map.statevectors`` and the gate-by-gate
reference simulator of the tests (``tests/gatesim.py``) both take the qubit
cap and the Hadamard factor from here, so the two cannot drift apart. The
module exists apart from ``feature_map`` only because the benchmark's
tracer (``perfbench/spans.py``) lists ``sim`` as a layer; it goes once the
tracer drops that layer (ROADMAP item 2).
"""

import math

MAX_QUBITS = 10

_SQRT1_2 = 1.0 / math.sqrt(2.0)
