"""Kernel evaluations and Gram-matrix assembly.

Three modes: exact fidelity, shot-sampled fidelity, and a classical RBF
baseline. The RBF block exp(-gamma |a - b|^2) sums its squared distances
one feature column at a time into one (m, n) array; up to 7 features that is
bit for bit the sum over an (m, n, d) array of squared differences. Both
fidelity modes take their states from the batched engine
``feature_map.statevectors`` and form the exact overlaps |<psi(a)|psi(b)>|^2
as one matrix product. A sampled entry is the fraction of all-zeros outcomes
in ``shots`` runs of the compute-uncompute circuit, drawn as one binomial on
the exact overlap: numpy's multinomial over all outcomes draws that count
first, as exactly this binomial. Sampled entries derive their seed from
(master seed, row index, column index), so matrices are reproducible
regardless of evaluation order.

Entry (i, j) has the value ``default_rng(s).binomial(shots, p) / shots``,
where s is the first uint64 word of ``SeedSequence([mask_seed(seed), i,
j])``, but no ``SeedSequence`` or ``Generator`` is built per entry: numpy's
``SeedSequence`` hash (NEP 19) runs once over all entries of a block as
``uint32`` columns, first for the entry seeds and then for the PCG64 keys
that ``default_rng`` derives from them, and one reused generator draws every
binomial after its state is set to the PCG64 state of that entry's seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import _check_int, _check_positive, mask_seed
from .errors import DegenerateDataError, DimensionError
from .feature_map import FeatureMapConfig, statevectors

FIDELITY_EXACT = "fidelity_exact"
FIDELITY_SAMPLED = "fidelity_sampled"
RBF = "rbf"
KERNEL_MODES = (FIDELITY_EXACT, FIDELITY_SAMPLED, RBF)
MAX_SHOTS = 2**63 - 1

# numpy's SeedSequence constants (pool of four uint32 words) and PCG64's
# 128-bit LCG multiplier.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U32 = (1 << 32) - 1
_U128 = (1 << 128) - 1


@dataclass(frozen=True)
class KernelConfig:
    mode: str
    feature_map: FeatureMapConfig = field(default=FeatureMapConfig(num_features=2))
    shots: int = 1000
    seed: int = 0
    gamma: float | None = None

    def __post_init__(self):
        if self.mode not in KERNEL_MODES:
            raise ValueError(f"mode must be one of {KERNEL_MODES}, got {self.mode!r}")
        # Only the sampled mode spends shots; the others take 0 as well.
        _check_int(self.shots, "shots", int(self.mode == FIDELITY_SAMPLED), MAX_SHOTS)
        _check_int(self.seed, "seed")
        if self.gamma is not None:
            _check_positive(self.gamma, "gamma")


@dataclass(eq=False)
class KernelMatrix:
    rows: int
    cols: int
    values: np.ndarray
    symmetric: bool


def _hash_consts(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) columns of SeedSequence's first ``calls``
    hashmix calls: each call xors with the running constant, steps it by
    ``mult`` and multiplies by the new value."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _U32)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    return consts[:-1], consts[1:]


# Pool filling and mixing take 4 + 12 hashmix calls; generate_state(4,
# np.uint64) takes 8.
_XOR_A, _MUL_A = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_XOR_B, _MUL_B = _hash_consts(_INIT_B, _MULT_B, 8)


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mul
    return value ^ value >> np.uint32(16)


def _seed_state(words: list, n_words: int) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(n_words, np.uint64)`` for a batch
    of entropies, as an (n_words, batch) array. An entropy is given as its
    uint32 words, least significant first, at most ``_POOL_SIZE`` of them;
    each word is a column over the batch or, except the last, one value
    shared by all."""
    pool = np.zeros((_POOL_SIZE, len(words[-1])), dtype=np.uint32)
    for k, word in enumerate(words):
        pool[k] = word
    pool = _hashmix(pool, _XOR_A[:_POOL_SIZE], _MUL_A[:_POOL_SIZE])
    for src in range(_POOL_SIZE):
        # The three calls of one source word touch distinct destinations.
        dst = [d for d in range(_POOL_SIZE) if d != src]
        calls = slice(_POOL_SIZE + 3 * src, _POOL_SIZE + 3 * src + 3)
        mixed = (np.uint32(_MIX_MULT_L) * pool[dst]
                 - np.uint32(_MIX_MULT_R) * _hashmix(pool[src], _XOR_A[calls], _MUL_A[calls]))
        pool[dst] = mixed ^ mixed >> np.uint32(16)
    n = 2 * n_words
    out = _hashmix(pool[np.arange(n) % _POOL_SIZE], _XOR_B[:n], _MUL_B[:n]).astype(np.uint64)
    return out[0::2] | out[1::2] << np.uint64(32)


def _pair_seeds(master_seed: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The first uint64 word of ``SeedSequence([mask_seed(master_seed), i,
    j])`` for each (i, j) in zip(rows, cols); indices lie in [0, 2**32)."""
    seed = mask_seed(master_seed)
    head = [seed & _U32, seed >> 32] if seed >> 32 else [seed]
    return _seed_state([*head, rows.astype(np.uint32), cols.astype(np.uint32)], 1)[0]


def _pcg64_states(seeds: np.ndarray) -> list[tuple[int, int]]:
    """(state, inc) of ``default_rng(seed).bit_generator`` for each uint64
    seed: keys k0..k3 from the seed's SeedSequence, then PCG64's seeding
    steps on inc = (k2:k3) << 1 | 1 and initial state (k0:k1)."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    # SeedSequence takes a seed below 2**32 as one word; a zero high word
    # hashes exactly like the pool's zero padding, so two words serve all.
    keys = _seed_state([(seeds & np.uint64(_U32)).astype(np.uint32),
                        (seeds >> np.uint64(32)).astype(np.uint32)], 4)
    states = []
    for k0, k1, k2, k3 in keys.T.tolist():
        inc = ((k2 << 64 | k3) << 1 | 1) & _U128
        states.append((((k0 << 64 | k1) + inc) * _PCG64_MULT + inc & _U128, inc))
    return states


def _shot_estimates(p: np.ndarray, seeds: np.ndarray, shots: int) -> np.ndarray:
    """``default_rng(seed).binomial(shots, p) / shots`` for each pair of
    ``p`` and uint64 ``seeds``: the fraction of all-zeros outcomes in
    ``shots`` runs whose all-zeros probability is ``p``. One generator is
    reused, its state set to each seed's PCG64 state before the draw."""
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    out = np.empty(len(p))
    for k, ((state, inc), p_k) in enumerate(zip(_pcg64_states(seeds), p.tolist())):
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        out[k] = int(rng.binomial(shots, p_k)) / shots
    return out


def default_gamma(X) -> float:
    """1 / (n_features * var), var pooled over every entry of X.

    Mirrors the untuned "scale" default of common SVM toolkits.
    """
    X = check_features(X)
    var = float(X.var())
    if var <= 0.0:
        raise DegenerateDataError("feature matrix is constant; gamma undefined")
    return 1.0 / (X.shape[1] * var)


def check_features(X, cfg: KernelConfig | None = None, name: str = "X",
                   width: int | None = None) -> np.ndarray:
    """The input check of every public matrix entry point: X must be a
    non-empty, finite 2-D matrix. With ``cfg``, its width must match the
    feature map (fidelity modes) and RBF needs a resolved gamma; ``width``
    pins the width when no feature map does."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DimensionError(f"{name} must be a non-empty 2-D matrix, got shape {X.shape}")
    if cfg is not None and cfg.mode != RBF:
        width = cfg.feature_map.num_features
    if width is not None and X.shape[1] != width:
        raise DimensionError(f"{name} has {X.shape[1]} feature(s), expected {width}")
    if cfg is not None and cfg.mode == RBF and cfg.gamma is None:
        raise ValueError("rbf mode requires gamma; resolve it via default_gamma")
    if not np.all(np.isfinite(X)):
        raise ValueError("feature values must be finite")
    return X


def _block(A: np.ndarray, B: np.ndarray, cfg: KernelConfig, upper: bool = False) -> np.ndarray:
    """values[i][j] = k(A[i], B[j]). ``upper`` marks the symmetric case
    (B is A): the fidelity modes then build the states once, and the sampled
    mode spends shots only on j > i, leaving the rest exact."""
    if cfg.mode == RBF:
        # From 8 features on, numpy sums an (m, n, d) array pairwise, so an
        # entry may differ from that sum by an ulp.
        K = np.zeros((len(A), len(B)))
        for a, b in zip(A.T, B.T):
            diff = a[:, None] - b
            diff *= diff
            K += diff
        K *= -cfg.gamma
        return np.exp(K, out=K)
    if upper:
        sv_a = sv_b = statevectors(A, cfg.feature_map)
    else:
        # One engine call for both sides: the engine works row by row, so
        # the split states equal two separate calls bit for bit.
        sv_b, sv_a = np.split(statevectors(np.concatenate([B, A]), cfg.feature_map), [len(B)])
    # numpy hands a one-row product to gemv, which rounds differently from
    # the gemm every larger batch gets; a doubled row keeps a point's kernel
    # row independent of the batch it came in.
    rows_a = sv_a.conj() if len(sv_a) > 1 else np.repeat(sv_a.conj(), 2, axis=0)
    K = np.clip(np.abs(rows_a @ sv_b.T) ** 2, 0.0, 1.0)[: len(sv_a)]
    if cfg.mode == FIDELITY_SAMPLED:
        rows, cols = np.triu_indices(len(K), 1) if upper else np.indices(K.shape).reshape(2, -1)
        seeds = _pair_seeds(cfg.seed, rows, cols)
        K[rows, cols] = _shot_estimates(K[rows, cols], seeds, cfg.shots)
    return K


def gram_symmetric(X, cfg: KernelConfig) -> KernelMatrix:
    """Training Gram matrix: upper triangle computed once per unordered
    pair, mirrored to the lower triangle, diagonal pinned to exactly 1.0
    (no shots spent on it)."""
    X = check_features(X, cfg)
    K = np.triu(_block(X, X, cfg, upper=True), k=1)
    K = K + K.T
    np.fill_diagonal(K, 1.0)
    return KernelMatrix(rows=K.shape[0], cols=K.shape[1], values=K, symmetric=True)


def gram_rectangular(X_test, X_train, cfg: KernelConfig) -> KernelMatrix:
    """Prediction-time block: values[i][j] = k(X_test[i], X_train[j])."""
    X_train = check_features(X_train, cfg, "X_train")
    X_test = check_features(X_test, cfg, "X_test", width=X_train.shape[1])
    K = _block(X_test, X_train, cfg)
    return KernelMatrix(rows=K.shape[0], cols=K.shape[1], values=K, symmetric=False)

