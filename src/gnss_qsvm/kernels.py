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
j])``, but no ``SeedSequence`` is built per entry: numpy's ``SeedSequence``
hash (NEP 19) runs once over all entries of a block as ``uint32`` columns,
first for the entry seeds and then for the four PCG64 key words that
``default_rng`` derives from them. Each entry's binomial is drawn from a
``PCG64`` that numpy seeds from that entry's key words.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .data import _check_int, _check_matrix, _check_positive, mask_seed
from .errors import DegenerateDataError, InvalidSettingError
from .feature_map import FeatureMapConfig, statevectors

FIDELITY_EXACT = "fidelity_exact"
FIDELITY_SAMPLED = "fidelity_sampled"
RBF = "rbf"
KERNEL_MODES = (FIDELITY_EXACT, FIDELITY_SAMPLED, RBF)
MAX_SHOTS = 2**63 - 1

# numpy's SeedSequence constants (pool of four uint32 words).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_U32 = (1 << 32) - 1


@dataclass(frozen=True)
class KernelConfig:
    mode: str
    feature_map: FeatureMapConfig = field(default=FeatureMapConfig(num_features=2))
    shots: int = 1000
    seed: int = 0
    gamma: float | None = None

    def __post_init__(self):
        if self.mode not in KERNEL_MODES:
            raise InvalidSettingError(f"mode must be one of {KERNEL_MODES}, got {self.mode!r}")
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
# Per source word of the pool mixing: its destination words and hashmix constants.
_MIX_STEPS = [(np.delete(np.arange(_POOL_SIZE), src), _XOR_A[_POOL_SIZE + 3 * src:][:3],
               _MUL_A[_POOL_SIZE + 3 * src:][:3]) for src in range(_POOL_SIZE)]


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = value ^ xor
    value *= mul
    return np.bitwise_xor(value, value >> _SHIFT, out=value)


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
    for src, (dst, xor, mul) in enumerate(_MIX_STEPS):
        # The three calls of one source word touch distinct destinations.
        mixed = pool[dst]
        mixed *= _MIX_MULT_L
        mixed -= _hashmix(pool[src], xor, mul) * _MIX_MULT_R
        mixed ^= mixed >> _SHIFT
        pool[dst] = mixed
    n = 2 * n_words
    out = _hashmix(pool[np.arange(n) % _POOL_SIZE], _XOR_B[:n], _MUL_B[:n]).astype(np.uint64)
    return out[0::2] | out[1::2] << np.uint64(32)


def _pair_seeds(master_seed: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The first uint64 word of ``SeedSequence([mask_seed(master_seed), i,
    j])`` for each (i, j) in zip(rows, cols); indices lie in [0, 2**32)."""
    seed = mask_seed(master_seed)
    head = [seed & _U32, seed >> 32] if seed >> 32 else [seed]
    return _seed_state([*head, rows.astype(np.uint32), cols.astype(np.uint32)], 1)[0]


def _pcg64_keys(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)``, the PCG64 keys of
    ``default_rng(seed)``, as one C-contiguous row per uint64 seed: PCG64 reads
    the raw buffer it is handed, so a row of a strided array seeds a wrong state."""
    # SeedSequence takes a seed below 2**32 as one word; a zero high word
    # hashes exactly like the pool's zero padding, so two words serve all.
    return np.ascontiguousarray(_seed_state([(seeds & np.uint64(_U32)).astype(np.uint32),
                                             (seeds >> np.uint64(32)).astype(np.uint32)], 4).T)


@dataclass
class _Keys(ISeedSequence):
    """One entry's key words for numpy's own PCG64 seeding, which asks for
    exactly these: ``generate_state(4, np.uint64)``."""
    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _shot_estimates(p: np.ndarray, seeds: np.ndarray, shots: int) -> np.ndarray:
    """``default_rng(seed).binomial(shots, p) / shots`` for each pair of
    ``p`` and uint64 ``seeds``: the fraction of all-zeros outcomes in
    ``shots`` runs whose all-zeros probability is ``p``, drawn from a
    ``PCG64`` seeded from the seed's row of the batch's keys."""
    generator, pcg64 = np.random.Generator, np.random.PCG64
    return np.array([int(generator(pcg64(_Keys(words))).binomial(shots, p_k)) / shots
                     for words, p_k in zip(_pcg64_keys(seeds), p.tolist())])


def default_gamma(X) -> float:
    """1 / (n_features * var), var pooled over every entry of X.

    Mirrors the untuned "scale" default of common SVM toolkits.
    """
    X = _check_matrix(X)
    var = float(X.var())
    if var <= 0.0:
        raise DegenerateDataError("feature matrix is constant; gamma undefined")
    return 1.0 / (X.shape[1] * var)


def _check_features(X, cfg: KernelConfig, name: str = "X") -> np.ndarray:
    """``data._check_matrix`` plus the feature map's width or RBF's resolved gamma."""
    X = _check_matrix(X, name, None if cfg.mode == RBF else cfg.feature_map.num_features)
    if cfg.mode == RBF and cfg.gamma is None:
        raise InvalidSettingError("rbf mode requires gamma; resolve it via default_gamma")
    return X


def _block(A: np.ndarray, B: np.ndarray, cfg: KernelConfig, upper: bool = False,
           drawn=None) -> np.ndarray:
    """values[i][j] = k(A[i], B[j]). ``upper`` marks the symmetric case
    (B is A): the fidelity modes then build the states once, and the sampled
    mode spends shots only on j > i, leaving the rest exact; given the
    columns ``drawn``, it leaves every other column exact too."""
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
        if drawn is not None:
            keep = np.isin(cols, drawn)
            rows, cols = rows[keep], cols[keep]
        seeds = _pair_seeds(cfg.seed, rows, cols)
        K[rows, cols] = _shot_estimates(K[rows, cols], seeds, cfg.shots)
    return K


def gram_symmetric(X, cfg: KernelConfig) -> KernelMatrix:
    """Training Gram matrix: upper triangle computed once per unordered
    pair, mirrored to the lower triangle, diagonal pinned to exactly 1.0
    (no shots spent on it)."""
    X = _check_features(X, cfg)
    K = np.triu(_block(X, X, cfg, upper=True), k=1)
    K = K + K.T
    np.fill_diagonal(K, 1.0)
    return KernelMatrix(rows=K.shape[0], cols=K.shape[1], values=K, symmetric=True)


def gram_rectangular(X_test, X_train, cfg: KernelConfig) -> KernelMatrix:
    """Prediction-time block: values[i][j] = k(X_test[i], X_train[j])."""
    X_train = _check_features(X_train, cfg, "X_train")
    X_test = _check_matrix(X_test, "X_test", X_train.shape[1])
    K = _block(X_test, X_train, cfg)
    return KernelMatrix(rows=K.shape[0], cols=K.shape[1], values=K, symmetric=False)

