"""Kernel evaluations and Gram-matrix assembly.

Three modes: exact fidelity (statevector), shot-sampled fidelity via the
compute-uncompute circuit, and a classical RBF baseline. Sampled entries
derive their seed from (master seed, row index, column index), so matrices
are reproducible regardless of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, DimensionError
from .feature_map import FeatureMapConfig, build_circuit, map_to_state
from .sim import (
    inverse_circuit,
    mask_seed,
    run_circuit,
    sample_counts,
    zero_probability,
    zero_state,
)

FIDELITY_EXACT = "fidelity_exact"
FIDELITY_SAMPLED = "fidelity_sampled"
RBF = "rbf"
KERNEL_MODES = (FIDELITY_EXACT, FIDELITY_SAMPLED, RBF)


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
        if self.mode == FIDELITY_SAMPLED and self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if self.gamma is not None and not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")


@dataclass(eq=False)
class KernelMatrix:
    rows: int
    cols: int
    values: np.ndarray
    symmetric: bool


def _vector_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for name, v in (("x", x), ("y", y)):
        if v.ndim != 1:
            raise DimensionError(f"{name} must be a 1-D feature vector, got shape {v.shape}")
    if x.shape != y.shape:
        raise DimensionError(f"feature lengths differ: {x.shape[0]} vs {y.shape[0]}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("feature values must be finite")
    return x, y


def _uncompute_state(x, y, fm: FeatureMapConfig):
    """State U(y)^-1 U(x) |0...0>; its all-zeros probability is the fidelity."""
    state = run_circuit(build_circuit(x, fm), zero_state(fm.num_features))
    return run_circuit(inverse_circuit(build_circuit(y, fm)), state)


def fidelity_exact(x, y, fm: FeatureMapConfig) -> float:
    """|<0...0| U(y)^-1 U(x) |0...0>|^2 via the compute-uncompute circuit."""
    x, y = _vector_pair(x, y)
    p = zero_probability(_uncompute_state(x, y, fm))
    return min(max(p, 0.0), 1.0)


def fidelity_sampled(x, y, fm: FeatureMapConfig, shots: int, seed: int) -> float:
    """Shot estimate of the fidelity: fraction of all-zeros outcomes when
    sampling the compute-uncompute circuit."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    x, y = _vector_pair(x, y)
    counts = sample_counts(_uncompute_state(x, y, fm), shots, seed)
    zeros = counts.get("0" * fm.num_features, 0)
    return zeros / shots


def rbf(x, y, gamma: float) -> float:
    """exp(-gamma * ||x - y||^2)."""
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    x, y = _vector_pair(x, y)
    return float(np.exp(-gamma * np.sum((x - y) ** 2)))


def default_gamma(X) -> float:
    """1 / (n_features * var), var pooled over every entry of X.

    Mirrors the untuned "scale" default of common SVM toolkits.
    """
    X = check_features(X)
    var = float(X.var())
    if var <= 0.0:
        raise DegenerateDataError("feature matrix is constant; gamma undefined")
    return 1.0 / (X.shape[1] * var)


def pair_seed(master_seed: int, i: int, j: int) -> int:
    """Deterministic per-entry seed derived from the master seed and the
    (row, column) indices, independent of evaluation order."""
    ss = np.random.SeedSequence([mask_seed(master_seed), int(i), int(j)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


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


def _statevectors(X: np.ndarray, fm: FeatureMapConfig) -> np.ndarray:
    return np.array([map_to_state(x, fm).amplitudes for x in X])


def _block(A: np.ndarray, B: np.ndarray, cfg: KernelConfig, upper: bool = False) -> np.ndarray:
    """values[i][j] = k(A[i], B[j]). ``upper`` marks the symmetric case
    (B is A): the exact mode then builds the states once, and the sampled
    mode spends shots only on j > i, leaving the rest zero."""
    if cfg.mode == FIDELITY_SAMPLED:
        K = np.zeros((A.shape[0], B.shape[0]))
        for i in range(A.shape[0]):
            for j in range(i + 1 if upper else 0, B.shape[0]):
                K[i, j] = fidelity_sampled(
                    A[i], B[j], cfg.feature_map, cfg.shots, pair_seed(cfg.seed, i, j)
                )
        return K
    if cfg.mode == FIDELITY_EXACT:
        sv_a = _statevectors(A, cfg.feature_map)
        sv_b = sv_a if upper else _statevectors(B, cfg.feature_map)
        return np.clip(np.abs(sv_a.conj() @ sv_b.T) ** 2, 0.0, 1.0)
    sq_distances = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=-1)
    return np.exp(-cfg.gamma * sq_distances)


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


def save_kernel_csv(matrix: KernelMatrix, path) -> None:
    """Write the full matrix row-major, 17 significant digits per entry."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in matrix.values:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
