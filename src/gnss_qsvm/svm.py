"""Kernel SVM on precomputed Gram matrices.

The binary soft-margin dual

    max  sum(alpha) - 1/2 sum_ij alpha_i alpha_j y_i y_j K_ij
    s.t. 0 <= alpha_i <= C,  sum_i alpha_i y_i = 0

is solved by sequential minimal optimization with deterministic working-set
selection: sweeps alternate between all points and the non-bound subset,
and the partner index maximizes |E_i - E_j| with ties going to the lowest
index. No randomized heuristics, so identical inputs give identical models.
When that partner and the other free points all fail, Platt's fallback scans
every point; here one vectorized step test first rules out, for all
partners at once, those whose pair update must be rejected, and the scan
visits only the rest. A rejected step changes nothing, so the model is bit
for bit the one the plain scan gives.
Multiclass uses one-vs-one voting.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .data import ScalerParams
from .errors import ConvergenceWarning, DimensionError, InvalidLabelsError, ModelFormatError
from .feature_map import FeatureMapConfig
from .kernels import (
    RBF,
    KernelConfig,
    KernelMatrix,
    check_features,
    default_gamma,
    gram_rectangular,
    gram_symmetric,
)

MODEL_FORMAT = "gnss-qsvm-model-v1"

# Step acceptance thresholds; KKT accuracy is governed by SvmConfig.kkt_tolerance.
_STEP_EPS = 1e-12
_BOUND_EPS = 1e-8


@dataclass(frozen=True)
class SvmConfig:
    C: float = 1.0
    kkt_tolerance: float = 1e-3
    max_passes: int = 10_000

    def __post_init__(self):
        if not 0 < self.C < math.inf:
            raise ValueError(f"C must be positive and finite, got {self.C}")
        if not 0 < self.kkt_tolerance < math.inf:
            raise ValueError(
                f"kkt_tolerance must be positive and finite, got {self.kkt_tolerance}"
            )
        if self.max_passes < 1:
            raise ValueError(f"max_passes must be >= 1, got {self.max_passes}")


@dataclass(eq=False)
class BinaryModel:
    label_pair: tuple
    alpha: np.ndarray
    y: np.ndarray
    bias: float
    training_indices: np.ndarray
    converged: bool = True


@dataclass(eq=False)
class SvmModel:
    classes: list
    binary_models: list
    kernel_config: KernelConfig
    training_features: np.ndarray


def dual_objective(alpha: np.ndarray, y: np.ndarray, K: np.ndarray) -> float:
    """Value of the soft-margin dual at alpha."""
    coef = alpha * y
    return float(alpha.sum() - 0.5 * coef @ K @ coef)


def solve_binary_smo(
    gram,
    y,
    cfg: SvmConfig,
    label_pair: tuple = (1, -1),
    training_indices=None,
) -> BinaryModel:
    """SMO on a precomputed symmetric Gram matrix with +/-1 labels.

    Returns the dual coefficients and a bias averaged over free support
    vectors (midpoint of the KKT-feasible interval when none are free).
    Non-convergence within max_passes sweeps yields a best-effort model
    flagged converged=False.
    """
    K = gram.values if isinstance(gram, KernelMatrix) else np.asarray(gram, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if K.shape != (n, n):
        raise DimensionError(f"Gram shape {K.shape} does not match {n} label(s)")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise InvalidLabelsError("labels must be +1 or -1")
    if np.all(y == y[0]):
        raise InvalidLabelsError("training labels contain a single class")

    if not np.all(np.isfinite(K)):
        raise ValueError("Gram values must be finite")

    C = cfg.C
    tol = cfg.kkt_tolerance
    diag = K.diagonal()
    alpha = np.zeros(n)
    f = np.zeros(n)  # f_i = sum_j alpha_j y_j K_ij, bias excluded
    b = 0.0  # working threshold; decision value is f + b

    def take_step(i1: int, i2: int) -> bool:
        nonlocal b, f
        if i1 == i2:
            return False
        a1o, a2o = alpha.item(i1), alpha.item(i2)
        y1, y2 = y.item(i1), y.item(i2)
        f1, f2 = f.item(i1), f.item(i2)
        e1 = f1 + b - y1
        e2 = f2 + b - y2
        s = y1 * y2
        if s > 0:
            lo, hi = max(0.0, a1o + a2o - C), min(C, a1o + a2o)
        else:
            lo, hi = max(0.0, a2o - a1o), min(C, C + a2o - a1o)
        if hi - lo < _STEP_EPS:
            return False
        k11, k12, k22 = K.item(i1, i1), K.item(i1, i2), K.item(i2, i2)
        eta = k11 + k22 - 2.0 * k12
        if eta > _STEP_EPS:
            a2 = a2o + y2 * (e1 - e2) / eta
            a2 = min(max(a2, lo), hi)
        else:
            # Non-positive curvature (possible with sampled kernels):
            # compare the dual objective at both clip bounds.
            obj_lo = _objective_delta(lo, a1o, a2o, y1, y2, f1, f2, k11, k12, k22)
            obj_hi = _objective_delta(hi, a1o, a2o, y1, y2, f1, f2, k11, k12, k22)
            if obj_lo > obj_hi + _STEP_EPS:
                a2 = lo
            elif obj_hi > obj_lo + _STEP_EPS:
                a2 = hi
            else:
                return False
        if abs(a2 - a2o) < _STEP_EPS * (a2 + a2o + _STEP_EPS):
            return False
        a1 = a1o + s * (a2o - a2)
        a1 = min(max(a1, 0.0), C)

        d1 = y1 * (a1 - a1o)
        d2 = y2 * (a2 - a2o)
        b1 = b - e1 - d1 * k11 - d2 * k12
        b2 = b - e2 - d1 * k12 - d2 * k22
        if _BOUND_EPS * C < a1 < C * (1 - _BOUND_EPS):
            b = b1
        elif _BOUND_EPS * C < a2 < C * (1 - _BOUND_EPS):
            b = b2
        else:
            b = 0.5 * (b1 + b2)
        f += d1 * K[:, i1] + d2 * K[:, i2]
        alpha[i1] = a1
        alpha[i2] = a2
        return True

    def may_step(i2: int, e2: float, errors: np.ndarray) -> np.ndarray:
        # take_step(i1, i2)'s rejection tests for every i1 at once, with the
        # same arithmetic: False only where take_step must return False.
        # Non-positive curvature is left to take_step.
        a2o, y2 = alpha.item(i2), y.item(i2)
        same = y * y2 > 0
        lo = np.where(same, np.maximum(0.0, alpha + a2o - C), np.maximum(0.0, a2o - alpha))
        hi = np.where(same, np.minimum(C, alpha + a2o), np.minimum(C, C + a2o - alpha))
        eta = diag + K.item(i2, i2) - 2.0 * K[:, i2]
        curved = eta > _STEP_EPS
        with np.errstate(all="ignore"):
            a2 = np.minimum(np.maximum(a2o + y2 * (errors - e2) / eta, lo), hi)
        tiny = np.abs(a2 - a2o) < _STEP_EPS * (a2 + a2o + _STEP_EPS)
        ok = ~((hi - lo < _STEP_EPS) | (curved & tiny))
        ok[i2] = False
        return ok

    def examine(i2: int) -> bool:
        y2, a2 = y.item(i2), alpha.item(i2)
        e2 = f.item(i2) + b - y2
        r2 = e2 * y2
        if not ((r2 < -tol and a2 < C) or (r2 > tol and a2 > 0)):
            return False
        errors = f + b - y
        free = (alpha > 0) & (alpha < C)
        nonbound = np.flatnonzero(free)
        if nonbound.size > 1:
            i1 = int(nonbound[np.argmax(np.abs(errors[nonbound] - e2))])
            if take_step(i1, i2):
                return True
            nonbound = nonbound[nonbound != i1]
        for i1 in nonbound[nonbound != i2]:
            if take_step(int(i1), i2):
                return True
        # Every free point failed above and failed steps change nothing, so
        # the full scan needs only the bound points the step test keeps.
        for i1 in np.flatnonzero(may_step(i2, e2, errors) & ~free):
            if take_step(int(i1), i2):
                return True
        return False

    converged = False
    examine_all = True
    for _ in range(cfg.max_passes):
        targets = range(n) if examine_all else np.flatnonzero((alpha > 0) & (alpha < C))
        changed = sum(examine(int(i)) for i in targets)
        if examine_all:
            if changed == 0:
                converged = True
                break
            examine_all = False
        elif changed == 0:
            examine_all = True
    if not converged:
        warnings.warn(
            f"SMO stopped after {cfg.max_passes} sweeps without meeting the "
            f"KKT tolerance {tol}",
            ConvergenceWarning,
        )

    bias = _final_bias(alpha, y, f, C)
    if training_indices is None:
        training_indices = np.arange(n)
    return BinaryModel(
        label_pair=tuple(label_pair),
        alpha=alpha,
        y=y,
        bias=bias,
        training_indices=np.asarray(training_indices, dtype=int),
        converged=converged,
    )


def _objective_delta(t, a1o, a2o, y1, y2, f1, f2, k11, k12, k22):
    # Dual objective change for moving the pair to (a1o - s*(t - a2o), t).
    d2 = t - a2o
    d1 = -y1 * y2 * d2
    return (
        d1 + d2
        - d1 * y1 * f1
        - d2 * y2 * f2
        - 0.5 * (d1 * d1 * k11 + d2 * d2 * k22)
        - d1 * d2 * y1 * y2 * k12
    )


def _final_bias(alpha: np.ndarray, y: np.ndarray, f: np.ndarray, C: float) -> float:
    eps = _BOUND_EPS * C
    free = (alpha > eps) & (alpha < C - eps)
    residual = y - f
    if np.any(free):
        return float(residual[free].mean())
    at_zero = alpha <= eps
    at_c = alpha >= C - eps
    lower = residual[(at_zero & (y > 0)) | (at_c & (y < 0))]
    upper = residual[(at_zero & (y < 0)) | (at_c & (y > 0))]
    if lower.size and upper.size:
        return float(0.5 * (lower.max() + upper.min()))
    if upper.size:
        return float(upper.min())
    if lower.size:
        return float(lower.max())
    return 0.0


def decision_value(model: BinaryModel, kernel_row) -> float:
    """sum_i alpha_i y_i k(x, x_i) + bias for one test point."""
    kernel_row = np.asarray(kernel_row, dtype=float)
    if kernel_row.shape != model.alpha.shape:
        raise DimensionError(
            f"kernel row has length {kernel_row.shape[0]}, expected "
            f"{model.alpha.shape[0]}"
        )
    return float((model.alpha * model.y) @ kernel_row + model.bias)


def train_ovo(X, labels, cfg: SvmConfig, kcfg: KernelConfig, classes=None) -> SvmModel:
    """Train one binary model per unordered class pair on the pair's
    sub-block of the full training Gram matrix."""
    X = check_features(X)
    labels = list(labels)
    if len(labels) != X.shape[0]:
        raise DimensionError(
            f"{len(labels)} label(s) for {X.shape[0]} sample(s)"
        )
    present = set(labels)
    if classes is None:
        classes = sorted(present)
    else:
        classes = list(classes)
        missing = [c for c in classes if c not in present]
        if missing:
            raise InvalidLabelsError(f"classes missing from training data: {missing}")
        unknown = present - set(classes)
        if unknown:
            raise InvalidLabelsError(f"labels outside the class list: {sorted(unknown)}")
    if len(classes) < 2:
        raise InvalidLabelsError("training data must contain at least 2 classes")

    if kcfg.mode == RBF and kcfg.gamma is None:
        kcfg = replace(kcfg, gamma=default_gamma(X))

    gram = gram_symmetric(X, kcfg)
    label_arr = np.array(labels, dtype=object)
    models = []
    for ai in range(len(classes)):
        for bi in range(ai + 1, len(classes)):
            a, b = classes[ai], classes[bi]
            idx = np.flatnonzero((label_arr == a) | (label_arr == b))
            y = np.where(label_arr[idx] == a, 1.0, -1.0)
            models.append(solve_binary_smo(
                gram.values[np.ix_(idx, idx)], y, cfg, label_pair=(a, b), training_indices=idx
            ))
    return SvmModel(
        classes=classes,
        binary_models=models,
        kernel_config=kcfg,
        training_features=X.copy(),
    )


def predict(model: SvmModel, X) -> list:
    """One-vs-one vote; positive decision values go to the pair's first
    class. Vote ties break on the larger sum of winning |decision| margins,
    then on the lower class index."""
    kernel_block = gram_rectangular(X, model.training_features, model.kernel_config).values
    class_index = {c: i for i, c in enumerate(model.classes)}
    votes = np.zeros((kernel_block.shape[0], len(model.classes)), dtype=int)
    margins = np.zeros(votes.shape)
    for bm in model.binary_models:
        d = kernel_block[:, bm.training_indices] @ (bm.alpha * bm.y) + bm.bias
        ai, bi = class_index[bm.label_pair[0]], class_index[bm.label_pair[1]]
        win_a = d > 0
        votes[win_a, ai] += 1
        votes[~win_a, bi] += 1
        margins[win_a, ai] += np.abs(d[win_a])
        margins[~win_a, bi] += np.abs(d[~win_a])

    # Among the classes with the most votes, the largest margin sum wins;
    # argmax takes the first of equal maxima, so the lowest index breaks ties.
    tied = np.where(votes == votes.max(axis=1, keepdims=True), margins, -np.inf)
    return [model.classes[w] for w in np.argmax(tied, axis=1)]


def _feature_map_to_dict(fm: FeatureMapConfig) -> dict:
    return {
        "num_features": fm.num_features,
        "repetitions": fm.repetitions,
        "entanglement": fm.entanglement,
    }


def model_to_dict(model: SvmModel, scaler: ScalerParams | None = None) -> dict:
    doc = {
        "format": MODEL_FORMAT,
        "classes": list(model.classes),
        "binary_models": [
            {
                "label_pair": list(bm.label_pair),
                "alpha": bm.alpha.tolist(),
                "y": bm.y.tolist(),
                "bias": bm.bias,
                "training_indices": bm.training_indices.tolist(),
                "converged": bm.converged,
            }
            for bm in model.binary_models
        ],
        "kernel": {
            "mode": model.kernel_config.mode,
            "shots": model.kernel_config.shots,
            "seed": model.kernel_config.seed,
            "gamma": model.kernel_config.gamma,
            "feature_map": _feature_map_to_dict(model.kernel_config.feature_map),
        },
        "training_features": model.training_features.tolist(),
        "scaler": None
        if scaler is None
        else {
            "data_min": scaler.data_min.tolist(),
            "data_max": scaler.data_max.tolist(),
            "target_lo": scaler.target_lo,
            "target_hi": scaler.target_hi,
        },
    }
    return doc


def _check_binary_model(bm: BinaryModel, classes: list, n_train: int) -> None:
    pair = f"binary model {bm.label_pair!r}"
    if len(bm.label_pair) != 2 or any(c not in classes for c in bm.label_pair):
        raise ModelFormatError(f"{pair}: label pair is not two of the classes {classes}")
    if bm.alpha.ndim != 1 or not bm.alpha.shape == bm.y.shape == bm.training_indices.shape:
        raise ModelFormatError(
            f"{pair}: alpha, y and training_indices differ in shape: "
            f"{bm.alpha.shape}, {bm.y.shape}, {bm.training_indices.shape}"
        )
    idx = bm.training_indices
    if idx.size and (idx.min() < 0 or idx.max() >= n_train):
        raise ModelFormatError(f"{pair}: training indices must lie in [0, {n_train})")


def model_from_dict(doc: dict) -> tuple[SvmModel, ScalerParams | None]:
    """Rebuild a model from its JSON document, rejecting inconsistent ones
    with ModelFormatError before they can fail inside ``predict``."""
    if doc.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"unrecognized model format {doc.get('format')!r}")
    kernel = doc["kernel"]
    fm = FeatureMapConfig(**kernel["feature_map"])
    kcfg = KernelConfig(
        mode=kernel["mode"],
        feature_map=fm,
        shots=kernel["shots"],
        seed=kernel["seed"],
        gamma=kernel["gamma"],
    )
    binary_models = [
        BinaryModel(
            label_pair=tuple(bm["label_pair"]),
            alpha=np.array(bm["alpha"], dtype=float),
            y=np.array(bm["y"], dtype=float),
            bias=float(bm["bias"]),
            training_indices=np.array(bm["training_indices"], dtype=int),
            converged=bool(bm["converged"]),
        )
        for bm in doc["binary_models"]
    ]
    model = SvmModel(
        classes=list(doc["classes"]),
        binary_models=binary_models,
        kernel_config=kcfg,
        training_features=np.array(doc["training_features"], dtype=float),
    )
    for bm in binary_models:
        _check_binary_model(bm, model.classes, model.training_features.shape[0])
    scaler = None
    if doc["scaler"] is not None:
        s = doc["scaler"]
        scaler = ScalerParams(
            data_min=np.array(s["data_min"], dtype=float),
            data_max=np.array(s["data_max"], dtype=float),
            target_lo=float(s["target_lo"]),
            target_hi=float(s["target_hi"]),
        )
    return model, scaler


def save_model(model: SvmModel, path, scaler: ScalerParams | None = None) -> None:
    """Single JSON document; floats serialize via repr so reloads are exact."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model, scaler), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> tuple[SvmModel, ScalerParams | None]:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
