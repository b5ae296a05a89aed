"""Kernel SVM on precomputed Gram matrices.

The binary soft-margin dual

    max  sum(alpha) - 1/2 sum_ij alpha_i alpha_j y_i y_j K_ij
    s.t. 0 <= alpha_i <= C,  sum_i alpha_i y_i = 0

is solved by sequential minimal optimization with deterministic working-set
selection: sweeps alternate between all points and the non-bound subset,
and the partner index maximizes |E_i - E_j| with ties going to the lowest
index. No randomized heuristics, so identical inputs give identical models.
When that partner and the other free points all fail, Platt's fallback scans
the bound points in index order (a failed step changes nothing, so the free
ones would fail again); most scans step at their first partner. A point whose
last scan found no partner is stuck until it takes a step. Its examine starts
with one vectorized step test, which rejects only the partners whose update
must fail; the heuristic partner, the free loop and the scan skip those, so the
model is the plain search's bit for bit. It divides only by positive curvatures.
The Gram must be exactly symmetric (checked), so column j is read as row j.

Each step reads its scalars as Python floats: alpha and f through memoryviews
of the arrays, which it updates in place, the labels and the Gram diagonal from
lists. numpy keeps only the vector work: the update of f, and the step test,
which keeps the curvature row of the last point it tested. The partner is
chosen by a plain loop over the free points that computes
((f_j + b) - y_j) - e2 with the same float64 operations in the same order as
the numpy expression it replaced, and keeps the first maximum, as ``argmax``
does. No value is NaN, since the Gram is checked finite, so the partner, and
with it the model, is the same bit for bit.

Multiclass uses one-vs-one voting: an ``SvmModel`` holds binary model k for
pair k of ``itertools.combinations(classes, 2)``, over a list of at least two
distinct classes. The two types are the schema of ``model.json``: a
``BinaryModel`` converts and checks its own fields, and an ``SvmModel`` checks
that layout, its training features and that each index falls on them. Both
are frozen, so a changed model is built anew (``dataclasses.replace``) and
checked again, and an exact one gets its observables anew. Their arrays are
read-only copies, and a model builds its vote's pair table once.

With the exact fidelity kernel a binary model is a measured observable
(Schuld 2021, arXiv:2101.11020): its decision value on a state psi(x) is

    sum_i c_i |<psi_i|psi(x)>|^2 + b = <psi(x)| W |psi(x)> + b,
    W = sum_i c_i |psi_i><psi_i|,  c = alpha * y,

the sums running over the support vectors. A model derives each W from the
training states when it is trained or loaded, and never writes it to
``model.json``; W holds 4**n complex numbers per binary model (16 MB at
n = 10). Prediction then needs only the test states and one product with
every W side by side, then the per-row sum Re sum_j (conj(psi) W)_j psi_j.
The dual's clip of each overlap to [0, 1] has no counterpart: it only ever
acted on rounding noise. The sampled and RBF kernels keep the dual sum over
the kernel row, also as a per-row sum; only the sampled kernel's entries
still depend on the batch, through their seeds, and get shots only in
columns with alpha > 0.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import combinations
from json.encoder import encode_basestring_ascii

import numpy as np

from .data import (ScalerParams, _check_int, _check_matrix, _check_positive, _is_real, _numbers,
                   _read_only, _write_artifact)
from .errors import (ConvergenceWarning, DimensionError, InvalidInputError, InvalidLabelsError,
                     ModelFormatError)
from .feature_map import FeatureMapConfig, statevectors
from .kernels import (
    FIDELITY_EXACT,
    RBF,
    KernelConfig,
    _block,
    _check_features,
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
        _check_positive(self.C, "C")
        _check_positive(self.kkt_tolerance, "kkt_tolerance")
        _check_int(self.max_passes, "max_passes", 1)


@dataclass(frozen=True, eq=False)
class BinaryModel:
    label_pair: tuple
    alpha: np.ndarray
    y: np.ndarray
    bias: float
    training_indices: np.ndarray
    converged: bool = True

    def __post_init__(self):
        if not isinstance(self.label_pair, (list, tuple)):
            raise InvalidLabelsError(f"label_pair must be a list or tuple, got {self.label_pair!r}")
        if not (_is_real(self.bias) and isinstance(self.converged, bool)):
            raise InvalidInputError(f"bias must be an int or float and converged a bool, "
                                    f"got {self.bias!r} and {self.converged!r}")
        alpha, y = _read_only(_numbers(self.alpha)), _read_only(_numbers(self.y))
        idx = _read_only(_numbers(self.training_indices, integer=True))
        vars(self).update(label_pair=tuple(self.label_pair), bias=float(self.bias), alpha=alpha,
                          y=y, training_indices=idx)  # frozen: stored past __setattr__
        pair = f"binary model {self.label_pair!r}"
        if alpha.ndim != 1 or not alpha.shape == y.shape == idx.shape:
            raise DimensionError(f"{pair}: alpha, y and training_indices differ in shape: "
                                 f"{alpha.shape}, {y.shape}, {idx.shape}")
        if not (alpha.min(initial=0) >= 0 and math.isfinite(alpha.max(initial=0))) \
                or not math.isfinite(self.bias):  # NaN fails min() >= 0, +-inf one of the two
            raise InvalidInputError(f"{pair}: alpha must be finite and non-negative, bias finite")
        if not (np.abs(y) == 1.0).all():
            raise InvalidInputError(f"{pair}: y must hold only +1 and -1")
        if idx.min(initial=0) < 0:
            raise InvalidInputError(f"{pair}: training indices must not be negative")


@dataclass(frozen=True, eq=False)
class SvmModel:
    classes: tuple
    binary_models: tuple
    kernel_config: KernelConfig
    training_features: np.ndarray
    # Exact kernel only: every binary model's W side by side, in model order.
    observables: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if not isinstance(self.binary_models, (list, tuple)) \
                or not all(isinstance(bm, BinaryModel) for bm in self.binary_models):
            raise InvalidInputError("binary_models must hold only BinaryModel objects")
        try:
            distinct = isinstance(self.classes, (list, tuple)) \
                and len({*self.classes}) == len(self.classes)
        except TypeError as exc:  # an unhashable class
            raise InvalidLabelsError(str(exc)) from None
        pairs = list(combinations(self.classes, 2)) if distinct else []
        if not pairs or [bm.label_pair for bm in self.binary_models] != pairs:
            raise InvalidLabelsError(
                f"binary models {[bm.label_pair for bm in self.binary_models]} are not the "
                f"one-vs-one pairs of a list of at least two distinct classes {self.classes!r}")
        features = _check_features(self.training_features, self.kernel_config, "training_features")
        n_train = len(features)
        if any(bm.training_indices.max(initial=-1) >= n_train for bm in self.binary_models):
            raise InvalidInputError(f"training indices must be below the {n_train} training points")
        # For predict: each pair's two class indices, each model's bias.
        index_pairs = np.array([*combinations(range(len(self.classes)), 2)]).T
        vars(self).update(classes=tuple(self.classes), binary_models=tuple(self.binary_models),
                          training_features=_read_only(features),  # frozen, as in BinaryModel
                          _pairs=tuple(_read_only(index_pairs)),
                          _biases=_read_only(np.array([bm.bias for bm in self.binary_models])))
        if self.kernel_config.mode == FIDELITY_EXACT:
            vars(self)["observables"] = _observables(self)


def _observables(model: SvmModel) -> np.ndarray:
    """(2**n, 2**n * len(binary_models)): each binary model's
    W = sum_i c_i |psi_i><psi_i| over its support vectors, side by side."""
    states = statevectors(model.training_features, model.kernel_config.feature_map)
    blocks = []
    for bm in model.binary_models:
        support = bm.alpha > 0
        sv_states = states[bm.training_indices[support]]
        W = (sv_states.T * (bm.alpha * bm.y)[support]) @ sv_states.conj()
        # The product is Hermitian only to rounding; its Hermitian part
        # measures the same Re <psi|W|psi> and is Hermitian exactly. The
        # vector loops of that step also matter on an AVX-512 Xeon with
        # numpy 2.4's OpenBLAS: its zgemm leaves the upper vector registers
        # dirty, and plain Python code after a build ending on it ran about
        # 40% slower.
        blocks.append((W + W.conj().T) / 2)
    observables = np.hstack(blocks)
    observables.flags.writeable = False
    return observables


def solve_binary_smo(
    gram,
    y,
    cfg: SvmConfig,
    label_pair: tuple = (1, -1),
    training_indices=None,
) -> BinaryModel:
    """SMO on a precomputed symmetric Gram matrix with +/-1 labels; a Gram or
    labels that ``data._numbers`` refuses (a bool, a string), or a Gram that is
    not finite and exactly symmetric, raises InvalidInputError.

    Returns the dual coefficients and a bias averaged over free support
    vectors (midpoint of the KKT-feasible interval when none are free).
    Non-convergence within max_passes sweeps yields a best-effort model
    flagged converged=False.
    """
    K = np.ascontiguousarray(_numbers(gram))
    y = _numbers(y)
    if y.ndim != 1:
        raise DimensionError(f"labels must be a 1-D array, got shape {y.shape}")
    n = y.shape[0]
    if K.shape != (n, n):
        raise DimensionError(f"Gram shape {K.shape} does not match {n} label(s)")
    if not np.all((y == 1.0) | (y == -1.0)):
        raise InvalidLabelsError("labels must be +1 or -1")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise InvalidLabelsError("training labels must hold both +1 and -1")

    if not np.all(np.isfinite(K)):
        raise InvalidInputError("Gram values must be finite")
    if not np.array_equal(K, K.T):
        raise InvalidInputError("Gram matrix must be symmetric")

    C = float(cfg.C)  # a numpy float32 C would run the clip bounds in float32
    tol = float(cfg.kkt_tolerance)
    diag = K.diagonal()
    same_label = {1.0: y > 0, -1.0: y < 0}  # y * y2 > 0, by y2
    alpha = np.zeros(n)
    f = np.zeros(n)  # f_i = sum_j alpha_j y_j K_ij, bias excluded
    b = 0.0  # working threshold; decision value is f + b
    # Scalars are read as Python floats: alpha and f through views of arrays that
    # change only in place, y and the diagonal from lists. Each loop of examine
    # ends at its first successful step; the free list is rebound, never mutated.
    alpha_l, f_l, y_l, diag_l = memoryview(alpha), memoryview(f), y.tolist(), diag.tolist()
    free = np.zeros(n, dtype=bool)
    nonbound, stuck = [], set()  # stuck: the points whose last full scan found no partner
    everyone = [True] * n
    curvature = [-1, None, None]  # (i2, eta, curved) of may_step's last call

    def take_step(i1: int, i2: int, e2: float) -> bool:
        # e2 is examine's error of i2, which only a successful step changes.
        nonlocal b, f, nonbound
        if i1 == i2:
            return False
        a1o, a2o = alpha_l[i1], alpha_l[i2]
        y1, y2 = y_l[i1], y_l[i2]
        f1, f2 = f_l[i1], f_l[i2]
        e1 = f1 + b - y1
        s = y1 * y2
        if s > 0:
            lo, hi = a1o + a2o - C, a1o + a2o
        else:
            lo, hi = a2o - a1o, C + a2o - a1o
        # Each clip is the comparison max() or min() makes: max(0.0, lo) is lo only if lo > 0.0.
        lo, hi = lo if lo > 0.0 else 0.0, hi if hi < C else C
        if hi - lo < _STEP_EPS:
            return False
        k11, k12, k22 = diag_l[i1], K.item(i1, i2), diag_l[i2]
        eta = k11 + k22 - 2.0 * k12
        if eta > _STEP_EPS:
            a2 = a2o + y2 * (e1 - e2) / eta
            a2 = lo if a2 < lo else hi if a2 > hi else a2  # min(max(a2, lo), hi): lo < hi
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
        a1 = 0.0 if a1 < 0.0 else C if a1 > C else a1

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
        f += d1 * K[i1] + d2 * K[i2]
        alpha_l[i1], alpha_l[i2] = a1, a2
        stuck.discard(i2)
        free1, free2 = 0.0 < a1 < C, 0.0 < a2 < C
        if free1 != (0.0 < a1o < C) or free2 != (0.0 < a2o < C):
            free[i1], free[i2] = free1, free2
            nonbound = free.nonzero()[0].tolist()
        return True

    def may_step(i2: int, e2: float) -> np.ndarray:
        # take_step(i1, i2)'s rejection tests for every i1 at once, with the
        # same arithmetic: False only where take_step must return False.
        # Non-positive curvature is left to take_step.
        a2o, y2 = alpha_l[i2], y_l[i2]
        same = same_label[y2]
        pair_sum = alpha + a2o
        lo = np.maximum(0.0, np.where(same, pair_sum - C, a2o - alpha))
        hi = np.minimum(C, np.where(same, pair_sum, C + a2o - alpha))
        # Only the last point's curvature row is kept, as a stuck point is tested
        # again and again; an n x n table would cost as much memory as the Gram.
        if curvature[0] != i2:
            eta = diag + diag_l[i2] - 2.0 * K[i2]
            curved = eta > _STEP_EPS
            eta[~curved] = 1.0  # those partners' steps are masked below
            curvature[:] = i2, eta, curved
        _, eta, curved = curvature
        step = (f + b - y - e2) / eta
        # y2 is +/-1, so a2o + y2 * (x / eta) is a2o +/- x / eta bit for bit.
        a2 = np.minimum(np.maximum(a2o + step if y2 > 0 else a2o - step, lo), hi)
        tiny = np.abs(a2 - a2o) < _STEP_EPS * (a2 + a2o + _STEP_EPS)
        ok = ~((hi - lo < _STEP_EPS) | (curved & tiny))
        ok[i2] = False
        return ok

    def examine(i2: int) -> bool:
        y2, a2 = y_l[i2], alpha_l[i2]
        e2 = f_l[i2] + b - y2
        r2 = e2 * y2
        if not ((r2 < -tol and a2 < C) or (r2 > tol and a2 > 0)):
            return False
        # A failed step changes nothing: one step test holds for every partner of a stuck i2.
        ok = may_step(i2, e2) if i2 in stuck else None
        tries = everyone if ok is None else ok.tolist()
        i1 = i2
        if len(nonbound) > 1:
            # The first largest |((f_j + b) - y_j) - e2|, as argmax picks it.
            largest = -1.0
            for j in nonbound:
                gap = abs(f_l[j] + b - y_l[j] - e2)
                if gap > largest:
                    largest, i1 = gap, j
            if tries[i1] and take_step(i1, i2, e2):
                return True
        for j in nonbound:
            if j != i1 and j != i2 and tries[j] and take_step(j, i2, e2):
                return True
        # The full scan: the bound points only.
        for j in (~free if ok is None else ok & ~free).nonzero()[0].tolist():
            if take_step(j, i2, e2):
                return True
        stuck.add(i2)
        return False

    converged = False
    examine_all = True
    for _ in range(cfg.max_passes):
        changed = False
        for i in range(n) if examine_all else nonbound:
            if examine(i):
                changed = True
        if examine_all and not changed:
            converged = True
            break
        examine_all = not changed
    if not converged:
        warnings.warn(
            f"SMO stopped after {cfg.max_passes} sweeps without meeting the "
            f"KKT tolerance {tol}",
            ConvergenceWarning,
        )

    return BinaryModel(label_pair, alpha, y, _final_bias(alpha, y, f, C),
                       np.arange(n) if training_indices is None else training_indices, converged)


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
    # Neither side is empty. Both labels are present, so an empty lower side
    # would put every y > 0 point at C and every y < 0 point at 0, and make
    # sum(alpha * y) = C * #(y > 0), not 0; an empty upper side likewise.
    return float(0.5 * (lower.max() + upper.min()))


def train_ovo(X, labels, cfg: SvmConfig, kcfg: KernelConfig, classes=None) -> SvmModel:
    """Train one binary model per unordered class pair on the pair's
    sub-block of the full training Gram matrix."""
    X = _check_matrix(X)
    labels = list(labels)
    if len(labels) != X.shape[0]:
        raise DimensionError(
            f"{len(labels)} label(s) for {X.shape[0]} sample(s)"
        )
    try:
        present = set(labels)
        classes = sorted(present) if classes is None else list(classes)
        missing = [c for c in classes if c not in present]
        unknown = sorted(present - set(classes))
    except TypeError as exc:  # a label or class that cannot be hashed or sorted
        raise InvalidLabelsError(str(exc)) from None
    if missing:
        raise InvalidLabelsError(f"classes missing from training data: {missing}")
    if unknown:
        raise InvalidLabelsError(f"labels outside the class list: {unknown}")
    if len(classes) < 2 or len(set(classes)) != len(classes):
        raise InvalidLabelsError(
            f"class list {classes} holds fewer than 2 classes or names a class twice")

    if kcfg.mode == RBF and kcfg.gamma is None:
        kcfg = replace(kcfg, gamma=default_gamma(X))

    gram = gram_symmetric(X, kcfg).values
    label_arr = np.array(labels, dtype=object)
    models = []
    for a, b in combinations(classes, 2):
        idx = np.flatnonzero((label_arr == a) | (label_arr == b))
        y = np.where(label_arr[idx] == a, 1.0, -1.0)
        models.append(solve_binary_smo(
            gram[np.ix_(idx, idx)], y, cfg, label_pair=(a, b), training_indices=idx
        ))
    return SvmModel(
        classes=classes,
        binary_models=models,
        kernel_config=kcfg,
        training_features=X,
    )


def _decisions(model: SvmModel, X) -> np.ndarray:
    """Decision values, (m, n_models): column k holds binary model k's value
    on every row of X, bias included. Each value is a sum along its own row,
    never a matrix-vector product, so (except for the sampled kernel's
    seeds) it does not depend on the batch the row came in."""
    cfg = model.kernel_config
    if model.observables is None:
        if cfg.mode == RBF:
            K = gram_rectangular(X, model.training_features, cfg).values
        else:  # shots only where alpha > 0: elsewhere alpha * y is +-0.0
            support = [bm.training_indices[bm.alpha > 0] for bm in model.binary_models]
            K = _block(_check_features(X, cfg, "X_test"), model.training_features, cfg,
                       drawn=np.concatenate(support))
        # take, unlike K[:, idx], returns C order, so that each row is
        # summed along itself for every batch size.
        return np.column_stack([(K.take(bm.training_indices, axis=1) * (bm.alpha * bm.y))
                                .sum(axis=1) + bm.bias for bm in model.binary_models])
    psi = statevectors(X, cfg.feature_map)
    m, dim = psi.shape
    # A doubled row keeps a one-row batch on gemm, as in kernels._block.
    if m == 1:
        psi = np.repeat(psi, 2, axis=0)
    # conj(psi) @ W_k for every model k, then Re sum_j (conj(psi) @ W_k)_j psi_j per row.
    rows_w = (psi.conj() @ model.observables).reshape(len(psi), -1, dim)
    return (np.add.reduce((rows_w * psi[:, None, :]).real, 2) + model._biases)[:m]


def predict(model: SvmModel, X) -> list:
    """One-vs-one vote; positive decision values go to the pair's first
    class. Vote ties break on the larger sum of winning |decision| margins,
    then on the lower class index."""
    decisions = _decisions(model, X)
    m, n_classes = len(decisions), len(model.classes)
    # Bin r * n_classes + c counts class c's wins on row r and sums their
    # |decision| margins; bincount adds in input order, so in model order.
    cells = np.where(decisions > 0, *model._pairs) + np.arange(0, m * n_classes, n_classes)[:, None]
    cells = cells.ravel()
    # argmax orders votes + 1j * margins by votes, then margins, and takes
    # the first of equal maxima, so the lowest index breaks ties.
    key = np.bincount(cells, np.abs(decisions).ravel(), m * n_classes) * 1j
    key += np.bincount(cells, None, m * n_classes)
    return [model.classes[w] for w in key.reshape(m, n_classes).argmax(axis=1).tolist()]


@dataclass(eq=False)
class _Document:
    """A model document: one key per field."""
    format: str
    classes: list
    binary_models: list
    kernel: KernelConfig
    training_features: np.ndarray
    scaler: ScalerParams | None

    def __post_init__(self):
        if self.format != MODEL_FORMAT:
            raise ValueError(f"unrecognized model format {self.format!r}")


def _json_ready(items) -> dict:
    # dict_factory of dataclasses.asdict: arrays and tuples become lists.
    return {k: v.tolist() if isinstance(v, np.ndarray) else list(v) if isinstance(v, tuple)
            else v for k, v in items}


def model_to_dict(model: SvmModel, scaler: ScalerParams | None = None) -> dict:
    return asdict(_Document(MODEL_FORMAT, model.classes, model.binary_models,
                            model.kernel_config, model.training_features, scaler),
                  dict_factory=_json_ready)


def _from_section(cls, section, what: str, **convert):
    """A ``cls`` from a model document section whose keys are exactly its
    fields, each value as parsed (a nested section built by its converter):
    ``cls`` checks its own fields. Any failure raises ModelFormatError."""
    names = [f.name for f in fields(cls)]
    try:
        if not isinstance(section, dict) or section.keys() != set(names):
            got = list(section) if isinstance(section, dict) else type(section).__name__
            raise ValueError(f"expected an object with the keys {names}, got {got}")
        return cls(**{name: convert.get(name, lambda v: v)(section[name]) for name in names})
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"invalid {what}: {exc!r}") from exc


def model_from_dict(doc: dict) -> tuple[SvmModel, ScalerParams | None]:
    """Rebuild a model from its JSON document, rejecting inconsistent ones
    with ModelFormatError before they can fail inside ``predict``."""
    doc = _from_section(
        _Document, doc, "model document",
        binary_models=lambda models: [_from_section(BinaryModel, bm, "binary model")
                                      for bm in models],
        kernel=lambda section: _from_section(
            KernelConfig, section, "kernel section",
            feature_map=lambda fm: _from_section(FeatureMapConfig, fm, "kernel section")),
        scaler=lambda section: None if section is None else _from_section(
            ScalerParams, section, "scaler section"),
    )
    try:
        model = SvmModel(doc.classes, doc.binary_models, doc.kernel, doc.training_features)
    except ValueError as exc:
        raise ModelFormatError(
            f"model is inconsistent or does not fit the training features: {exc}") from exc
    return model, doc.scaler


def _plain_number(value):
    # default of the artifact encoder: a numpy integer or float setting is
    # written as the Python number it equals.
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_compact_json = json.JSONEncoder(default=_plain_number).encode


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for a document with
    string keys, nested at ``indent``. A list of scalars, or of non-empty
    lists of scalars, takes one compact C-level pass and is re-indented by
    string replacement: with no string in its text, every ", " in it
    separates two items."""
    inner = indent + "  "
    if isinstance(value, (list, tuple)) and value and not isinstance(value[0], (dict, str)):
        text = _compact_json(value)
        if '"' not in text:  # no strings, so no non-empty objects
            rows = text.count("[") - 1
            if not rows:
                return "[" + inner + text[1:-1].replace(", ", "," + inner) + indent + "]"
            if rows == len(value) and all(isinstance(r, (list, tuple)) and r for r in value):
                deep = inner + "  "
                body = text[2:-2].replace(", ", "," + deep)
                body = body.replace("]," + deep + "[", inner + "]," + inner + "[" + deep)
                return "[" + inner + "[" + deep + body + inner + "]" + indent + "]"
    if isinstance(value, dict):
        brackets, items = "{}", [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                                 for k, v in sorted(value.items())]
    elif isinstance(value, (list, tuple)):
        brackets, items = "[]", [_json_text(v, inner) for v in value]
    else:
        return _compact_json(value)
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _write_json(doc: dict, path) -> None:
    """The bytes of ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, floats
    via repr so reloads are exact, rendered in full before the file is opened
    and without json's pure-Python encoder (``indent`` selects it; it took most
    of ``save_model``'s time)."""
    _write_artifact(path, _json_text(doc) + "\n")


def save_model(model: SvmModel, path, scaler: ScalerParams | None = None) -> None:
    _write_json(model_to_dict(model, scaler), path)


def load_model(path) -> tuple[SvmModel, ScalerParams | None]:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ModelFormatError(f"{path}: not a JSON document: {exc}") from exc
    return model_from_dict(doc)
