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
for bit the one the plain scan gives. The step test divides only where the
pair curvature is positive and leaves every other partner to the scalar
update, so it never divides by zero.

The search state is kept rather than rebuilt at every step, with the same
IEEE arithmetic in the same order:
- alpha, the labels and the Gram diagonal have Python-float mirrors for the
  scalar reads of the pair update;
- Gram columns are read as contiguous rows of one copy of K.T, made once
  per problem;
- the free set and its indices and labels are updated by the pair update,
  and recomputed only when a point enters or leaves it;
- the partner heuristic computes errors on the free points only;
- the step test picks its same-label mask from two precomputed label
  masks.

Multiclass uses one-vs-one voting: an ``SvmModel`` holds binary model k for
pair k of ``itertools.combinations(classes, 2)``, over at least two distinct
classes, and checks that layout when it is built.

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
still depend on the batch, through their seeds.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import combinations

import numpy as np

from .data import ScalerParams, _check_int, _check_positive, _open_artifact
from .errors import ConvergenceWarning, DimensionError, InvalidLabelsError, ModelFormatError
from .feature_map import FeatureMapConfig, statevectors
from .kernels import (
    FIDELITY_EXACT,
    RBF,
    KernelConfig,
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
        _check_positive(self.C, "C")
        _check_positive(self.kkt_tolerance, "kkt_tolerance")
        _check_int(self.max_passes, "max_passes", 1)


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
    # Exact kernel only: every binary model's W side by side, in model order.
    observables: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        pairs = list(combinations(self.classes, 2))
        if len(set(self.classes)) != len(self.classes) or not pairs \
                or [bm.label_pair for bm in self.binary_models] != pairs:
            raise InvalidLabelsError(
                f"binary models {[bm.label_pair for bm in self.binary_models]} are not the "
                f"one-vs-one pairs of at least two distinct classes {self.classes}")
        if self.kernel_config.mode == FIDELITY_EXACT:
            self.observables = _observables(self)


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
    return np.hstack(blocks)


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
    K = np.asarray(gram, dtype=float)
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
    columns = np.ascontiguousarray(K.T)  # column j of K as a contiguous row
    same_label = {1.0: y > 0, -1.0: y < 0}  # y * y2 > 0, by y2
    alpha = np.zeros(n)
    f = np.zeros(n)  # f_i = sum_j alpha_j y_j K_ij, bias excluded
    b = 0.0  # working threshold; decision value is f + b
    # Python-float mirrors for the scalar reads, and the free set
    # (0 < alpha < C) kept up to date by take_step.
    alpha_l, y_l, diag_l = [0.0] * n, y.tolist(), diag.tolist()
    free = np.zeros(n, dtype=bool)
    nonbound, y_nonbound = free.nonzero()[0], y[:0]

    def take_step(i1: int, i2: int) -> bool:
        nonlocal b, f, nonbound, y_nonbound
        if i1 == i2:
            return False
        a1o, a2o = alpha_l[i1], alpha_l[i2]
        y1, y2 = y_l[i1], y_l[i2]
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
        k11, k12, k22 = diag_l[i1], K.item(i1, i2), diag_l[i2]
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
        f += d1 * columns[i1] + d2 * columns[i2]
        alpha[i1] = alpha_l[i1] = a1
        alpha[i2] = alpha_l[i2] = a2
        free1, free2 = 0.0 < a1 < C, 0.0 < a2 < C
        if free1 != (0.0 < a1o < C) or free2 != (0.0 < a2o < C):
            free[i1], free[i2] = free1, free2
            nonbound = free.nonzero()[0]
            y_nonbound = y[nonbound]
        return True

    def may_step(i2: int, e2: float) -> np.ndarray:
        # take_step(i1, i2)'s rejection tests for every i1 at once, with the
        # same arithmetic: False only where take_step must return False.
        # Non-positive curvature is left to take_step.
        a2o, y2 = alpha_l[i2], y_l[i2]
        errors = f + b - y
        same = same_label[y2]
        pair_sum = alpha + a2o
        lo = np.where(same, np.maximum(0.0, pair_sum - C), np.maximum(0.0, a2o - alpha))
        hi = np.where(same, np.minimum(C, pair_sum), np.minimum(C, C + a2o - alpha))
        # The pair curvature per call: an n x n table of it would cost
        # as much memory as the Gram block.
        eta = diag + diag_l[i2] - 2.0 * columns[i2]
        curved = eta > _STEP_EPS
        # y2 is +/-1, so y2 * (x / eta) is (y2 * x) / eta bit for bit.
        step = np.divide(errors - e2, eta, out=np.zeros(n), where=curved)
        a2 = np.minimum(np.maximum(a2o + y2 * step, lo), hi)
        tiny = np.abs(a2 - a2o) < _STEP_EPS * (a2 + a2o + _STEP_EPS)
        ok = ~((hi - lo < _STEP_EPS) | (curved & tiny))
        ok[i2] = False
        return ok

    def examine(i2: int) -> bool:
        y2, a2 = y_l[i2], alpha_l[i2]
        e2 = f.item(i2) + b - y2
        r2 = e2 * y2
        if not ((r2 < -tol and a2 < C) or (r2 > tol and a2 > 0)):
            return False
        # take_step rebinds nonbound when the free set changes, but only on
        # success, which ends this call.
        candidates, i1 = nonbound, i2
        if candidates.size > 1:
            # |E_j - e2| over the free points, in place: ((f + b) - y) - e2.
            gaps = f[candidates]
            gaps += b
            gaps -= y_nonbound
            gaps -= e2
            i1 = int(candidates[np.abs(gaps, out=gaps).argmax()])
            if take_step(i1, i2):
                return True
        for j in candidates.tolist():
            if j != i1 and j != i2 and take_step(j, i2):
                return True
        # Every free point failed above and failed steps change nothing, so
        # the full scan needs only the bound points the step test keeps.
        for j in (may_step(i2, e2) & ~free).nonzero()[0].tolist():
            if take_step(j, i2):
                return True
        return False

    converged = False
    examine_all = True
    for _ in range(cfg.max_passes):
        changed = False
        for i in range(n) if examine_all else nonbound.tolist():
            if examine(i):
                changed = True
        if examine_all:
            if not changed:
                converged = True
                break
            examine_all = False
        elif not changed:
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
        training_features=X.copy(),
    )


def _decisions(model: SvmModel, X) -> np.ndarray:
    """Decision values, (m, n_models): column k holds binary model k's value
    on every row of X, bias included. Each value is a sum along its own row,
    never a matrix-vector product, so (except for the sampled kernel's
    seeds) it does not depend on the batch the row came in."""
    cfg = model.kernel_config
    if model.observables is None:
        K = gram_rectangular(X, model.training_features, cfg).values
        # take, unlike K[:, idx], returns C order, so that each row is
        # summed along itself for every batch size.
        return np.column_stack([(K.take(bm.training_indices, axis=1) * (bm.alpha * bm.y))
                                .sum(axis=1) + bm.bias for bm in model.binary_models])
    psi = statevectors(check_features(X, cfg, "X_test"), cfg.feature_map)
    m, dim = psi.shape
    # A doubled row keeps a one-row batch on gemm, as in kernels._block.
    if m == 1:
        psi = np.repeat(psi, 2, axis=0)
    # conj(psi) @ W_k for every model k, then Re sum_j (conj(psi) @ W_k)_j psi_j per row.
    rows_w = (psi.conj() @ model.observables).reshape(len(psi), -1, dim)
    bias = np.array([bm.bias for bm in model.binary_models])
    return ((rows_w * psi[:, None, :]).real.sum(axis=2) + bias)[:m]


def predict(model: SvmModel, X) -> list:
    """One-vs-one vote; positive decision values go to the pair's first
    class. Vote ties break on the larger sum of winning |decision| margins,
    then on the lower class index."""
    decisions = _decisions(model, X)
    n_classes = len(model.classes)
    # Model k is pair k of combinations(classes, 2), checked by SvmModel.
    first, second = np.array(list(combinations(range(n_classes), 2))).T
    # (m, K, C): model k's winner on each row, one-hot over the classes. Sums
    # along K run in model order, and a loser's margin gains 0.0, which
    # leaves every sum exact.
    won = np.where(decisions > 0, first, second)[..., None] == np.arange(n_classes)
    votes = won.sum(axis=1)
    margins = np.where(won, np.abs(decisions)[..., None], 0.0).sum(axis=1)

    # Among the classes with the most votes, the largest margin sum wins;
    # argmax takes the first of equal maxima, so the lowest index breaks ties.
    tied = np.where(votes == votes.max(axis=1, keepdims=True), margins, -np.inf)
    return [model.classes[w] for w in tied.argmax(axis=1).tolist()]


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


def _json_numbers(value):
    """``value`` as it is, once every leaf of its nested lists is a JSON
    number. numpy alone also takes strings and booleans ("0.5" as 0.5,
    true as 1), even into a float64 array."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise TypeError(f"expected JSON numbers, got {item!r}")
    return value


def _floats(value) -> np.ndarray:
    return np.array(_json_numbers(value), dtype=float)


def _json_list(value) -> list:
    # list() alone also takes a string: "AB" as ['A', 'B'].
    if not isinstance(value, list):
        raise TypeError(f"expected a JSON list, got {value!r}")
    return value


def _json_bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected a JSON boolean, got {value!r}")
    return value


def _json_number(value) -> float:
    return float(_json_numbers(value))  # float() rejects a list


def _from_section(cls, section, what: str, **convert):
    """A ``cls`` from a model document section whose keys are exactly its
    fields, each value passed through its field's converter (default: as
    is). Any failure raises ModelFormatError."""
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


def _check_binary_model(bm: BinaryModel, n_train: int) -> None:
    pair = f"binary model {bm.label_pair!r}"
    if bm.alpha.ndim != 1 or not bm.alpha.shape == bm.y.shape == bm.training_indices.shape:
        raise ModelFormatError(
            f"{pair}: alpha, y and training_indices differ in shape: "
            f"{bm.alpha.shape}, {bm.y.shape}, {bm.training_indices.shape}"
        )
    if not (np.all((bm.alpha >= 0) & np.isfinite(bm.alpha)) and math.isfinite(bm.bias)):
        raise ModelFormatError(f"{pair}: alpha must be finite and non-negative, bias finite")
    if not np.all(np.isin(bm.y, (-1.0, 1.0))):
        raise ModelFormatError(f"{pair}: y must hold only +1 and -1")
    idx = bm.training_indices
    if idx.dtype.kind != "i" or idx.size and (idx.min() < 0 or idx.max() >= n_train):
        raise ModelFormatError(f"{pair}: training indices must be integers in [0, {n_train})")


def model_from_dict(doc: dict) -> tuple[SvmModel, ScalerParams | None]:
    """Rebuild a model from its JSON document, rejecting inconsistent ones
    with ModelFormatError before they can fail inside ``predict``."""
    doc = _from_section(
        _Document, doc, "model document",
        classes=_json_list,
        binary_models=lambda models: [
            _from_section(BinaryModel, bm, "binary model",
                          label_pair=lambda v: tuple(_json_list(v)), alpha=_floats,
                          y=_floats, bias=_json_number, converged=_json_bool,
                          training_indices=lambda v: np.array(_json_numbers(v)))
            for bm in models
        ],
        kernel=lambda section: _from_section(
            KernelConfig, section, "kernel section", shots=_json_numbers,
            gamma=lambda v: v if v is None else _json_numbers(v),
            feature_map=lambda fm: _from_section(FeatureMapConfig, fm, "kernel section")),
        training_features=lambda v: check_features(_json_numbers(v), name="training_features"),
        scaler=lambda section: None if section is None else _from_section(
            ScalerParams, section, "scaler section", data_min=_floats, data_max=_floats,
            target_lo=_json_number, target_hi=_json_number),
    )
    for bm in doc.binary_models:
        _check_binary_model(bm, len(doc.training_features))
    try:
        check_features(doc.training_features, doc.kernel, "training_features")
    except ValueError as exc:  # DimensionError too
        raise ModelFormatError(f"kernel section does not fit the training features: {exc}") \
            from exc
    try:
        model = SvmModel(doc.classes, doc.binary_models, doc.kernel, doc.training_features)
    except (InvalidLabelsError, TypeError) as exc:  # TypeError: an unhashable class
        raise ModelFormatError(f"invalid model document: {exc}") from exc
    return model, doc.scaler


def _write_json(doc: dict, path) -> None:
    """Indented JSON with sorted keys and a trailing newline; floats
    serialize via repr, so reloads are exact."""
    with _open_artifact(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def save_model(model: SvmModel, path, scaler: ScalerParams | None = None) -> None:
    _write_json(model_to_dict(model, scaler), path)


def load_model(path) -> tuple[SvmModel, ScalerParams | None]:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ModelFormatError(f"{path}: not a JSON document: {exc}") from exc
    return model_from_dict(doc)
