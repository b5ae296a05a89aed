"""Accuracy, confusion matrices, and decision-boundary grids."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import ScalerParams, _check_int, _write_artifact
from .errors import DimensionError, InvalidInputError, InvalidLabelsError, InvalidSettingError
from .svm import SvmModel, _json_ready, _write_json, predict


@dataclass(eq=False)
class EvalReport:
    confusion: np.ndarray  # rows = truth class, columns = predicted class
    classes: list

    @property
    def n_total(self) -> int:
        return int(self.confusion.sum())

    @property
    def accuracy(self) -> float:
        """Fraction of predictions matching the truth labels."""
        return int(self.confusion.trace()) / self.n_total


@dataclass(eq=False)
class BoundaryGrid:
    span: tuple[float, float]  # (lo, hi) of both axes
    cells: np.ndarray  # cells[i][j] = label at (centers[j], centers[i])


def confusion(predictions, truth, classes) -> np.ndarray:
    """Count matrix with rows = truth class, columns = predicted class."""
    predictions, truth, classes = list(predictions), list(truth), list(classes)
    if len(predictions) != len(truth):
        raise InvalidInputError(f"{len(predictions)} prediction(s) vs {len(truth)} truth label(s)")
    matrix = np.zeros((len(classes), len(classes)), dtype=int)
    try:
        index = {c: i for i, c in enumerate(classes)}
        if len(index) != len(classes):
            raise InvalidLabelsError(f"class list {classes} names a class twice")
        for p, t in zip(predictions, truth):
            if t not in index:
                raise InvalidLabelsError(f"truth label {t!r} not in class list")
            if p not in index:
                raise InvalidLabelsError(f"predicted label {p!r} not in class list")
            matrix[index[t], index[p]] += 1
    except TypeError as exc:  # an unhashable label or class
        raise InvalidLabelsError(str(exc)) from None
    return matrix


def make_report(predictions, truth, classes) -> EvalReport:
    """Score predictions against the truth; an empty label set is rejected."""
    report = EvalReport(confusion(predictions, truth, classes), list(classes))
    if not report.n_total:
        raise InvalidInputError("cannot score an empty label set")
    return report


def grid_centers(lo: float, hi: float, resolution: int) -> np.ndarray:
    """Centers of ``resolution`` uniform cells covering [lo, hi]."""
    _check_int(resolution, "resolution", 1)
    step = (hi - lo) / resolution
    return lo + (np.arange(resolution) + 0.5) * step


def boundary_grid(model: SvmModel, scaler: ScalerParams | None, resolution: int) -> BoundaryGrid:
    """Predict every cell center of a resolution x resolution lattice over
    the scaled feature square [target_lo, target_hi]^2; a model trained on
    raw features (``scaler`` None) has no such square."""
    if scaler is None:
        raise InvalidSettingError("model was trained on raw features; no scaled square "
                                  "to span (retrain without --raw)")
    if model.training_features.shape[1] != 2:
        raise DimensionError(
            f"boundary grids need a 2-feature model, got "
            f"{model.training_features.shape[1]} feature(s)"
        )
    lo, hi = scaler.target_lo, scaler.target_hi
    centers = grid_centers(lo, hi, resolution)
    points = np.column_stack(
        [np.tile(centers, resolution), np.repeat(centers, resolution)]
    )
    labels = predict(model, points)
    cells = np.array(labels, dtype=object).reshape(resolution, resolution)
    return BoundaryGrid(span=(lo, hi), cells=cells)


def save_grid_csv(grid: BoundaryGrid, path) -> None:
    """Row-major cell centers with header x,y,label."""
    centers = [repr(float(v)) for v in grid_centers(*grid.span, len(grid.cells))]
    _write_artifact(path, "x,y,label\n" + "".join(
        f"{x},{y},{label}\n"
        for y, row in zip(centers, grid.cells.tolist()) for x, label in zip(centers, row)))


def save_report(report: EvalReport, path, config_echo: dict | None = None,
                convergence_warnings: list | None = None) -> None:
    """Deterministic JSON (sorted keys, no timestamps) so identical runs
    produce byte-identical files."""
    doc = {**asdict(report, dict_factory=_json_ready),
           "accuracy": report.accuracy, "n_total": report.n_total}
    if config_echo is not None:
        doc["config"] = config_echo
    if convergence_warnings is not None:
        doc["convergence_warnings"] = list(convergence_warnings)
    _write_json(doc, path)


def save_confusion_csv(report: EvalReport, path) -> None:
    """Confusion counts with truth classes as rows, predictions as columns."""
    counts = report.confusion.astype(int).tolist()
    rows = [["truth\\prediction", *report.classes]]
    rows += [[c, *row] for c, row in zip(report.classes, counts)]
    _write_artifact(path, "".join(",".join(map(str, row)) + "\n" for row in rows))
