"""Sample schema, CSV I/O, min-max scaling, synthetic datasets and the artifact writer.

Each sample pairs the RHCP-LHCP carrier-to-noise density difference (dB-Hz)
with the satellite elevation angle (degrees) and one of three reception
labels. The synthetic generator stands in for field recordings that are not
publicly available: class counts follow the preset shapes, while the value
distributions are domain-plausible inventions (reflections flip circular
polarization, so LOS has a strongly positive C/N0 difference and NLOS sits
near zero or below).
"""

from __future__ import annotations

import csv
import math
import os
import stat
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (CsvParseError, DegenerateDataError, DimensionError, InvalidInputError,
                     InvalidLabelsError, InvalidSettingError)

LABELS = ("LOS", "NLOS", "LOS_NLOS")

CSV_HEADER = ["cn0_diff", "elevation_deg", "label"]
_FEATURES = ("cn0_diff", "elevation")  # the columns of Dataset.features()

_PRESET_COUNTS = {
    "T0_SHAPE": {"LOS": 80, "NLOS": 40, "LOS_NLOS": 32},
    "T1_SHAPE": {"LOS": 23, "NLOS": 10, "LOS_NLOS": 8},
    "T2_SHAPE": {"LOS": 80, "NLOS": 10, "LOS_NLOS": 30},
}
PRESETS = tuple(_PRESET_COUNTS)

_U64 = (1 << 64) - 1

# label -> (cn0 mean, cn0 std, elevation low, elevation high)
_CLASS_DISTRIBUTIONS = {
    "LOS": (8.0, 2.0, 30.0, 90.0),
    "NLOS": (-3.0, 2.0, 5.0, 45.0),
    "LOS_NLOS": (2.0, 2.5, 10.0, 60.0),
}


@dataclass(frozen=True)
class SignalSample:
    cn0_diff: float
    elevation: float
    label: str

    def __post_init__(self):
        for name, value in (("cn0_diff", self.cn0_diff), ("elevation", self.elevation)):
            if not (_is_real(value) and math.isfinite(value)):
                raise InvalidInputError(f"{name} must be finite, got {value!r}")
        if not 0.0 <= self.elevation <= 90.0:
            raise InvalidInputError(f"elevation {self.elevation} out of [0, 90] degrees")
        if self.label not in LABELS:
            raise InvalidLabelsError(f"unknown label {self.label!r}")


@dataclass(frozen=True, eq=False)
class Dataset:
    samples: tuple[SignalSample, ...]

    def __post_init__(self):
        if not isinstance(self.samples, (list, tuple)) \
                or not all(isinstance(s, SignalSample) for s in self.samples):
            raise InvalidInputError("a Dataset holds only SignalSample objects")
        vars(self)["samples"] = tuple(self.samples)  # frozen: stored past __setattr__

    def __len__(self) -> int:
        return len(self.samples)

    def features(self) -> np.ndarray:
        """n x 2 matrix with columns (cn0_diff, elevation), also for n = 0."""
        rows = [[s.cn0_diff, s.elevation] for s in self.samples]
        return np.array(rows, dtype=float).reshape(len(rows), len(_FEATURES))

    def labels(self) -> list[str]:
        return [s.label for s in self.samples]


@dataclass(frozen=True, eq=False)
class ScalerParams:
    data_min: np.ndarray
    data_max: np.ndarray
    target_lo: float = 0.0
    target_hi: float = 1.0

    def __post_init__(self):
        target_lo, target_hi = _check_targets(self.target_lo, self.target_hi)
        data_min, data_max = (_read_only(_numbers(v)) for v in (self.data_min, self.data_max))
        if not data_min.shape == data_max.shape == (len(_FEATURES),):
            raise DimensionError(f"data_min and data_max must hold {len(_FEATURES)} values, "
                                 f"got shapes {data_min.shape} and {data_max.shape}")
        with np.errstate(all="ignore"):  # left to the test below
            scale = _read_only((target_hi - target_lo) / (data_max - data_min))
        vars(self).update(target_lo=target_lo, target_hi=target_hi, data_min=data_min,
                          data_max=data_max, _scale=scale)  # frozen: stored past __setattr__
        for lo, hi, s, name in zip(data_min.tolist(), data_max.tolist(), scale.tolist(), _FEATURES):
            if not 0 < s < math.inf:
                raise DegenerateDataError(
                    f"feature {name!r} has no finite range [{lo!r}, {hi!r}]; cannot scale")


def _parse_float(text: str, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"unparsable {column} {text!r}") from None


def load_csv(path) -> Dataset:
    """Parse a sample CSV; schema errors name the offending line."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CsvParseError(f"{path}: empty file")
    if rows[0] != CSV_HEADER:
        raise CsvParseError(
            f"{path}:1: bad header {','.join(rows[0])!r}, "
            f"expected {','.join(CSV_HEADER)!r}"
        )
    samples = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        try:
            if len(row) != 3:
                raise ValueError(f"expected 3 columns, got {len(row)}")
            samples.append(SignalSample(_parse_float(row[0], "cn0_diff"),
                                        _parse_float(row[1], "elevation_deg"), row[2]))
        except ValueError as exc:
            raise CsvParseError(f"{path}:{lineno}: {exc}") from None
    if not samples:
        raise CsvParseError(f"{path}: no data rows")
    return Dataset(samples=samples)


def _open_in_place(path, flags):
    # open()'s own flags (O_CLOEXEC, O_BINARY on Windows) without O_TRUNC;
    # 0o666 is the creation mode open() itself uses.
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_artifact(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, lines ending in LF on every platform.
    It is encoded before the file is opened, so a failed render or encode
    leaves an existing file as it was. That file is overwritten from offset 0,
    not truncated first (on ext4, closing a file truncated to zero and written
    again starts writeback); a regular file is then cut where the write
    stopped, even when it raised. Devices and pipes are left as they are."""
    data = memoryview(text.encode("utf-8"))
    with open(path, "wb", buffering=0, opener=_open_in_place) as fh:
        try:
            while data:  # one write() may take only part of it
                data = data[fh.write(data):]
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def write_csv(dataset: Dataset, path) -> None:
    """Writer counterpart of load_csv; floats use repr for exact round trips."""
    rows = "".join(f"{cn0!r},{elevation!r},{label}\n" for (cn0, elevation), label
                   in zip(dataset.features().tolist(), dataset.labels()))
    _write_artifact(path, ",".join(CSV_HEADER) + "\n" + rows)


def fit_scaler(train: Dataset, target_lo: float = 0.0, target_hi: float = 1.0) -> ScalerParams:
    """Record per-feature min/max from the training set only."""
    if not isinstance(train, Dataset):
        raise InvalidInputError(f"a scaler is fitted on a Dataset, got {type(train).__name__}")
    if not train.samples:
        raise InvalidInputError("cannot fit a scaler on an empty dataset")
    X = train.features()
    return ScalerParams(X.min(axis=0), X.max(axis=0), target_lo, target_hi)


def apply_scaler(params: ScalerParams, data) -> np.ndarray:
    """Linear per-feature map onto [target_lo, target_hi].

    Values outside the fitted range are not clamped and land outside the
    target interval. Anything but an (m, 2) matrix or a Dataset raises
    DimensionError. A value that ``_numbers`` refuses (a bool, a string), is
    not finite, or whose scaled value is not, raises InvalidInputError.
    """
    X = data.features() if isinstance(data, Dataset) else _numbers(data)
    if X.ndim != 2 or X.shape[1] != len(_FEATURES):
        raise DimensionError(f"expected an (m, {len(_FEATURES)}) feature matrix, "
                             f"got shape {X.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # left to the check below
        scaled = params.target_lo + (X - params.data_min) * params._scale
    if not np.isfinite(scaled).all():
        raise InvalidInputError("feature values and their scaled values must be finite")
    return scaled


def _numbers(value, integer: bool = False) -> np.ndarray:
    """The conversion of every array a caller passes (features, Grams, SMO
    labels, model and scaler arrays): ``value`` as a float64 array, or an int
    one if ``integer``. A numeric array passes at once; lists, tuples and
    object arrays may nest only such arrays and ``_is_real`` numbers (ints if
    ``integer``): numpy alone takes "0.5" as 0.5, True as 1, cuts 0.5 to 0 and
    drops an imaginary part."""
    stack, kinds, plain = [value], "iu" if integer else "iuf", (int,) if integer else (int, float)
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray) and item.dtype.kind == "O":
            item = item.tolist()  # the objects it holds, nested as its rows
        if isinstance(item, (list, tuple)):
            stack.extend(item)
        elif type(item) not in plain and not (  # JSON's int and float: no bool gets here
                isinstance(item, np.ndarray) and item.dtype.kind in kinds or _is_real(item)
                and (not integer or isinstance(item, (int, np.integer)))):
            raise InvalidInputError(
                f"expected {'integers' if integer else 'numbers'}, got {item!r}")
    try:
        return np.asarray(value, dtype=int if integer else float)
    except (OverflowError, ValueError) as exc:  # an int out of range, ragged lists
        raise InvalidInputError(str(exc)) from None


def _read_only(array: np.ndarray) -> np.ndarray:
    array = array.copy()  # _numbers may return the caller's own array
    array.flags.writeable = False
    return array


def _check_matrix(X, name: str = "X", width: int | None = None) -> np.ndarray:
    """The check of every feature matrix: X must be a non-empty 2-D matrix of
    finite values, ``width`` columns wide when that is given. Beyond 1e150 in
    magnitude the feature map's phases and RBF's distances would overflow."""
    X = _numbers(X)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DimensionError(f"{name} must be a non-empty 2-D matrix, got shape {X.shape}")
    if width is not None and X.shape[1] != width:
        raise DimensionError(f"{name} has {X.shape[1]} feature(s), expected {width}")
    if not np.abs(X).max(initial=0.0) <= 1e150:  # NaN fails too
        raise InvalidInputError("feature values must be finite, at most 1e150 in magnitude")
    return X


def _check_int(value, name: str, lo=-math.inf, hi=math.inf) -> None:
    """The check of every integer setting: ``bool`` and non-integers are
    rejected, numpy integers accepted."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or not lo <= value <= hi:
        raise InvalidSettingError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")


def _is_real(value) -> bool:
    """The type test of every real number a caller passes (a setting, a sample's
    value, an array entry): Python and numpy integers and floats pass (a float, as
    every CSV value is, on the first test); ``bool``, ``np.longdouble``, ints beyond
    float range and every other number type (``Fraction``, ``Decimal``) fail, since
    the artifacts could not record them."""
    return type(value) is float or not isinstance(value, (bool, np.longdouble)) \
        and isinstance(value, (int, float, np.integer, np.floating)) \
        and not (isinstance(value, int) and abs(value) > sys.float_info.max)


def _check_targets(lo, hi) -> tuple[float, float]:
    """The rule of every scaling target interval, returned as floats."""
    if not (_is_real(lo) and _is_real(hi)):
        raise InvalidSettingError(
            f"scaler targets must be integers or floats, got {lo!r} and {hi!r}")
    if not 0 < float(hi) - float(lo) < math.inf:
        raise InvalidSettingError(
            f"target_hi must exceed target_lo by a finite span, got [{lo}, {hi}]")
    return float(lo), float(hi)


def _check_positive(value, name: str) -> None:
    """The check of every positive real setting: ``_is_real``, positive and finite."""
    if not _is_real(value) or not 0 < value < math.inf:
        raise InvalidSettingError(f"{name} must be positive and finite, got {value!r}")


def mask_seed(seed: int) -> int:
    """Map an arbitrary integer (negatives included) onto the unsigned
    64-bit range of numpy's ``SeedSequence``, which seeds every PCG64
    generator of the package: ``generate_synthetic`` here, and the per-entry
    seeds of the sampled kernels. A non-integer seed is rejected."""
    _check_int(seed, "seed")
    return int(seed) & _U64


def generate_synthetic(preset: str, seed: int = 0) -> Dataset:
    """Seeded synthetic dataset with the preset's exact class counts.

    The generator stream is keyed on (seed, preset) so datasets drawn from
    different presets with the same seed share no samples.
    """
    if preset not in _PRESET_COUNTS:
        raise InvalidSettingError(f"unknown preset {preset!r}, expected one of {PRESETS}")
    rng = np.random.default_rng([mask_seed(seed), PRESETS.index(preset)])
    samples = []
    for label in LABELS:
        count = _PRESET_COUNTS[preset][label]
        mean, std, elo, ehi = _CLASS_DISTRIBUTIONS[label]
        cn0 = rng.normal(mean, std, size=count)
        elevation = rng.uniform(elo, ehi, size=count)
        samples.extend(
            SignalSample(float(c), float(e), label) for c, e in zip(cn0, elevation)
        )
    return Dataset(samples=samples)
