"""Sample schema, CSV ingestion, min-max scaling, and synthetic datasets.

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
import numbers
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CsvParseError, DegenerateDataError, DimensionError, InvalidInputError

LABELS = ("LOS", "NLOS", "LOS_NLOS")

CSV_HEADER = ["cn0_diff", "elevation_deg", "label"]
_FEATURES = ("cn0_diff", "elevation")  # the columns of Dataset.features()

T0_SHAPE = "T0_SHAPE"
T1_SHAPE = "T1_SHAPE"
T2_SHAPE = "T2_SHAPE"
PRESETS = (T0_SHAPE, T1_SHAPE, T2_SHAPE)

_PRESET_COUNTS = {
    T0_SHAPE: {"LOS": 80, "NLOS": 40, "LOS_NLOS": 32},
    T1_SHAPE: {"LOS": 23, "NLOS": 10, "LOS_NLOS": 8},
    T2_SHAPE: {"LOS": 80, "NLOS": 10, "LOS_NLOS": 30},
}

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
        if not math.isfinite(self.cn0_diff):
            raise InvalidInputError(f"cn0_diff must be finite, got {self.cn0_diff}")
        if not math.isfinite(self.elevation):
            raise InvalidInputError(f"elevation must be finite, got {self.elevation}")
        if not 0.0 <= self.elevation <= 90.0:
            raise ValueError(
                f"elevation {self.elevation} out of [0, 90] degrees"
            )
        if self.label not in LABELS:
            raise ValueError(f"unknown label {self.label!r}")


@dataclass(eq=False)
class Dataset:
    samples: list[SignalSample]

    def __len__(self) -> int:
        return len(self.samples)

    def features(self) -> np.ndarray:
        """n x 2 matrix with columns (cn0_diff, elevation), also for n = 0."""
        rows = [[s.cn0_diff, s.elevation] for s in self.samples]
        return np.array(rows, dtype=float).reshape(len(rows), len(_FEATURES))

    def labels(self) -> list[str]:
        return [s.label for s in self.samples]


@dataclass(eq=False)
class ScalerParams:
    data_min: np.ndarray
    data_max: np.ndarray
    target_lo: float = 0.0
    target_hi: float = 1.0

    def __post_init__(self):
        if not -math.inf < self.target_lo < self.target_hi < math.inf:
            raise ValueError(f"target_hi must exceed target_lo, both finite, "
                             f"got [{self.target_lo}, {self.target_hi}]")
        if not self.data_min.shape == self.data_max.shape == (len(_FEATURES),):
            raise ValueError(f"data_min and data_max must hold {len(_FEATURES)} values, "
                             f"got shapes {self.data_min.shape} and {self.data_max.shape}")
        for lo, hi, name in zip(self.data_min.tolist(), self.data_max.tolist(), _FEATURES):
            if not -math.inf < lo < hi < math.inf:
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


@contextmanager
def _open_artifact(path):
    """``open(path, "w", encoding="utf-8")`` for every artifact, except that
    an existing file is overwritten from offset 0 instead of truncated first
    (on ext4, closing a file truncated to zero and written again starts
    writeback). On exit, exception or not, a regular file is cut at the
    current position; devices and pipes cannot be cut and are left as is."""
    with open(path, "w", encoding="utf-8", opener=_open_in_place) as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def write_csv(dataset: Dataset, path) -> None:
    """Writer counterpart of load_csv; floats use repr for exact round trips."""
    with _open_artifact(path) as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for s in dataset.samples:
            fh.write(f"{float(s.cn0_diff)!r},{float(s.elevation)!r},{s.label}\n")


def fit_scaler(train: Dataset, target_lo: float = 0.0, target_hi: float = 1.0) -> ScalerParams:
    """Record per-feature min/max from the training set only."""
    if not train.samples:
        raise ValueError("cannot fit a scaler on an empty dataset")
    X = train.features()
    return ScalerParams(X.min(axis=0), X.max(axis=0), float(target_lo), float(target_hi))


def apply_scaler(params: ScalerParams, data) -> np.ndarray:
    """Linear per-feature map onto [target_lo, target_hi].

    Values outside the fitted range are not clamped and land outside the
    target interval. Anything but an (m, 2) matrix or a Dataset raises
    DimensionError.
    """
    X = data.features() if isinstance(data, Dataset) else np.asarray(data, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(_FEATURES):
        raise DimensionError(f"expected an (m, {len(_FEATURES)}) feature matrix, "
                             f"got shape {X.shape}")
    span = params.data_max - params.data_min
    scale = (params.target_hi - params.target_lo) / span
    return params.target_lo + (X - params.data_min) * scale


def _check_int(value, name: str, lo=-math.inf, hi=math.inf) -> None:
    """The check of every integer setting: ``bool`` and non-integers are
    rejected, numpy integers accepted."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or not lo <= value <= hi:
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")


def _check_positive(value, name: str) -> None:
    """The check of every positive real setting: ``bool`` and non-reals are
    rejected, numpy floats accepted, and the value must be finite."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


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
        raise ValueError(f"unknown preset {preset!r}, expected one of {PRESETS}")
    rng = np.random.default_rng([mask_seed(seed), PRESETS.index(preset)])
    samples = []
    for label in LABELS:
        count = _PRESET_COUNTS[preset][label]
        mean, std, elo, ehi = _CLASS_DISTRIBUTIONS[label]
        cn0 = rng.normal(mean, std, size=count)
        elevation = np.clip(rng.uniform(elo, ehi, size=count), 0.0, 90.0)
        samples.extend(
            SignalSample(float(c), float(e), label) for c, e in zip(cn0, elevation)
        )
    return Dataset(samples=samples)
