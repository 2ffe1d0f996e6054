"""Window/stride segmentation and the two standardization schemes.

Data standardization: per-subject z-score of the raw series before
windowing. Feature standardization: z-score of feature vectors with
statistics fit on the training split only, applied unchanged to test
vectors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError
from .series import N_CLASSES, SubjectSeries

EPSILON = 1e-12

#: A sampling step may differ from the series' median step by at most this
#: fraction of it.
UNIFORM_TOLERANCE = 1e-3


@dataclass(frozen=True)
class WindowConfig:
    window_size: int
    stride: int

    def __post_init__(self):
        if self.window_size < 2:
            raise ConfigError("window_size must be >= 2")
        if self.stride < 1:
            raise ConfigError("stride must be >= 1")


class StandardizationMode(enum.Enum):
    NONE = "none"
    DATA = "data"
    FEATURE = "feature"


def window_count(n: int, cfg: WindowConfig) -> int:
    if n < cfg.window_size:
        return 0
    return (n - cfg.window_size) // cfg.stride + 1


@dataclass(frozen=True)
class Segments:
    """One series cut into windows, as arrays aligned by window.

    ``values`` is a read-only (n, W) view into the series; ``labels`` holds
    each window's majority label. Window i starts at sample i * stride.
    """

    subject_id: str
    values: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return int(self.labels.size)


def _median(values: np.ndarray) -> np.float64:
    """``np.median`` of a non-empty 1-D array, bit for bit, from one sort.

    numpy's own formula, the mean of the one or two middle values; calling
    ``np.median`` would import ``numpy.ma``, which nothing else here needs.
    """
    ordered = np.sort(values)
    half = ordered.size // 2
    return ordered[half] if ordered.size % 2 else ordered[half - 1 : half + 1].mean()


def _check_uniform(series: SubjectSeries) -> None:
    """Refuse a series whose sampling steps differ from their median.

    Windows are cut by sample index, so an irregular series would mix time
    scales; resampling (``corpus.resample_period_s``) makes it uniform.
    """
    if len(series) < 3:
        return
    steps = np.diff(series.timestamps)
    median = _median(steps)
    off = np.flatnonzero(np.abs(steps - median) > UNIFORM_TOLERANCE * median)
    if off.size:
        i = int(off[0]) + 1
        raise DataError(
            f"subject {series.subject_id!r}: sample {i} (t={float(series.timestamps[i])}) "
            f"comes {float(steps[i - 1])} s after the one before it, against a median "
            f"step of {float(median)} s; set corpus.resample_period_s to resample"
        )


def _window_labels(labels: np.ndarray, starts: np.ndarray, w: int) -> np.ndarray:
    """Majority label of each window ``labels[start : start + w]``.

    Ties go to the label of the window's last sample when it is among the
    most frequent, otherwise to the lowest tied label.
    """
    cumulative = np.zeros((labels.size + 1, N_CLASSES), dtype=np.int64)
    np.cumsum(labels[:, None] == np.arange(N_CLASSES), axis=0, out=cumulative[1:])
    counts = cumulative[starts + w] - cumulative[starts]
    last = labels[starts + w - 1]
    last_is_top = counts[np.arange(starts.size), last] == counts.max(axis=1)
    return np.where(last_is_top, last, counts.argmax(axis=1))


def segment(series: SubjectSeries, cfg: WindowConfig) -> Segments:
    """Cut a uniform series into overlapping windows.

    Windows start at indices 0, S, 2S, ...; a series shorter than one window
    yields no windows. The window label is the majority of its per-sample
    labels, ties broken by the label of the window's last sample (or, when
    that label is not among the tied ones, by the lowest tied label). A
    non-uniform series raises a DataError.
    """
    _check_uniform(series)
    w, s = cfg.window_size, cfg.stride
    starts = np.arange(window_count(len(series), cfg), dtype=np.int64) * s
    if starts.size == 0:
        return Segments(series.subject_id, np.zeros((0, w)), np.zeros(0, np.int64))
    values = sliding_window_view(series.bpm, w)[::s]
    return Segments(series.subject_id, values, _window_labels(series.labels, starts, w))


def subject_stats(series: SubjectSeries) -> tuple[float, float]:
    """(mean, sample std) of one subject's full bpm trace."""
    mean = float(series.bpm.mean())
    std = float(series.bpm.std(ddof=1)) if len(series) > 1 else 0.0
    return mean, std


def standardize_series(series: SubjectSeries) -> SubjectSeries:
    """Per-subject z-score over the subject's own full series.

    Uses the sample standard deviation (denominator N-1). Labels and
    timestamps are unchanged.
    """
    if len(series) < 2:
        raise DataError(f"{series.subject_id}: need at least 2 samples")
    mean, std = subject_stats(series)
    if std < EPSILON:
        raise DataError(f"{series.subject_id}: constant series")
    return series.with_bpm((series.bpm - mean) / std)


@dataclass(frozen=True)
class Scaler:
    """Per-dimension standardizer with learned mean/std; a std below
    ``EPSILON`` is stored as 1."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.ascontiguousarray(self.mean, dtype=np.float64)
        std = np.ascontiguousarray(self.std, dtype=np.float64)
        if mean.shape != std.shape or mean.ndim != 1:
            raise DataError("scaler mean/std must be equal-length vectors")
        std = np.where(std < EPSILON, 1.0, std)  # constant dims pass through
        for name, arr in (("mean", mean), ("std", std)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def fit_scaler(train_vectors: np.ndarray | list) -> Scaler:
    """Fit per-dimension mean/std from training vectors only."""
    mat = np.asarray(train_vectors, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] == 0:
        raise DataError("expected a non-empty (n, d) training matrix")
    mean = mat.mean(axis=0)
    std = mat.std(axis=0, ddof=1) if mat.shape[0] > 1 else np.zeros(mat.shape[1])
    return Scaler(mean=mean, std=std)


def apply_scaler(scaler: Scaler, vectors: np.ndarray | list) -> np.ndarray:
    """Standardize an (n, d) matrix with a fitted scaler."""
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != scaler.mean.shape[0]:
        raise DataError(f"expected an (n, {scaler.mean.shape[0]}) matrix, got shape {arr.shape}")
    return (arr - scaler.mean) / scaler.std
