"""Core domain types: activity labels, samples and per-subject series.

A SubjectSeries stores its samples as parallel numpy arrays (timestamps, bpm,
labels). Arrays are frozen after construction so series can be shared
read-only across workers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


class ActivityLabel(enum.IntEnum):
    """The five protocol activities, in protocol order."""

    Rest = 0
    Breathe = 1
    Activity = 2
    RestAC = 3
    Type = 4


LABEL_NAMES = tuple(label.name for label in ActivityLabel)
N_CLASSES = len(ActivityLabel)

BPM_MIN = 20.0
BPM_MAX = 250.0


def bpm_in_range(bpm: float) -> bool:
    return BPM_MIN < bpm < BPM_MAX


@dataclass(frozen=True)
class HeartRateSample:
    timestamp: float  # seconds since session start
    bpm: float
    label: ActivityLabel


@dataclass(frozen=True)
class SubjectSeries:
    """One subject's uniformly- or irregularly-sampled heart-rate trace."""

    subject_id: str
    device_id: str
    timestamps: np.ndarray  # float64, strictly increasing, >= 0
    bpm: np.ndarray         # float64
    labels: np.ndarray      # int64, ActivityLabel values

    def __post_init__(self):
        ts = np.ascontiguousarray(self.timestamps, dtype=np.float64)
        bpm = np.ascontiguousarray(self.bpm, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if ts.size == 0:
            raise DataError("series must contain at least one sample")
        if not (ts.shape == bpm.shape == labels.shape):
            raise DataError("timestamps, bpm and labels must have equal length")
        if not np.all(np.isfinite(ts)):
            raise DataError("timestamps must be finite")
        if ts.size > 1 and not np.all(np.diff(ts) > 0):
            raise DataError("timestamps must be strictly increasing")
        if ts[0] < 0:
            raise DataError("timestamps must be non-negative")
        for arr, name in ((ts, "timestamps"), (bpm, "bpm"), (labels, "labels")):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def sample(self, i: int) -> HeartRateSample:
        return HeartRateSample(
            float(self.timestamps[i]), float(self.bpm[i]), ActivityLabel(int(self.labels[i]))
        )

    def with_bpm(self, bpm: np.ndarray) -> "SubjectSeries":
        """Copy of this series with replaced values (timestamps/labels kept)."""
        return SubjectSeries(self.subject_id, self.device_id, self.timestamps, bpm, self.labels)


@dataclass(frozen=True)
class GapRecord:
    """One interval where raw samples were further apart than the gap threshold."""

    subject_id: str
    gap_start_s: float
    gap_end_s: float


def parse_label(text: str) -> ActivityLabel:
    try:
        return ActivityLabel[text]
    except KeyError:
        from .errors import UnknownLabel

        raise UnknownLabel(text) from None
