"""Seeded synthetic cohorts for desk-scale experiments.

Each subject draws a resting baseline, follows its group's per-activity BPM
offset profile through the five protocol segments with an exponential lag at
every transition, and receives additive AR(1) noise. Output is deterministic
given (spec, seed): the same spec produces byte-identical corpora on every
run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .series import N_CLASSES, SubjectSeries

#: Protocol segment durations in seconds: Rest, Breathe, Activity, RestAC, Type.
DEFAULT_SEGMENT_DURATIONS = (240.0, 60.0, 300.0, 120.0, 60.0)

BASELINE_MEAN = 65.0
BASELINE_VAR = 8.0
BASELINE_CLIP = (45.0, 100.0)

#: The device id of every generated series.
DEVICE = "synthetic"

#: Most samples (subjects x samples per subject) a cohort may hold; checked before allocating.
MAX_SAMPLES = 10**7


def default_group_profiles(n_groups: int) -> tuple[tuple[float, ...], ...]:
    """Per-group BPM offsets above the subject baseline, one value per activity.

    Groups are shifted against each other and respond more strongly to the
    Activity segment as the group index grows, so group g's Activity range
    collides with group g+2's resting range. That overlap is what makes
    cluster-routed models worth having on these cohorts.
    """
    profiles = []
    for g in range(n_groups):
        shift = 14.0 * g
        profiles.append(
            (shift, shift + 5.0, shift + 30.0 + 6.0 * g, shift + 12.0 + 2.0 * g, shift + 3.0)
        )
    return tuple(profiles)


@dataclass(frozen=True)
class SyntheticCohortSpec:
    n_subjects: int
    n_groups: int
    seed: int
    period_s: float = 1.0
    segment_durations_s: tuple[float, ...] = DEFAULT_SEGMENT_DURATIONS
    group_offset_profiles: tuple[tuple[float, ...], ...] | None = None
    lag_tau_s: float = 20.0
    noise_ar_coeff: float = 0.8
    noise_std: float = 1.5

    def validate(self) -> None:
        if self.n_subjects < 1 or self.n_groups < 1:
            raise ConfigError("n_subjects and n_groups must be positive")
        if self.n_groups > self.n_subjects:
            raise ConfigError("n_groups must not exceed n_subjects")
        if self.seed < 0 or self.seed > 2**64 - 1:
            raise ConfigError("seed must fit in 64 unsigned bits")
        if not self.period_s > 0:
            raise ConfigError("period_s must be positive")
        if len(self.segment_durations_s) != N_CLASSES:
            raise ConfigError("exactly five segment durations required")
        if not all(0 < d < math.inf for d in self.segment_durations_s):
            raise ConfigError("segment durations must be finite and positive")
        per_subject = sum(self.segment_durations_s) / self.period_s
        if per_subject < 1:
            raise ConfigError("period longer than the whole protocol")
        if not (self.n_subjects <= MAX_SAMPLES and self.n_subjects * per_subject <= MAX_SAMPLES):
            raise ConfigError(f"{self.n_subjects} subjects x {per_subject:.6g} samples exceed "
                              f"MAX_SAMPLES = {MAX_SAMPLES}")
        if not 0 <= self.noise_ar_coeff < 1:
            raise ConfigError("noise_ar_coeff must lie in [0, 1)")
        for name in ("noise_std", "lag_tau_s"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and non-negative")
        if self.group_offset_profiles is not None:
            if len(self.group_offset_profiles) != self.n_groups:
                raise ConfigError("one offset profile per group required")
            if any(len(p) != N_CLASSES for p in self.group_offset_profiles):
                raise ConfigError("offset profiles must have five entries")

    def profiles(self) -> tuple[tuple[float, ...], ...]:
        if self.group_offset_profiles is not None:
            return tuple(tuple(float(x) for x in p) for p in self.group_offset_profiles)
        return default_group_profiles(self.n_groups)


def _segment_trace(spec: SyntheticCohortSpec, offsets, baseline, times):
    """Deterministic BPM trajectory: segment targets with exponential lag."""
    boundaries = np.cumsum((0.0,) + tuple(spec.segment_durations_s))
    targets = baseline + np.asarray(offsets, dtype=np.float64)
    trace = np.empty_like(times)
    level_at_start = targets[0]  # session starts in steady state
    for s in range(N_CLASSES):
        lo, hi = boundaries[s], boundaries[s + 1]
        mask = (times >= lo) & (times < hi)
        seg_t = times[mask] - lo
        if spec.lag_tau_s > 0:
            trace[mask] = targets[s] + (level_at_start - targets[s]) * np.exp(-seg_t / spec.lag_tau_s)
            level_at_start = targets[s] + (level_at_start - targets[s]) * np.exp(
                -(hi - lo) / spec.lag_tau_s
            )
        else:
            trace[mask] = targets[s]
            level_at_start = targets[s]
    return trace, boundaries


def _labels_for(times, boundaries):
    labels = np.searchsorted(boundaries, times, side="right") - 1
    return np.clip(labels, 0, N_CLASSES - 1).astype(np.int64)


def generate_synthetic(spec: SyntheticCohortSpec) -> tuple[list[SubjectSeries], dict[str, int]]:
    """Generate one cohort; returns (series list, subject_id -> group index)."""
    spec.validate()
    profiles = spec.profiles()
    n = int(sum(spec.segment_durations_s) / spec.period_s)
    times = np.arange(n, dtype=np.float64) * spec.period_s

    corpus: list[SubjectSeries] = []
    groups: dict[str, int] = {}
    for i in range(spec.n_subjects):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(spec.seed), i)))
        group = i % spec.n_groups
        baseline = float(
            np.clip(BASELINE_MEAN + np.sqrt(BASELINE_VAR) * rng.standard_normal(), *BASELINE_CLIP)
        )
        trace, boundaries = _segment_trace(spec, profiles[group], baseline, times)
        if spec.noise_std > 0:
            eps = spec.noise_std * rng.standard_normal(n)
            noise = []
            acc = 0.0
            phi = spec.noise_ar_coeff
            for e in eps.tolist():  # Python floats: the same IEEE steps as numpy scalars
                acc = phi * acc + e
                noise.append(acc)
            trace = trace + np.array(noise)
        subject_id = f"S{i:03d}"
        corpus.append(
            SubjectSeries(
                subject_id=subject_id,
                device_id=DEVICE,
                timestamps=times,
                bpm=trace,
                labels=_labels_for(times, boundaries),
            )
        )
        groups[subject_id] = group
    return corpus, groups
