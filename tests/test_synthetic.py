"""Synthetic cohort generator: determinism, degenerate cases, separation."""

import re

import numpy as np
import pytest

from hractivity import synthetic
from hractivity.errors import ConfigError
from hractivity.synthetic import (
    DEFAULT_SEGMENT_DURATIONS,
    SyntheticCohortSpec,
    default_group_profiles,
    generate_synthetic,
)


def test_same_seed_identical_corpora():
    spec = SyntheticCohortSpec(n_subjects=6, n_groups=3, seed=1)
    a, groups_a = generate_synthetic(spec)
    b, groups_b = generate_synthetic(spec)
    assert groups_a == groups_b
    for x, y in zip(a, b):
        assert x.subject_id == y.subject_id
        assert x.timestamps.tobytes() == y.timestamps.tobytes()
        assert x.bpm.tobytes() == y.bpm.tobytes()
        assert x.labels.tobytes() == y.labels.tobytes()


def test_different_seeds_differ():
    a, _ = generate_synthetic(SyntheticCohortSpec(n_subjects=2, n_groups=1, seed=1))
    b, _ = generate_synthetic(SyntheticCohortSpec(n_subjects=2, n_groups=1, seed=2))
    assert not np.array_equal(a[0].bpm, b[0].bpm)


def test_degenerate_noise_and_lag_piecewise_constant():
    profiles = ((0.0, 5.0, 30.0, 12.0, 3.0),)
    spec = SyntheticCohortSpec(
        n_subjects=3, n_groups=1, seed=4, noise_std=0.0, lag_tau_s=0.0,
        group_offset_profiles=profiles,
    )
    corpus, _ = generate_synthetic(spec)
    for s in corpus:
        baseline = s.bpm[0]
        for activity, offset in enumerate(profiles[0]):
            seg = s.bpm[s.labels == activity]
            assert np.all(seg == baseline + offset - profiles[0][0])
        assert 45.0 <= baseline <= 100.0


def test_labels_follow_segment_boundaries():
    corpus, _ = generate_synthetic(SyntheticCohortSpec(n_subjects=1, n_groups=1, seed=9))
    s = corpus[0]
    assert len(s) == int(sum(DEFAULT_SEGMENT_DURATIONS))  # 780 at 1 Hz
    counts = np.bincount(s.labels, minlength=5)
    assert list(counts) == [240, 60, 300, 120, 60]
    # labels are sorted: the protocol visits each activity once, in order
    assert np.all(np.diff(s.labels) >= 0)


def test_group_assignment_round_robin():
    _, groups = generate_synthetic(SyntheticCohortSpec(n_subjects=5, n_groups=2, seed=3))
    assert groups == {"S000": 0, "S001": 1, "S002": 0, "S003": 1, "S004": 0}


def test_subject_trace_independent_of_cohort_size():
    small, _ = generate_synthetic(SyntheticCohortSpec(n_subjects=2, n_groups=2, seed=5))
    large, _ = generate_synthetic(SyntheticCohortSpec(n_subjects=6, n_groups=2, seed=5))
    assert np.array_equal(small[0].bpm, large[0].bpm)
    assert np.array_equal(small[1].bpm, large[1].bpm)


def test_default_profiles_shape():
    profiles = default_group_profiles(4)
    assert len(profiles) == 4
    assert all(len(p) == 5 for p in profiles)
    # later groups sit higher and react harder to the Activity segment
    assert profiles[3][0] > profiles[0][0]
    assert profiles[3][2] - profiles[3][0] > profiles[0][2] - profiles[0][0]


INVALID_SPECS = [
    (dict(n_subjects=0, n_groups=1), "n_subjects and n_groups must be positive"),
    (dict(n_subjects=2, n_groups=3), "n_groups must not exceed n_subjects"),
    (dict(n_subjects=2, n_groups=1, period_s=0.0), "period_s must be positive"),
    (dict(n_subjects=2, n_groups=1, segment_durations_s=(240.0, 60.0)),
     "exactly five segment durations required"),
    (dict(n_subjects=2, n_groups=1, segment_durations_s=(240.0, 60.0, -1.0, 120.0, 60.0)),
     "segment durations must be finite and positive"),
    (dict(n_subjects=2, n_groups=1,
          segment_durations_s=(240.0, 60.0, float("nan"), 120.0, 60.0)),
     "segment durations must be finite and positive"),
    (dict(n_subjects=2, n_groups=1, noise_ar_coeff=1.0), "noise_ar_coeff must lie in [0, 1)"),
    (dict(n_subjects=2, n_groups=1, noise_std=-0.5), "noise_std must be finite and non-negative"),
    (dict(n_subjects=2, n_groups=1, noise_std=float("nan")),
     "noise_std must be finite and non-negative"),
    (dict(n_subjects=2, n_groups=1, period_s=float("nan")), "period_s must be positive"),
    (dict(n_subjects=2, n_groups=1, lag_tau_s=-5.0), "lag_tau_s must be finite and non-negative"),
    (dict(n_subjects=2, n_groups=1, lag_tau_s=float("nan")),
     "lag_tau_s must be finite and non-negative"),
    (dict(n_subjects=2, n_groups=2, group_offset_profiles=((0.0,) * 5,)),
     "one offset profile per group required"),
    (dict(n_subjects=2, n_groups=1, group_offset_profiles=((0.0,) * 4,)),
     "offset profiles must have five entries"),
]


@pytest.mark.parametrize("kwargs,message", INVALID_SPECS,
                         ids=[f"kwargs{i}" for i in range(len(INVALID_SPECS))])
def test_invalid_specs_rejected(kwargs, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        generate_synthetic(SyntheticCohortSpec(seed=1, **kwargs))


@pytest.mark.parametrize("kwargs", [
    dict(n_subjects=4, n_groups=2, period_s=1e-9),  # 4 x 7.8e11 samples: 5.68 TiB of times
    dict(n_subjects=10**8, n_groups=2),
    dict(n_subjects=10**400, n_groups=2),
])
def test_cohort_over_the_sample_bound_is_refused_before_any_array(monkeypatch, kwargs):
    def no_arrays(*args, **kw):
        raise AssertionError("an array was allocated before the bound was checked")

    monkeypatch.setattr(synthetic.np, "arange", no_arrays)
    with pytest.raises(ConfigError, match="MAX_SAMPLES"):
        generate_synthetic(SyntheticCohortSpec(seed=1, **kwargs))


def test_sample_bound_is_inclusive(monkeypatch):
    per_subject = int(sum(DEFAULT_SEGMENT_DURATIONS))
    monkeypatch.setattr(synthetic, "MAX_SAMPLES", 3 * per_subject)
    corpus, _ = generate_synthetic(SyntheticCohortSpec(n_subjects=3, n_groups=1, seed=1))
    assert sum(len(s.bpm) for s in corpus) == synthetic.MAX_SAMPLES
    with pytest.raises(ConfigError, match=f"4 subjects x {per_subject} samples"):
        generate_synthetic(SyntheticCohortSpec(n_subjects=4, n_groups=1, seed=1))


def test_activity_separation_between_groups():
    # two groups, offset profiles 30 BPM apart in the Activity segment only;
    # pooled over seeds 1..5 at least 95% of cross-group subject pairs must
    # end up >= 20 BPM apart in their Activity-segment means
    profiles = ((0.0, 5.0, 30.0, 12.0, 3.0), (0.0, 5.0, 60.0, 12.0, 3.0))
    separated = 0
    total = 0
    for seed in range(1, 6):
        spec = SyntheticCohortSpec(
            n_subjects=20, n_groups=2, seed=seed, group_offset_profiles=profiles
        )
        corpus, groups = generate_synthetic(spec)
        means = {
            s.subject_id: float(s.bpm[s.labels == 2].mean()) for s in corpus
        }
        g0 = [means[k] for k, g in groups.items() if g == 0]
        g1 = [means[k] for k, g in groups.items() if g == 1]
        for a in g0:
            for b in g1:
                total += 1
                separated += abs(a - b) >= 20.0
    assert separated / total >= 0.95
