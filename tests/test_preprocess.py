"""Windowing, window labels and both standardization schemes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import segment_reference

from hractivity import preprocess
from hractivity.errors import ConfigError, DataError
from hractivity.preprocess import (
    Scaler,
    Segments,
    WindowConfig,
    apply_scaler,
    fit_scaler,
    segment,
    standardize_series,
    subject_stats,
    window_count,
)
from hractivity.series import ActivityLabel, SubjectSeries
from hractivity.synthetic import SyntheticCohortSpec, generate_synthetic


def series_of(bpm, labels=None, subject="A"):
    bpm = np.asarray(bpm, float)
    ts = np.arange(len(bpm), dtype=float)
    if labels is None:
        labels = np.zeros(len(bpm), dtype=np.int64)
    return SubjectSeries(subject, "dev", ts, bpm, np.asarray(labels))


def test_window_config_validation():
    with pytest.raises(ConfigError, match="^window_size must be >= 2$"):
        WindowConfig(window_size=1, stride=1)
    with pytest.raises(ConfigError, match="^stride must be >= 1$"):
        WindowConfig(window_size=50, stride=0)


def test_window_count_examples():
    assert window_count(780, WindowConfig(50, 10)) == 74
    assert window_count(49, WindowConfig(50, 10)) == 0
    assert window_count(50, WindowConfig(50, 10)) == 1


def test_window_count_formula_randomized():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(0, 10**5))
        w = int(rng.integers(2, 200))
        s = int(rng.integers(1, 200))
        cfg = WindowConfig(w, s)
        expect = (n - w) // s + 1 if n >= w else 0
        assert window_count(n, cfg) == expect


def test_segment_positions_and_values():
    s = series_of(np.arange(10, dtype=float))
    windows = segment(s, WindowConfig(4, 3))
    assert len(windows) == 3
    for i in range(3):  # window i starts at sample i * stride
        assert np.array_equal(windows.values[i], s.bpm[3 * i : 3 * i + 4])
    assert np.array_equal(windows.values[1], [3.0, 4.0, 5.0, 6.0])
    assert windows.values.shape == (3, 4)
    assert windows.subject_id == "A"


def test_segment_sample_coverage():
    # with S <= W every index below the last window's end is covered
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(10, 500))
        w = int(rng.integers(2, 30))
        s = int(rng.integers(1, w + 1))
        series = series_of(rng.uniform(50, 100, n))
        windows = segment(series, WindowConfig(w, s))
        if not len(windows):
            continue
        covered = np.zeros(n, dtype=bool)
        for i, values in enumerate(windows.values):  # window i starts at sample i * s
            assert np.array_equal(values, series.bpm[i * s : i * s + w])
            covered[i * s : i * s + w] = True
        end = (len(windows) - 1) * s + w
        assert covered[:end].all()
        assert n - end < w + s  # only a short tail may be uncovered


def test_window_label_majority():
    labels = [0] * 30 + [2] * 20
    s = series_of(np.zeros(50), labels)
    (label,) = segment(s, WindowConfig(50, 50)).labels
    assert label == ActivityLabel.Rest


def test_window_label_tie_goes_to_last_sample():
    s = series_of(np.zeros(4), [2, 2, 0, 0])
    (label,) = segment(s, WindowConfig(4, 4)).labels
    assert label == ActivityLabel.Rest
    s = series_of(np.zeros(4), [0, 0, 2, 2])
    (label,) = segment(s, WindowConfig(4, 4)).labels
    assert label == ActivityLabel.Activity


def test_window_label_tie_without_last_sample_lowest_wins():
    # counts: two 0s, two 1s, one 4; the last sample is not part of the tie
    s = series_of(np.zeros(5), [0, 0, 1, 1, 4])
    (label,) = segment(s, WindowConfig(5, 5)).labels
    assert label == ActivityLabel.Rest


def test_standardize_series_example():
    out = standardize_series(series_of([60.0, 70.0, 80.0]))
    assert np.allclose(out.bpm, [-1.0, 0.0, 1.0], atol=1e-12)
    assert np.array_equal(out.labels, [0, 0, 0])


def test_standardize_series_moments():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 400))
        out = standardize_series(series_of(rng.uniform(40, 180, n)))
        assert abs(out.bpm.mean()) < 1e-12
        if n > 1:
            assert abs(out.bpm.std(ddof=1) - 1.0) < 1e-12


def test_standardize_series_degenerate():
    with pytest.raises(DataError, match=": constant series$"):
        standardize_series(series_of([70.0, 70.0, 70.0]))
    with pytest.raises(DataError, match=": need at least 2 samples$"):
        standardize_series(series_of([70.0]))


def test_datastd_then_segment_equals_segment_then_affine():
    corpus, _ = generate_synthetic(SyntheticCohortSpec(n_subjects=3, n_groups=1, seed=6))
    cfg = WindowConfig(50, 25)
    for series in corpus:
        mean, std = subject_stats(series)
        pre = segment(standardize_series(series), cfg)
        post = segment(series, cfg)
        assert len(pre) == len(post)
        assert np.array_equal(pre.labels, post.labels)
        assert np.max(np.abs(pre.values - (post.values - mean) / std)) < 1e-12


def test_fit_scaler_example():
    scaler = fit_scaler([[0.0], [2.0]])
    assert scaler.mean[0] == 1.0
    assert abs(scaler.std[0] - np.sqrt(2.0)) < 1e-15
    assert apply_scaler(scaler, [[1.0]])[0, 0] == 0.0


def test_scaler_constant_dimension_guard():
    scaler = fit_scaler([[5.0, 1.0], [5.0, 3.0]])
    assert scaler.std[0] == 1.0  # guard replaces ~0 std
    out = apply_scaler(scaler, [[5.0, 2.0]])
    assert out[0, 0] == 0.0


def test_scaler_normalizes_its_training_set():
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(40, 7)) * rng.uniform(0.5, 4.0, 7) + rng.uniform(-3, 3, 7)
    scaler = fit_scaler(mat)
    out = apply_scaler(scaler, mat)
    assert np.max(np.abs(out.mean(axis=0))) < 1e-9
    assert np.max(np.abs(out.std(axis=0, ddof=1) - 1.0)) < 1e-9


def test_apply_scaler_dimension_mismatch():
    scaler = fit_scaler([[0.0, 1.0], [2.0, 3.0]])
    with pytest.raises(DataError, match=r"^expected an \(n, 2\) matrix, got shape \(1, 3\)$"):
        apply_scaler(scaler, [[1.0, 2.0, 3.0]])
    # a single vector is a (1, d) matrix
    with pytest.raises(DataError, match=r"^expected an \(n, 2\) matrix, got shape \(2,\)$"):
        apply_scaler(scaler, [1.0, 2.0])


def test_scaler_shape_validation():
    with pytest.raises(DataError, match="^scaler mean/std must be equal-length vectors$"):
        Scaler(mean=np.zeros(3), std=np.zeros(2))
    with pytest.raises(DataError, match=r"^expected a non-empty \(n, d\) training matrix$"):
        fit_scaler(np.zeros((0, 3)))


def test_window_values_read_only():
    windows = segment(series_of(np.arange(5, dtype=float)), WindowConfig(5, 5))
    assert isinstance(windows, Segments)
    with pytest.raises(ValueError):
        windows.values[0, 0] = 1.0


@pytest.mark.parametrize("w,s", [(2, 1), (3, 1), (4, 2), (5, 3), (6, 6), (7, 9), (10, 4), (50, 10)])
def test_segment_matches_loop_reference(w, s):
    # few distinct labels in short runs: most windows are ties of some kind
    rng = np.random.default_rng(w * 100 + s)
    for _ in range(30):
        n = int(rng.integers(1, 150))
        pool = rng.choice(5, size=int(rng.integers(1, 4)), replace=False)
        labels = np.repeat(rng.choice(pool, size=n), rng.integers(1, 4, size=n))[:n]
        bpm = rng.uniform(50, 150, labels.size)
        got = segment(series_of(bpm, labels), WindowConfig(w, s))
        values, window_labels, starts = segment_reference(bpm, labels, w, s)
        assert len(got) == len(starts)
        for i, start in enumerate(starts):  # window i starts at sample i * s
            assert start == i * s
            assert np.array_equal(got.values[i], bpm[i * s : i * s + w])
        assert got.labels.tolist() == window_labels
        assert got.values.shape == (len(starts), w)
        if starts:
            assert np.array_equal(got.values, np.stack(values))


def test_segment_of_a_short_series_is_empty():
    windows = segment(series_of(np.arange(4.0)), WindowConfig(5, 1))
    assert len(windows) == 0
    assert windows.values.shape == (0, 5)
    assert windows.labels.shape == (0,)


def test_segment_refuses_non_uniform_series():
    ts = np.arange(100.0)
    ts[40:] += 0.5  # the step into sample 40 is 1.5 s
    irregular = SubjectSeries("A", "dev", ts, np.full(100, 70.0), np.zeros(100, np.int64))
    with pytest.raises(DataError, match=r"subject 'A': sample 40 \(t=40\.5\)"):
        segment(irregular, WindowConfig(10, 5))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=40))
def test_sort_median_is_np_median_bit_for_bit(values):
    steps = np.asarray(values)
    for part in (steps, steps[1:]):  # one odd length and one even
        assert np.float64(preprocess._median(part)).tobytes() == np.median(part).tobytes()


def test_segment_leaves_numpy_ma_unimported():
    # np.median imports numpy.ma (8-10 ms, 1.2 MB) in every process that cuts windows
    code = ("import sys, numpy as np; from hractivity.preprocess import WindowConfig, segment; "
            "from hractivity.series import SubjectSeries; "
            "t = np.arange(60.0); "
            "segment(SubjectSeries('A', 'dev', t, t + 60.0, np.zeros(60, np.int64)), "
            "WindowConfig(10, 5)); "
            "print('numpy.ma' in sys.modules)")
    path = os.pathsep.join(filter(None, [str(Path(preprocess.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_segment_accepts_jitter_within_tolerance():
    rng = np.random.default_rng(4)
    ts = np.arange(200.0) * 2.0 + rng.uniform(-4e-4, 4e-4, 200)  # 2 s steps, 1e-3 tolerance
    ts -= ts[0]
    s = SubjectSeries("A", "dev", ts, np.full(200, 70.0), np.zeros(200, np.int64))
    assert len(segment(s, WindowConfig(10, 5))) == 39
    # two samples have a single step and are uniform by definition
    two = SubjectSeries("B", "dev", [0.0, 7.0], [60.0, 61.0], [0, 0])
    assert len(segment(two, WindowConfig(2, 1))) == 1
