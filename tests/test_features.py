"""Handcrafted feature families against hand-computed and brute-force oracles."""

import numpy as np
import pytest
from oracles import (
    mel_band_energies_reference,
    mfcc_reference,
    order_statistics_reference,
    statistical_matrix_reference,
)

from hractivity.errors import ConfigError, DataError
from hractivity.features import (
    BASE_NAMES,
    MAX_FILTERBANK_WEIGHTS,
    N_MEL_BANDS,
    STATISTICAL_NAMES,
    TEMPORAL_NAMES,
    FeatureSetKind,
    base_matrix,
    feature_matrix,
    feature_names,
    hz_to_mel,
    mel_band_energies,
    mel_filterbank,
    mel_to_hz,
    mfcc_matrix,
    order_statistics,
    statistical_matrix,
    temporal_matrix,
)
from hractivity.preprocess import WindowConfig, segment, standardize_series
from hractivity.synthetic import SyntheticCohortSpec, generate_synthetic

TOL = 1e-9


def one_row(values):
    """A single window as a (1, W) matrix."""
    return np.asarray(values, dtype=np.float64)[None, :]


def base(values):
    return base_matrix(one_row(values))[0]


def stat(values):
    return dict(zip(STATISTICAL_NAMES, statistical_matrix(one_row(values))[0]))


def temp(values):
    return dict(zip(TEMPORAL_NAMES, temporal_matrix(one_row(values))[0]))


def mfcc(values, n_mel_bands=N_MEL_BANDS):
    return mfcc_matrix(one_row(values), n_mel_bands)[0]


def test_base_features_60_70_80():
    got = dict(zip(BASE_NAMES, base([60.0, 70.0, 80.0])))
    assert got["0_Max"] == 80.0
    assert got["0_Min"] == 60.0
    assert got["0_Mean"] == 70.0
    assert abs(got["0_Std"] - 10.0) < TOL
    assert abs(got["0_FirstDerivativeMean"] - 10.0) < TOL
    assert abs(got["0_SecondDerivativeMean"]) < TOL


def test_base_features_constant():
    assert np.allclose(base([72.0] * 5), [72, 72, 72, 0, 0, 0], atol=TOL)


def test_base_features_quadratic():
    got = dict(zip(BASE_NAMES, base([0.0, 1.0, 4.0, 9.0])))
    assert abs(got["0_FirstDerivativeMean"] - 3.0) < TOL  # (1+3+5)/3
    assert abs(got["0_SecondDerivativeMean"] - 2.0) < TOL  # (2+2)/2


def test_base_features_too_short():
    with pytest.raises(DataError, match="^window of 2 samples, need at least 3$"):
        base([60.0, 61.0])


def test_statistical_features_60_70_80():
    got = stat([60.0, 70.0, 80.0])
    assert got["0_Mean"] == 70.0
    assert abs(got["0_Std"] - 10.0) < TOL
    assert abs(got["0_Variance"] - 100.0) < TOL
    assert got["0_Min"] == 60.0 and got["0_Max"] == 80.0
    assert got["0_Median"] == 70.0
    assert abs(got["0_InterquartileRange"] - 10.0) < TOL  # q25=65, q75=75
    assert abs(got["0_Skewness"]) < TOL
    assert abs(got["0_RootMeanSquare"] - np.sqrt(14900.0 / 3.0)) < TOL
    assert abs(got["0_MeanAbsoluteDeviation"] - 20.0 / 3.0) < TOL
    assert abs(got["0_HistogramEntropy"] - np.log(3.0)) < TOL  # three occupied bins


def test_statistical_features_constant():
    got = stat([5.0] * 10)
    assert got["0_Skewness"] == 0.0
    assert got["0_Kurtosis"] == 0.0
    assert got["0_HistogramEntropy"] == 0.0
    assert got["0_Variance"] == 0.0


def test_skewness_zero_on_symmetric_multiset():
    # {1,2,2,3} is symmetric about its mean 2
    assert abs(stat([1.0, 2.0, 2.0, 3.0])["0_Skewness"]) < 1e-12


def test_skew_kurtosis_match_moment_oracle():
    # brute-force population moments, including the time-palindrome window
    # [1,2,3,2,1] whose value multiset is NOT symmetric about its mean
    rng = np.random.default_rng(8)
    cases = [np.array([1.0, 2.0, 3.0, 2.0, 1.0])] + [rng.uniform(40, 120, 30) for _ in range(20)]
    for x in cases:
        m = x.mean()
        m2 = ((x - m) ** 2).mean()
        m3 = ((x - m) ** 3).mean()
        m4 = ((x - m) ** 4).mean()
        got = stat(x)
        assert abs(got["0_Skewness"] - m3 / m2**1.5) < TOL
        assert abs(got["0_Kurtosis"] - (m4 / m2**2 - 3.0)) < TOL


def test_entropy_two_value_window():
    # 6 samples in the bottom bin, 2 in the top: p = (3/4, 1/4)
    x = [0.0] * 6 + [1.0] * 2
    expect = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
    assert abs(stat(x)["0_HistogramEntropy"] - expect) < TOL


def test_temporal_features_alternating():
    got = temp([1.0, -1.0, 1.0, -1.0, 1.0])
    assert abs(got["0_Autocorrelation"] - (-1.0)) < TOL
    assert got["0_ZeroCrossings"] == 4.0


def test_temporal_features_ramp():
    got = temp([0.0, 1.0, 2.0, 3.0])
    assert abs(got["0_Slope"] - 1.0) < TOL
    assert abs(got["0_MeanDiff"] - 1.0) < TOL
    assert got["0_PeakToPeak"] == 3.0
    assert got["0_LocalMaximaCount"] == 0.0
    assert abs(got["0_MeanAbsoluteDiff"] - 1.0) < TOL
    assert abs(got["0_SumAbsoluteDiff"] - 3.0) < TOL


def test_temporal_features_trapezoid_auc():
    assert abs(temp([0.0, 2.0, 0.0, 2.0, 0.0])["0_AreaUnderCurve"] - 4.0) < TOL


def test_temporal_features_details():
    got = temp([0.0, 2.0, 0.0, 2.0, 0.0])
    assert got["0_LocalMaximaCount"] == 2.0
    assert abs(got["0_TemporalCentroid"] - 2.0) < TOL  # (1*2 + 3*2) / 4
    assert temp([0.0, 0.0, 0.0])["0_TemporalCentroid"] == 0.0
    assert temp([3.0, 3.0, 3.0])["0_Autocorrelation"] == 0.0  # zero-variance slices


def test_slope_matches_lstsq():
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.normal(size=40)
        design = np.column_stack([np.arange(40.0), np.ones(40)])
        expect = np.linalg.lstsq(design, x, rcond=None)[0][0]
        assert abs(temp(x)["0_Slope"] - expect) < TOL


def test_mfcc_constant_window():
    n_mel_bands = N_MEL_BANDS
    got = mfcc([70.0] * 16, n_mel_bands)
    assert got.shape == (5,)
    # all band energies at the floor: DCT-II (orthonormal) of a constant vector
    assert abs(got[0] - np.sqrt(n_mel_bands) * np.log(1e-10)) < TOL
    assert np.all(np.abs(got[1:]) < TOL)


def test_mfcc_shapes_and_validation():
    assert mfcc(np.random.default_rng(0).normal(size=32)).shape == (5,)
    assert mfcc(np.zeros(9), 6).shape == (5,)
    with pytest.raises(DataError, match="^window of 7 samples, need at least 8$"):
        mfcc(np.zeros(7))
    with pytest.raises(ConfigError, match="^n_mel_bands must be at least 5$"):
        mfcc(np.zeros(9), 4)


@pytest.mark.parametrize("w", [8, 9, 16, 50, 51, 80, 120])
@pytest.mark.parametrize("n_mel_bands", [5, 10, 16])
def test_mfcc_pipeline_matches_loop_references(w, n_mel_bands):
    mat = np.random.default_rng(w).normal(70.0, 8.0, size=(4, w))
    energies = mel_band_energies(mat, n_mel_bands)
    coefficients = mfcc_matrix(mat, n_mel_bands)
    assert coefficients.shape == (4, 5)
    for row, x in enumerate(mat):
        want = mel_band_energies_reference(x, n_mel_bands)
        assert np.max(np.abs(energies[row] - want)) < 1e-12 * max(1.0, np.abs(want).max())
        want = mfcc_reference(x, n_mel_bands)
        assert np.max(np.abs(coefficients[row] - want)) < 1e-12 * max(1.0, np.abs(want).max())


def test_mel_energy_concentrates_at_band_center():
    n_mel_bands = N_MEL_BANDS
    w = 64
    edges = mel_to_hz(np.linspace(0.0, hz_to_mel(0.5), n_mel_bands + 2))
    for band in (3, 5, 7):
        f_center = edges[band + 1]
        t = np.arange(w)
        x = np.sin(2 * np.pi * f_center * t)
        lib = mel_band_energies(one_row(x), n_mel_bands)[0]
        oracle = mel_band_energies_reference(x, n_mel_bands)
        assert np.max(np.abs(lib - oracle)) < 1e-9 * max(1.0, oracle.max())
        assert int(np.argmax(lib)) == band
        logs = np.log(np.maximum(lib, 1e-10))
        assert np.all(logs[band] >= logs) and (logs[band] > np.delete(logs, band)).all()


def test_mel_filterbank_covers_positive_frequencies():
    bank = mel_filterbank(N_MEL_BANDS, 64)
    assert bank.shape == (10, 33)
    assert np.all(bank[:, 0] == 0.0)  # 0 Hz bin excluded
    assert np.all(bank >= 0.0)
    assert bank.sum(axis=1).min() > 0.0  # every band sees at least one bin


@pytest.mark.parametrize("n_fft", [8, 64])
@pytest.mark.usefixtures("refuse_huge_linspace")
def test_mel_filterbank_refuses_an_oversized_bank_before_allocating(n_fft):
    n_bins = n_fft // 2 + 1
    for n_mel_bands in (MAX_FILTERBANK_WEIGHTS // n_bins + 1, 10**13):
        with pytest.raises(ConfigError, match="features.n_mel_bands") as caught:
            mel_filterbank(n_mel_bands, n_fft)
        assert "MAX_FILTERBANK_WEIGHTS" in str(caught.value)
        with pytest.raises(ConfigError, match="features.n_mel_bands"):
            mel_band_energies(np.zeros((3, n_fft)), n_mel_bands)


def test_translation_invariance():
    rng = np.random.default_rng(7)
    shift_by_c = {"0_Mean", "0_Min", "0_Max", "0_Median"}
    unchanged = {
        "0_Std", "0_Variance", "0_InterquartileRange", "0_Skewness", "0_Kurtosis",
        "0_HistogramEntropy", "0_MeanAbsoluteDeviation",
        "0_Autocorrelation", "0_ZeroCrossings", "0_MeanAbsoluteDiff", "0_MeanDiff",
        "0_SumAbsoluteDiff", "0_Slope", "0_PeakToPeak", "0_LocalMaximaCount",
    }
    for _ in range(500):
        x = rng.uniform(50, 150, int(rng.integers(8, 60)))
        c = float(rng.uniform(-40, 40))
        a, b = stat(x), stat(x + c)
        at, bt = temp(x), temp(x + c)
        a.update(at)
        b.update(bt)
        for name in shift_by_c:
            assert abs(b[name] - (a[name] + c)) < 1e-9, name
        for name in unchanged:
            assert abs(b[name] - a[name]) < 1e-9, name


def test_scale_invariance():
    rng = np.random.default_rng(9)
    scale_by_a = {"0_Std", "0_InterquartileRange", "0_PeakToPeak"}
    unchanged = {"0_Skewness", "0_Kurtosis", "0_Autocorrelation"}
    for _ in range(500):
        x = rng.uniform(50, 150, int(rng.integers(8, 60)))
        a = float(rng.uniform(0.1, 5.0))
        before, after = stat(x), stat(a * x)
        before.update(temp(x))
        after.update(temp(a * x))
        for name in scale_by_a:
            assert abs(after[name] - a * before[name]) < 1e-9 * max(1.0, abs(before[name])), name
        for name in unchanged:
            assert abs(after[name] - before[name]) < 1e-9, name


def test_all_features_finite_across_generator_seeds():
    cfg = WindowConfig(50, 50)
    for seed in range(1, 101):
        corpus, _ = generate_synthetic(SyntheticCohortSpec(n_subjects=1, n_groups=1, seed=seed))
        windows = segment(corpus[0], cfg).values
        for kind in FeatureSetKind:
            mat = feature_matrix(windows, kind)
            assert np.isfinite(mat).all(), (seed, kind)


def test_feature_set_shapes_and_names():
    windows = np.linspace(60, 90, 50)[None, :]
    assert feature_matrix(windows, FeatureSetKind.STAT_TEMPORAL).shape == (1, 22)
    assert feature_matrix(windows, FeatureSetKind.BASE_MFCC).shape == (1, 11)
    assert feature_matrix(windows, FeatureSetKind.BASE).shape == (1, 6)
    assert len(feature_names(FeatureSetKind.STAT_TEMPORAL)) == 22
    names = feature_names(FeatureSetKind.STAT_TEMPORAL)
    assert len(set(names)) == 22  # no collisions across the two families
    assert "0_Autocorrelation" in names
    assert all(n.startswith("0_") for n in names + feature_names(FeatureSetKind.BASE_MFCC))


@pytest.mark.parametrize("n_mel_bands", [N_MEL_BANDS, 6])
@pytest.mark.parametrize("kind", list(FeatureSetKind), ids=lambda k: k.value)
def test_feature_names_match_the_matrix_width(kind, n_mel_bands):
    # importance reports pair these names with these columns, with or without windows
    windows = np.random.default_rng(5).normal(70.0, 8.0, size=(3, 16))
    width = len(feature_names(kind))
    assert feature_matrix(windows, kind, n_mel_bands).shape == (3, width)
    assert feature_matrix(windows[:0], kind, n_mel_bands).shape == (0, width)


def test_feature_matrix_standardized_grand_mean_small():
    for seed in range(1, 6):
        corpus, _ = generate_synthetic(SyntheticCohortSpec(n_subjects=4, n_groups=2, seed=seed))
        windows = np.concatenate(
            [segment(standardize_series(s), WindowConfig(50, 25)).values for s in corpus])
        matrix = feature_matrix(windows, FeatureSetKind.STATISTICAL)
        grand = np.mean(matrix[:, 0])
        assert abs(grand) < 0.5


def test_feature_matrix_preserves_row_order():
    rows = np.array([np.arange(10.0), np.arange(10.0) + 5])
    matrix = feature_matrix(rows, FeatureSetKind.BASE)
    assert matrix.shape == (2, 6)
    for row, features in zip(rows, matrix):
        assert np.array_equal(features, base(row))
    assert matrix[0, 2] == 4.5 and matrix[1, 2] == 9.5  # 0_Mean


@pytest.mark.parametrize("w", [3, 4, 5, 10, 49, 50, 51, 100, 120])
def test_order_statistics_bit_identical_to_numpy(w):
    rng = np.random.default_rng(w)
    smooth = rng.normal(80.0, 10.0, (300, w))
    ties = np.round(rng.normal(80.0, 3.0, (300, w)))  # whole-bpm values: many ties
    flat = np.where(rng.random((300, w)) < 0.7, 70.0, smooth)
    standardized = (smooth - smooth.mean(axis=1, keepdims=True)) / smooth.std(axis=1, keepdims=True)
    for mat in (smooth, ties, flat, standardized):
        for got, ref in zip(order_statistics(mat), order_statistics_reference(mat)):
            assert got.tobytes() == ref.tobytes()
    stats = statistical_matrix(ties)
    median, q25, q75 = order_statistics_reference(ties)
    assert stats[:, STATISTICAL_NAMES.index("0_Median")].tobytes() == median.tobytes()
    assert stats[:, STATISTICAL_NAMES.index("0_InterquartileRange")].tobytes() == (q75 - q25).tobytes()


@pytest.mark.parametrize("w", [3, 8, 50, 51])
def test_statistical_matrix_bit_identical_to_reference(w):
    rng = np.random.default_rng(100 + w)
    walks = 80.0 + np.cumsum(rng.normal(0.0, 1.5, (400, w)), axis=1)
    constant = np.repeat(rng.uniform(50.0, 120.0, (40, 1)), w, axis=1)
    tied = np.round(walks)  # whole-bpm values: ties, and constant rows at small w
    centred = walks - walks.mean(axis=1, keepdims=True)
    mixed = np.concatenate([walks[:100], constant, tied[:100]])[rng.permutation(240)]
    for mat in (walks, constant, tied, centred, mixed):
        got = statistical_matrix(mat)
        assert got.tobytes() == statistical_matrix_reference(mat).tobytes()
    assert (statistical_matrix(constant)[:, STATISTICAL_NAMES.index("0_HistogramEntropy")] == 0).all()
