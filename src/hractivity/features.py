"""Handcrafted window features: base, MFCC, statistical and temporal families.

All feature names carry the "0_" prefix so importance reports line up with
the naming used elsewhere in the toolkit. Every family is computed over an
(n_windows, W) value matrix.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import ConfigError, DataError

BASE_NAMES = (
    "0_Max",
    "0_Min",
    "0_Mean",
    "0_Std",
    "0_FirstDerivativeMean",
    "0_SecondDerivativeMean",
)

N_MFCC = 5
MFCC_NAMES = tuple(f"0_MFCC{i}" for i in range(N_MFCC))

STATISTICAL_NAMES = (
    "0_Mean",
    "0_Std",
    "0_Variance",
    "0_Min",
    "0_Max",
    "0_Median",
    "0_InterquartileRange",
    "0_Skewness",
    "0_Kurtosis",
    "0_RootMeanSquare",
    "0_MeanAbsoluteDeviation",
    "0_HistogramEntropy",
)

TEMPORAL_NAMES = (
    "0_Autocorrelation",
    "0_ZeroCrossings",
    "0_MeanAbsoluteDiff",
    "0_MeanDiff",
    "0_SumAbsoluteDiff",
    "0_Slope",
    "0_PeakToPeak",
    "0_LocalMaximaCount",
    "0_TemporalCentroid",
    "0_AreaUnderCurve",
)

N_MEL_BANDS = 10  # the default features.n_mel_bands
ENTROPY_BINS = 10
LOG_FLOOR = 1e-10
# Largest mel filterbank, in weights (bands x rfft bins), that mel_filterbank
# allocates; past it n_mel_bands is refused before any array is built.
MAX_FILTERBANK_WEIGHTS = 10**7
# Most bands features.n_mel_bands may ask for: the energies of a feature
# matrix are n_windows x n_mel_bands, which no window size bounds.
MAX_MEL_BANDS = 256


class FeatureSetKind(enum.Enum):
    BASE = "base"
    BASE_MFCC = "base_mfcc"
    STATISTICAL = "statistical"
    TEMPORAL = "temporal"
    STAT_TEMPORAL = "stat_temporal"


def _require_width(mat: np.ndarray, minimum: int) -> None:
    if mat.shape[1] < minimum:
        raise DataError(f"window of {mat.shape[1]} samples, need at least {minimum}")


def base_matrix(mat: np.ndarray) -> np.ndarray:
    _require_width(mat, 3)
    d1 = np.diff(mat, axis=1)
    d2 = np.diff(mat, n=2, axis=1)
    return np.column_stack(
        [
            mat.max(axis=1),
            mat.min(axis=1),
            mat.mean(axis=1),
            mat.std(axis=1, ddof=1),
            d1.mean(axis=1),
            d2.mean(axis=1),
        ]
    )


def _lerp(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """numpy's 'linear' quantile interpolation, term for term."""
    diff = b - a
    return b - diff * (1.0 - t) if t >= 0.5 else a + diff * t


def order_statistics(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise (median, 25th, 75th percentile) from one sort.

    Bit-identical to ``np.median`` and ``np.percentile(..., method="linear")``:
    the median is numpy's mean of the one or two middle values, and each
    quartile is numpy's lerp between its two neighbouring order statistics.
    """
    ordered = np.sort(mat, axis=1)
    w = ordered.shape[1]
    half = w // 2
    middle = ordered[:, half - 1 : half + 1] if w % 2 == 0 else ordered[:, half : half + 1]
    quartiles = []
    for q in (0.25, 0.75):
        position = (w - 1) * q
        below = int(position)
        quartiles.append(_lerp(ordered[:, below], ordered[:, below + 1], position - below))
    return middle.mean(axis=1), quartiles[0], quartiles[1]


def statistical_matrix(mat: np.ndarray) -> np.ndarray:
    _require_width(mat, 3)
    n, w = mat.shape
    mean = mat.mean(axis=1)
    centered = mat - mean[:, None]
    sq = centered * centered
    s2 = sq.sum(axis=1)  # numpy's var/std reduce exactly this sum
    m2 = s2 / w
    var = s2 / (w - 1)
    m3 = (sq * centered).mean(axis=1)
    m4 = (sq * sq).mean(axis=1)
    nonzero = m2 > 0
    skew = np.zeros(n)
    kurt = np.zeros(n)
    skew[nonzero] = m3[nonzero] / m2[nonzero] ** 1.5
    kurt[nonzero] = m4[nonzero] / m2[nonzero] ** 2 - 3.0

    lo = mat.min(axis=1)
    hi = mat.max(axis=1)
    median, q25, q75 = order_statistics(mat)

    # row-wise histogram entropy: 10 equal-width bins over [min, max]; a
    # constant row is binned with width 1 and its entropy set to 0
    spread = hi - lo
    live = spread > 0
    idx = mat - lo[:, None]
    idx /= np.where(live, spread, 1.0)[:, None]
    idx *= ENTROPY_BINS
    idx = np.floor(idx, out=idx).astype(np.int64)
    np.clip(idx, 0, ENTROPY_BINS - 1, out=idx)  # max lands in the last bin
    idx += np.arange(n)[:, None] * ENTROPY_BINS
    counts = np.bincount(idx.ravel(), minlength=n * ENTROPY_BINS).reshape(n, ENTROPY_BINS)
    p = counts / w
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log(p), 0.0)
    entropy = np.where(live, -plogp.sum(axis=1), 0.0)

    return np.column_stack(
        [
            mean,
            np.sqrt(var),
            var,
            lo,
            hi,
            median,
            q75 - q25,
            skew,
            kurt,
            np.sqrt((mat**2).mean(axis=1)),
            np.abs(centered).mean(axis=1),
            entropy,
        ]
    )


def temporal_matrix(mat: np.ndarray) -> np.ndarray:
    _require_width(mat, 3)
    n, w = mat.shape
    d1 = np.diff(mat, axis=1)

    a = mat[:, :-1]
    b = mat[:, 1:]
    am = a - a.mean(axis=1, keepdims=True)
    bm = b - b.mean(axis=1, keepdims=True)
    num = (am * bm).sum(axis=1)
    den = np.sqrt((am**2).sum(axis=1) * (bm**2).sum(axis=1))
    autocorr = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)

    centered = mat - mat.mean(axis=1, keepdims=True)
    crossings = (centered[:, :-1] * centered[:, 1:] < 0).sum(axis=1).astype(np.float64)

    idx = np.arange(w, dtype=np.float64)
    idx_c = idx - idx.mean()
    slope = (mat * idx_c).sum(axis=1) / (idx_c**2).sum()

    interior = (mat[:, 1:-1] > mat[:, :-2]) & (mat[:, 1:-1] > mat[:, 2:])
    maxima = interior.sum(axis=1).astype(np.float64)

    absx = np.abs(mat)
    den_c = absx.sum(axis=1)
    centroid = np.where(den_c > 0, (absx * idx).sum(axis=1) / np.where(den_c > 0, den_c, 1.0), 0.0)

    auc = np.trapezoid(mat, axis=1)

    return np.column_stack(
        [
            autocorr,
            crossings,
            np.abs(d1).mean(axis=1),
            d1.mean(axis=1),
            np.abs(d1).sum(axis=1),
            slope,
            mat.max(axis=1) - mat.min(axis=1),
            maxima,
            centroid,
            auc,
        ]
    )


def _next_pow2(n: int) -> int:
    return 1 << (int(n) - 1).bit_length()


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mel_bands: int, n_fft: int) -> np.ndarray:
    """Triangular filters on the rfft bin grid, shape (n_mel_bands, n_fft//2+1).

    Frequencies are normalized, in cycles per sample, so the bank does not
    depend on the series' sampling period; the mel formula reads them as Hz,
    and far below its 700 Hz knee it is close to linear. Band edges are
    mel-spaced between 0 and the Nyquist frequency 0.5; band b rises over
    [edge_b, edge_{b+1}] and falls over [edge_{b+1}, edge_{b+2}], so the bin
    at 0 always gets weight 0. Fewer than ``N_MFCC`` bands, or a bank of more
    than ``MAX_FILTERBANK_WEIGHTS`` weights, raises a ConfigError.
    """
    if n_mel_bands < N_MFCC:
        raise ConfigError(f"n_mel_bands must be at least {N_MFCC}")
    n_bins = n_fft // 2 + 1
    if n_mel_bands * n_bins > MAX_FILTERBANK_WEIGHTS:
        raise ConfigError(
            f"features.n_mel_bands = {n_mel_bands} on a {n_fft}-point FFT needs "
            f"{n_mel_bands} x {n_bins} filter weights, more than "
            f"MAX_FILTERBANK_WEIGHTS = {MAX_FILTERBANK_WEIGHTS}")
    edges = mel_to_hz(np.linspace(0.0, hz_to_mel(0.5), n_mel_bands + 2))
    freqs = np.fft.rfftfreq(n_fft)
    left, center, right = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rise = (freqs - left) / (center - left)
    fall = (right - freqs) / (right - center)
    return np.clip(np.minimum(rise, fall), 0.0, None)


def _dct_basis(n: int) -> np.ndarray:
    """The first N_MFCC rows of the orthonormal DCT-II basis of length n."""
    k = np.arange(N_MFCC)[:, None]
    basis = np.cos(np.pi * k * (2 * np.arange(n) + 1) / (2 * n)) * np.sqrt(2.0 / n)
    basis[0] /= np.sqrt(2.0)
    return basis


def mel_band_energies(mat: np.ndarray, n_mel_bands: int = N_MEL_BANDS) -> np.ndarray:
    """Row-wise filterbank outputs of the single-frame pipeline, before the log."""
    _require_width(mat, 8)
    w = mat.shape[1]
    n_fft = _next_pow2(w)
    bank = mel_filterbank(n_mel_bands, n_fft)  # first: it refuses a bad band count
    frame = (mat - mat.mean(axis=1, keepdims=True)) * np.hanning(w)
    spectrum = np.abs(np.fft.rfft(frame, n=n_fft, axis=1))
    return spectrum @ bank.T


def mfcc_matrix(mat: np.ndarray, n_mel_bands: int = N_MEL_BANDS) -> np.ndarray:
    energies = mel_band_energies(mat, n_mel_bands)
    log_e = np.log(np.maximum(energies, LOG_FLOOR))
    return log_e @ _dct_basis(n_mel_bands).T


def feature_names(kind: FeatureSetKind) -> tuple[str, ...]:
    if kind is FeatureSetKind.BASE:
        return BASE_NAMES
    if kind is FeatureSetKind.BASE_MFCC:
        return BASE_NAMES + MFCC_NAMES
    if kind is FeatureSetKind.STATISTICAL:
        return STATISTICAL_NAMES
    if kind is FeatureSetKind.TEMPORAL:
        return TEMPORAL_NAMES
    if kind is FeatureSetKind.STAT_TEMPORAL:
        return STATISTICAL_NAMES + TEMPORAL_NAMES
    raise ConfigError(f"unknown feature set {kind!r}")


def feature_matrix(values: np.ndarray, kind: FeatureSetKind,
                   n_mel_bands: int = N_MEL_BANDS) -> np.ndarray:
    """(n_windows, n_features) matrix for an (n_windows, W) value matrix, row order kept."""
    mat = np.asarray(values, dtype=np.float64)
    if mat.shape[0] == 0:
        return np.zeros((0, len(feature_names(kind))))
    if kind is FeatureSetKind.BASE:
        out = base_matrix(mat)
    elif kind is FeatureSetKind.BASE_MFCC:
        out = np.column_stack([base_matrix(mat), mfcc_matrix(mat, n_mel_bands)])
    elif kind is FeatureSetKind.STATISTICAL:
        out = statistical_matrix(mat)
    elif kind is FeatureSetKind.TEMPORAL:
        out = temporal_matrix(mat)
    elif kind is FeatureSetKind.STAT_TEMPORAL:
        out = np.column_stack([statistical_matrix(mat), temporal_matrix(mat)])
    else:
        raise ConfigError(f"unknown feature set {kind!r}")
    if not np.isfinite(out).all():
        raise DataError("non-finite feature value produced")
    return out
