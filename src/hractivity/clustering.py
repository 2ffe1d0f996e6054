"""Subject clustering: k-means over activity profiles or window-feature summaries.

Profiles are 5-point per-activity BPM means (label-dependent, used when
cluster membership may see labels). Window-feature spaces cluster subjects
by the mean of their per-window statistical or temporal vectors and allow
label-free routing of unseen windows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import write_json
from .errors import (
    DimensionMismatch,
    InternalError,
    MissingActivity,
    NoWindows,
    TooFewVectors,
)
from .features import statistical_matrix, temporal_matrix
from .preprocess import Scaler, apply_scaler, fit_scaler
from .series import ActivityLabel, N_CLASSES


KMEANS_MAX_ITER = 300
KMEANS_TOL = 1e-6  # Lloyd stops once no centroid moves this far


class ClusterSpace(enum.Enum):
    MEAN_BPM_PROFILE = "mean_bpm_profile"
    STATISTICAL_WINDOW = "statistical_window"
    TEMPORAL_WINDOW = "temporal_window"


@dataclass(frozen=True)
class ClusterModel:
    k: int
    centroids: np.ndarray  # (k, d)
    space: ClusterSpace
    seed: int
    inertia: float
    scaler: Scaler | None = None

    def __post_init__(self):
        centroids = np.ascontiguousarray(self.centroids, dtype=np.float64)
        if centroids.ndim != 2 or centroids.shape[0] != self.k:
            raise DimensionMismatch("centroids must be a (k, d) matrix")
        if not np.isfinite(centroids).all():
            raise InternalError("non-finite centroid")
        centroids.flags.writeable = False
        object.__setattr__(self, "centroids", centroids)


def _subject_codes(subjects) -> tuple[list[str], np.ndarray]:
    """(sorted distinct subject ids, each row's index into them)."""
    ids = sorted(set(subjects))
    code = {subject: i for i, subject in enumerate(ids)}
    return ids, np.fromiter(map(code.__getitem__, subjects), np.int64, len(subjects))


def build_profiles(values: np.ndarray, labels: np.ndarray,
                   subjects) -> tuple[list[str], np.ndarray]:
    """(sorted subject ids, (n_subjects, 5) profile matrix).

    A subject's profile is, per activity in ``ActivityLabel`` order, the mean
    over its windows of the window-mean BPM. ``values`` is the (n, W) window
    matrix; ``labels`` and ``subjects`` give each window's label and subject
    id. Sums run in window order.
    """
    ids, codes = _subject_codes(subjects)
    cells = codes * N_CLASSES + np.asarray(labels, dtype=np.int64)
    size = len(ids) * N_CLASSES
    sums = np.bincount(cells, weights=np.asarray(values).mean(axis=1), minlength=size)
    counts = np.bincount(cells, minlength=size)
    sums, counts = sums.reshape(-1, N_CLASSES), counts.reshape(-1, N_CLASSES)
    for i, subject in enumerate(ids):
        for a in range(N_CLASSES):
            if counts[i, a] == 0:
                raise MissingActivity(subject, ActivityLabel(a).name)
    return ids, sums / counts


def _squared_distances(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = vectors[:, None, :] - centroids[None, :, :]
    return (diff**2).sum(axis=2)


def _kmeanspp_init(vectors: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = vectors.shape[0]
    centers = np.empty((k, vectors.shape[1]))
    centers[0] = vectors[int(rng.integers(n))]
    d2 = ((vectors - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))  # all points coincide with a center
        centers[j] = vectors[idx]
        d2 = np.minimum(d2, ((vectors - centers[j]) ** 2).sum(axis=1))
    return centers


def _lloyd(vectors: np.ndarray, centers: np.ndarray):
    k = centers.shape[0]
    previous_inertia = np.inf
    labels = np.zeros(vectors.shape[0], dtype=np.int64)
    for _ in range(KMEANS_MAX_ITER):
        d2 = _squared_distances(vectors, centers)
        labels = d2.argmin(axis=1)
        point_d2 = d2[np.arange(len(labels)), labels]
        inertia = float(point_d2.sum())
        if inertia > previous_inertia + 1e-9:
            raise InternalError("k-means inertia increased")
        previous_inertia = inertia

        # re-seed empty clusters from the worst-fit point, never emptying
        # a singleton donor cluster in the process
        counts = np.bincount(labels, minlength=k)
        point_d2 = point_d2.copy()
        for empty in np.nonzero(counts == 0)[0]:
            eligible = counts[labels] >= 2
            if not eligible.any():
                raise InternalError("cannot repair empty cluster")
            far = int(np.where(eligible, point_d2, -1.0).argmax())
            counts[labels[far]] -= 1
            counts[empty] = 1
            centers[empty] = vectors[far]
            labels[far] = empty
            point_d2[far] = 0.0

        new_centers = np.empty_like(centers)
        for j in range(k):
            new_centers[j] = vectors[labels == j].mean(axis=0)
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if shift < KMEANS_TOL:
            break
    d2 = _squared_distances(vectors, centers)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(len(labels)), labels].sum())
    return centers, labels, inertia


def kmeans_fit(
    vectors,
    k: int,
    seed: int,
    restarts: int = 10,
    space: ClusterSpace = ClusterSpace.MEAN_BPM_PROFILE,
    scaler: Scaler | None = None,
    ids: list[str] | None = None,
) -> tuple[ClusterModel, dict]:
    """Best-of-restarts k-means; the winner is (inertia, restart index) minimal."""
    mat = np.asarray(vectors, dtype=np.float64)
    if mat.ndim != 2:
        raise DimensionMismatch("expected an (n, d) vector matrix")
    if k < 1 or k > mat.shape[0]:
        raise TooFewVectors(f"k={k} with {mat.shape[0]} vectors")
    if scaler is not None:
        mat = apply_scaler(scaler, mat)

    best = None
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), r)))
        centers = _kmeanspp_init(mat, k, rng)
        centers, labels, inertia = _lloyd(mat, centers.copy())
        if best is None or inertia < best[0]:
            best = (inertia, r, centers, labels)

    inertia, _, centers, labels = best
    model = ClusterModel(k=k, centroids=centers, space=space, seed=int(seed),
                         inertia=inertia, scaler=scaler)
    keys = ids if ids is not None else list(range(mat.shape[0]))
    if len(keys) != mat.shape[0]:
        raise DimensionMismatch("ids must match the vector count")
    return model, {key: int(c) for key, c in zip(keys, labels)}


def assign_many(model: ClusterModel, vectors) -> np.ndarray:
    """Each row's nearest centroid by squared Euclidean distance; ties to lowest index."""
    mat = np.asarray(vectors, dtype=np.float64)
    if model.scaler is not None:
        mat = apply_scaler(model.scaler, mat)
    if mat.ndim != 2 or mat.shape[1] != model.centroids.shape[1]:
        raise DimensionMismatch("vector dimension does not match centroids")
    return _squared_distances(mat, model.centroids).argmin(axis=1)


def route_subject(model: ClusterModel, vectors) -> int:
    """Majority cluster over the subject's window vectors; ties to lowest index."""
    mat = np.asarray(vectors, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] == 0:
        raise NoWindows("subject has no windows to route")
    counts = np.bincount(assign_many(model, mat), minlength=model.k)
    return int(counts.argmax())


def window_space_matrix(values: np.ndarray, space: ClusterSpace) -> np.ndarray:
    """Per-window vectors of an (n, W) window matrix in a label-free routing space."""
    mat = np.asarray(values, dtype=np.float64)
    if space is ClusterSpace.STATISTICAL_WINDOW:
        return statistical_matrix(mat)
    if space is ClusterSpace.TEMPORAL_WINDOW:
        return temporal_matrix(mat)
    raise DimensionMismatch("window vectors undefined for profile space")


def subject_summaries(values: np.ndarray, labels: np.ndarray, subjects,
                      space: ClusterSpace, vectors: np.ndarray | None = None):
    """(subject ids, summary matrix) for cluster fitting, subject-id order.

    In a window space a subject's summary is the mean of its windows'
    vectors; pass ``vectors`` when the caller already has the rows'
    ``window_space_matrix``.
    """
    if space is ClusterSpace.MEAN_BPM_PROFILE:
        return build_profiles(values, labels, subjects)
    ids, codes = _subject_codes(subjects)
    order = np.argsort(codes, kind="stable")  # window order within a subject
    per_subject = np.split(order, np.cumsum(np.bincount(codes, minlength=len(ids)))[:-1])
    if vectors is None:  # one subject at a time keeps the feature temporaries small
        blocks = (window_space_matrix(values[rows], space) for rows in per_subject)
    else:
        blocks = (vectors[rows] for rows in per_subject)
    return ids, np.stack([block.mean(axis=0) for block in blocks])


def fit_cluster_model(
    values: np.ndarray,
    labels: np.ndarray,
    subjects,
    space: ClusterSpace,
    k: int,
    seed: int,
    restarts: int = 10,
    with_scaler: bool = False,
    vectors: np.ndarray | None = None,
) -> tuple[ClusterModel, dict[str, int]]:
    """Cluster subjects by their summary vectors in the chosen space.

    ``values``, ``labels`` and ``subjects`` describe the windows as in
    ``subject_summaries``, which also explains ``vectors``.
    """
    ids, summaries = subject_summaries(values, labels, subjects, space, vectors)
    scaler = fit_scaler(summaries) if with_scaler else None
    return kmeans_fit(summaries, k, seed, restarts=restarts, space=space,
                      scaler=scaler, ids=ids)


def write_cluster_report(
    model: ClusterModel, assignment: dict[str, int], path: str | Path
) -> None:
    members: list[list[str]] = [[] for _ in range(model.k)]
    for subject in sorted(assignment, key=str):
        members[assignment[subject]].append(str(subject))
    report = {
        "schema": "cluster_report.v1",
        "k": model.k,
        "space": model.space.value,
        "seed": model.seed,
        "inertia": model.inertia,
        "centroids": [[float(x) for x in row] for row in model.centroids],
        "members": members,
    }
    write_json(report, path)
