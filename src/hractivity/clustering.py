"""Subject clustering: k-means over activity profiles or window-feature summaries.

Profiles are 5-point per-activity BPM means (label-dependent, used when
cluster membership may see labels). Window-feature spaces cluster subjects
by the mean of their per-window statistical or temporal vectors and allow
label-free routing of unseen windows. Summaries read one subject's windows
at a time (``Segments``), so a whole cohort's windows need never be in
memory together.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .artifacts import write_json
from .errors import ConfigError, DataError, InternalError, TooFewVectors
from .features import statistical_matrix, temporal_matrix
from .preprocess import Scaler, Segments, apply_scaler, fit_scaler
from .series import ActivityLabel, N_CLASSES


KMEANS_MAX_ITER = 300
KMEANS_TOL = 1e-6  # Lloyd stops once no centroid moves this far


class ClusterSpace(enum.Enum):
    MEAN_BPM_PROFILE = "mean_bpm_profile"
    STATISTICAL_WINDOW = "statistical_window"
    TEMPORAL_WINDOW = "temporal_window"


@dataclass(frozen=True)
class ClusterModel:
    centroids: np.ndarray  # (k, d)
    space: ClusterSpace
    seed: int
    inertia: float
    scaler: Scaler | None = None  # applied to every row before it is clustered or routed

    def __post_init__(self):
        centroids = np.ascontiguousarray(self.centroids, dtype=np.float64)
        if centroids.ndim != 2:
            raise DataError("centroids must be a (k, d) matrix")
        if not np.isfinite(centroids).all():
            raise InternalError("non-finite centroid")
        centroids.flags.writeable = False
        object.__setattr__(self, "centroids", centroids)

    @property
    def k(self) -> int:
        return len(self.centroids)


def _activity_profile(part: Segments) -> np.ndarray:
    """Per activity in ``ActivityLabel`` order, the mean over the subject's
    windows of the window-mean BPM. Sums run in window order."""
    means = np.ascontiguousarray(part.values, dtype=np.float64).mean(axis=1)
    labels = np.asarray(part.labels, dtype=np.int64)
    sums = np.bincount(labels, weights=means, minlength=N_CLASSES)
    counts = np.bincount(labels, minlength=N_CLASSES)
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        activity = ActivityLabel(int(missing[0])).name
        raise DataError(f"subject {part.subject_id!r} has no {activity} windows")
    return sums / counts


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


def kmeans_fit(vectors, k: int, seed: int, restarts: int = 10):
    """Best-of-restarts k-means++ and Lloyd on an (n, d) matrix; the winner is
    (inertia, restart index) minimal. Returns (centroids, labels, inertia)."""
    mat = np.asarray(vectors, dtype=np.float64)
    if mat.ndim != 2:
        raise DataError("expected an (n, d) vector matrix")
    if k < 1 or k > mat.shape[0]:
        raise TooFewVectors(f"k={k} with {mat.shape[0]} vectors")
    if restarts < 1:
        raise ConfigError(f"restarts must be at least 1, got {restarts}")

    best = None
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), r)))
        centers = _kmeanspp_init(mat, k, rng)
        centers, labels, inertia = _lloyd(mat, centers.copy())
        if best is None or inertia < best[0]:
            best = (inertia, r, centers, labels)

    inertia, _, centers, labels = best
    return centers, labels, inertia


def assign_many(model: ClusterModel, vectors) -> np.ndarray:
    """Each row's nearest centroid by squared Euclidean distance; ties to lowest index."""
    mat = np.asarray(vectors, dtype=np.float64)
    if model.scaler is not None:
        mat = apply_scaler(model.scaler, mat)
    if mat.ndim != 2 or mat.shape[1] != model.centroids.shape[1]:
        raise DataError("vector dimension does not match centroids")
    return _squared_distances(mat, model.centroids).argmin(axis=1)


def window_space_matrix(values: np.ndarray, space: ClusterSpace) -> np.ndarray:
    """Per-window vectors of an (n, W) window matrix in a label-free routing space."""
    mat = np.asarray(values, dtype=np.float64)
    if space is ClusterSpace.STATISTICAL_WINDOW:
        return statistical_matrix(mat)
    if space is ClusterSpace.TEMPORAL_WINDOW:
        return temporal_matrix(mat)
    raise DataError("window vectors undefined for profile space")


def _summary(part: Segments, space: ClusterSpace) -> np.ndarray:
    if space is ClusterSpace.MEAN_BPM_PROFILE:
        return _activity_profile(part)
    return window_space_matrix(np.ascontiguousarray(part.values), space).mean(axis=0)


def subject_summaries(parts: Iterable[Segments], space: ClusterSpace):
    """(subject ids, summary matrix) for cluster fitting, in input order.

    ``parts`` yields one ``Segments`` per subject, in subject-id order, as
    ``evaluation.subject_segments`` does, and is read one subject at a time.
    A subject's summary is its 5-point activity profile in
    ``mean_bpm_profile``, else the mean of its windows' vectors. A subject
    with no window is left out. The window matrix is copied once, so a view
    and a copy of the same windows give the same bits.

    The whole stream is read before a summary's error is raised: an error
    the stream raises for a later subject, such as a non-uniform series,
    wins over an earlier subject's missing activity.
    """
    ids, rows, failure = [], [], None
    for part in parts:
        if failure is not None or len(part) == 0:
            continue
        try:
            rows.append(_summary(part, space))
        except DataError as exc:
            failure = exc
            continue
        ids.append(part.subject_id)
    if failure is not None:
        raise failure
    if not ids:
        raise DataError("no series long enough for the window size")
    return ids, np.stack(rows)


def fit_cluster_model(
    ids: list[str],
    summaries: np.ndarray,
    space: ClusterSpace,
    k: int,
    seed: int,
    restarts: int = 10,
    with_scaler: bool = False,
) -> tuple[ClusterModel, dict[str, int]]:
    """Cluster subjects by their summary rows (``subject_summaries``' output);
    returns the model and each subject's cluster.

    With ``with_scaler`` the rows are z-scored by a scaler fitted on them,
    which the model keeps for routing.
    """
    if len(ids) != len(summaries):
        raise DataError("ids must match the vector count")
    scaler = fit_scaler(summaries) if with_scaler else None
    rows = summaries if scaler is None else apply_scaler(scaler, summaries)
    centroids, labels, inertia = kmeans_fit(rows, k, seed, restarts=restarts)
    model = ClusterModel(centroids, space, int(seed), inertia, scaler)
    return model, dict(zip(ids, labels.tolist()))


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
