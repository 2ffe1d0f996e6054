"""k-means, subject profiles, window assignment and subject routing."""

import numpy as np
import pytest

from oracles import (
    adjusted_rand_index,
    build_profiles_reference,
    exhaustive_kmeans_inertia,
    subject_summaries_reference,
)

from hractivity import clustering, evaluation
from hractivity.clustering import (
    ClusterModel,
    ClusterSpace,
    assign_many,
    fit_cluster_model,
    kmeans_fit,
    subject_summaries,
    window_space_matrix,
    write_cluster_report,
)
from hractivity.errors import ConfigError, DataError, TooFewVectors
from hractivity.evaluation import (
    ConstantPredictor,
    DatasetSpec,
    RoutingMode,
    SvmSpec,
    build_dataset,
    routed_eval,
    subject_segments,
)
from hractivity.preprocess import Segments, WindowConfig, apply_scaler, fit_scaler, segment
from hractivity.series import ActivityLabel
from hractivity.synthetic import SyntheticCohortSpec, generate_synthetic


def five_activity_windows(subject, means):
    """(values, labels, subjects) of five 10-sample constant windows, one per activity."""
    values = np.repeat(np.asarray(means, float)[:, None], 10, axis=1)
    return values, np.arange(5), [subject] * 5


def per_subject(values, labels, subjects):
    """One ``Segments`` per subject of row-aligned windows, in id order; a
    subject's windows keep their row order."""
    subjects = np.asarray(subjects)
    for subject in sorted(set(subjects.tolist())):
        rows = np.flatnonzero(subjects == subject)
        yield Segments(subject, values[rows], labels[rows])


def build_profiles(values, labels, subjects):
    """(sorted subject ids, (n_subjects, 5) profile matrix) of row-aligned windows."""
    return subject_summaries(per_subject(values, labels, subjects),
                             ClusterSpace.MEAN_BPM_PROFILE)


def test_build_profiles_constant_windows():
    ids, profiles = build_profiles(*five_activity_windows("A", [70.0] * 5))
    assert ids == ["A"]
    assert profiles.shape == (1, 5)
    assert np.allclose(profiles[0], 70.0)


def test_build_profiles_missing_activity():
    values, labels, subjects = five_activity_windows("A", [70.0] * 5)
    with pytest.raises(DataError, match="^subject 'A' has no Type windows$"):
        build_profiles(values[:4], labels[:4], subjects[:4])


def test_build_profiles_averages_window_means():
    values, labels, subjects = five_activity_windows("A", [60.0, 70.0, 80.0, 90.0, 100.0])
    values = np.vstack([values, np.full((1, 10), 80.0)])
    labels = np.append(labels, int(ActivityLabel.Rest))
    _, profiles = build_profiles(values, labels, subjects + ["A"])
    assert profiles[0, 0] == 70.0  # Rest windows with means 60 and 80


def test_kmeans_k1_is_mean():
    vectors = np.array([[0.0, 0.0], [2.0, 4.0], [4.0, 2.0]])
    centroids, labels, _ = kmeans_fit(vectors, 1, seed=0)
    assert np.allclose(centroids[0], [2.0, 2.0])
    assert set(labels.tolist()) == {0}


def test_kmeans_two_clear_clusters():
    vectors = np.array([[0.0], [0.0], [10.0], [10.0]])
    centroids, labels, inertia = kmeans_fit(vectors, 2, seed=0)
    assert sorted(centroids.ravel().tolist()) == [0.0, 10.0]
    assert inertia == 0.0
    assert labels[0] == labels[1]
    assert labels[2] == labels[3]
    assert labels[0] != labels[2]


def test_kmeans_matches_exhaustive_oracle():
    # deliberately hard unclustered instances: a couple of local-optimum
    # misses are expected at 10 restarts, none at 100
    rng = np.random.default_rng(12)
    hits = 0
    for trial in range(15):
        n = int(rng.integers(4, 13))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(2, min(4, n + 1)))
        vectors = rng.uniform(-5, 5, size=(n, d))
        optimum = exhaustive_kmeans_inertia(vectors, k)
        _, _, inertia = kmeans_fit(vectors, k, seed=trial)
        assert inertia >= optimum - 1e-9  # never "better" than optimal
        hits += abs(inertia - optimum) < 1e-9
        _, _, thorough = kmeans_fit(vectors, k, seed=trial, restarts=100)
        assert abs(thorough - optimum) < 1e-9
    assert hits >= 13


def test_lloyd_repairs_an_empty_cluster():
    # no point is nearest the third centre, so the first pass counts 2, 2, 0
    # and re-seeds that cluster from the worst-fit point
    vectors = np.array([[0.0], [1.0], [10.0], [11.0]])
    _, labels, inertia = clustering._lloyd(vectors, np.array([[0.5], [10.5], [100.0]]))
    assert np.bincount(labels, minlength=3).min() >= 1
    assert labels.tolist() == [2, 0, 1, 1]
    assert abs(inertia - exhaustive_kmeans_inertia(vectors, 3)) < 1e-12


def test_kmeans_too_few_vectors():
    with pytest.raises(TooFewVectors):
        kmeans_fit(np.zeros((2, 3)), 3, seed=0)
    with pytest.raises(TooFewVectors):
        kmeans_fit(np.zeros((2, 3)), 0, seed=0)


def test_kmeans_refuses_fewer_than_one_restart():
    with pytest.raises(ConfigError, match="^restarts must be at least 1, got 0$"):
        kmeans_fit(np.arange(6.0).reshape(3, 2), 2, seed=1, restarts=0)


def test_kmeans_permutation_invariance_as_partition():
    rng = np.random.default_rng(21)
    centers = np.array([[0.0, 0.0], [8.0, 8.0], [-8.0, 8.0]])
    vectors = np.concatenate([c + 0.3 * rng.normal(size=(12, 2)) for c in centers])
    _, labels_a, inertia_a = kmeans_fit(vectors, 3, seed=5)
    perm = rng.permutation(len(vectors))
    _, labels_b, inertia_b = kmeans_fit(vectors[perm], 3, seed=5)
    assert abs(inertia_a - inertia_b) < 1e-9 * max(1.0, inertia_a)
    labels_b_in_orig_order = [labels_b[int(np.nonzero(perm == i)[0][0])] for i in range(len(vectors))]
    assert adjusted_rand_index(labels_a, labels_b_in_orig_order) == 1.0


def test_assign_many_centroid_identity_and_ties():
    model = ClusterModel(
        centroids=np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]]),
        space=ClusterSpace.MEAN_BPM_PROFILE,
        seed=0,
        inertia=0.0,
    )
    assert assign_many(model, model.centroids).tolist() == [0, 1, 2]
    assert assign_many(model, [[2.0, 0.0]])[0] == 0  # equidistant 0/1: lowest wins
    with pytest.raises(DataError, match="^vector dimension does not match centroids$"):
        assign_many(model, [[1.0, 2.0, 3.0]])


def test_assign_matches_linear_scan():
    rng = np.random.default_rng(3)
    centroids = rng.normal(size=(5, 3))
    model = ClusterModel(centroids, ClusterSpace.STATISTICAL_WINDOW, 0, 0.0)
    vectors = rng.normal(size=(1000, 3))
    got = assign_many(model, vectors)
    for v, g in zip(vectors, got):
        dists = [((v - c) ** 2).sum() for c in centroids]
        expect = int(np.argmin(dists))
        assert g == expect


def test_routing_recovers_latent_groups():
    profiles = ((0.0, 5.0, 30.0, 12.0, 3.0), (40.0, 45.0, 70.0, 52.0, 43.0))
    cfg = WindowConfig(50, 50)
    for seed in range(1, 6):
        corpus, groups = generate_synthetic(
            SyntheticCohortSpec(
                n_subjects=12, n_groups=2, seed=seed, group_offset_profiles=profiles
            )
        )
        space = ClusterSpace.STATISTICAL_WINDOW
        model, _ = fit_cluster_model(
            *subject_summaries(subject_segments(corpus, DatasetSpec(cfg)), space), space, 2, seed)
        routed, latent = [], []
        for s in corpus:
            vecs = window_space_matrix(segment(s, cfg).values, ClusterSpace.STATISTICAL_WINDOW)
            routed.append(int(assign_many(model, vecs.mean(axis=0, keepdims=True))[0]))
            latent.append(groups[s.subject_id])
        assert adjusted_rand_index(routed, latent) >= 0.9


def test_subject_summaries_spaces():
    corpus, _ = generate_synthetic(SyntheticCohortSpec(n_subjects=3, n_groups=1, seed=2))
    cfg = WindowConfig(50, 50)
    ids, profiles = subject_summaries(subject_segments(corpus, DatasetSpec(cfg)),
                                      ClusterSpace.MEAN_BPM_PROFILE)
    assert ids == ["S000", "S001", "S002"]
    assert profiles.shape == (3, 5)
    ids2, stats = subject_summaries(subject_segments(corpus, DatasetSpec(cfg)),
                                    ClusterSpace.STATISTICAL_WINDOW)
    assert ids2 == ids
    assert stats.shape == (3, 12)
    _, temporal = subject_summaries(subject_segments(corpus, DatasetSpec(cfg)),
                                    ClusterSpace.TEMPORAL_WINDOW)
    assert temporal.shape == (3, 10)


def test_fit_with_scaler_routes_consistently():
    corpus, _ = generate_synthetic(SyntheticCohortSpec(n_subjects=6, n_groups=2, seed=8))
    space = ClusterSpace.TEMPORAL_WINDOW
    ids, summaries = subject_summaries(
        subject_segments(corpus, DatasetSpec(WindowConfig(50, 50))), space)
    model, assignment = fit_cluster_model(ids, summaries, space, 2, seed=8, with_scaler=True)
    assert model.scaler is not None
    assert assign_many(model, summaries).tolist() == [assignment[s] for s in ids]


def test_fit_cluster_model_solves_the_scaled_rows():
    rng = np.random.default_rng(7)
    summaries = np.concatenate([rng.normal(c, (1.0, 50.0, 0.1), size=(5, 3))
                                for c in ((0.0, 0.0, 0.0), (4.0, 200.0, 0.5))])
    ids = [f"S{i:03d}" for i in range(len(summaries))]
    model, assignment = fit_cluster_model(ids, summaries, ClusterSpace.TEMPORAL_WINDOW, 2,
                                          seed=3, restarts=4, with_scaler=True)
    centroids, labels, inertia = kmeans_fit(apply_scaler(fit_scaler(summaries), summaries),
                                            2, seed=3, restarts=4)
    assert assignment == dict(zip(ids, labels.tolist()))
    assert np.array_equal(model.centroids, centroids)
    assert model.inertia == inertia
    assert (model.k, model.space, model.seed) == (2, ClusterSpace.TEMPORAL_WINDOW, 3)


def test_cluster_report_deterministic(tmp_path):
    vectors = np.array([[0.0], [0.1], [9.9], [10.0]])
    model, assignment = fit_cluster_model(["a", "b", "c", "d"], vectors,
                                          ClusterSpace.MEAN_BPM_PROFILE, 2, seed=1)
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    write_cluster_report(model, assignment, p1)
    write_cluster_report(model, assignment, p2)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert '"k": 2' in text and '"inertia"' in text


@pytest.mark.parametrize("space", [ClusterSpace.STATISTICAL_WINDOW, ClusterSpace.TEMPORAL_WINDOW])
def test_summaries_from_sliced_vectors_match_recomputed(space, monkeypatch):
    # a routed fold fits on rows of the dataset's vector matrix; cut from
    # the subject's own windows, the summaries have the same bits
    corpus, _ = generate_synthetic(SyntheticCohortSpec(n_subjects=5, n_groups=2, seed=3))
    cfg = WindowConfig(50, 10)
    fits = []
    real = evaluation.fit_cluster_model

    def recording(ids, summaries, *args, **kwargs):
        fits.append((ids, summaries))
        return real(ids, summaries, *args, **kwargs)

    monkeypatch.setattr(evaluation, "fit_cluster_model", recording)
    monkeypatch.setattr(evaluation, "fit_classifier", lambda *args: ConstantPredictor(0))
    routed_eval(build_dataset(corpus, DatasetSpec(cfg)), 2, RoutingMode.PER_WINDOW, space,
                SvmSpec(inputs="windows"), seed=0)
    ids_sliced, sliced = fits[1]  # the fold that holds out S001
    ids, recomputed = subject_summaries(
        (part for part in subject_segments(corpus, DatasetSpec(cfg))
         if part.subject_id != "S001"), space)
    assert ids == ids_sliced == ["S000", "S002", "S003", "S004"]
    assert sliced.tobytes() == recomputed.tobytes()


def test_build_profiles_matches_window_loop_reference():
    # subjects interleaved and unsorted: sums must still run in window order
    rng = np.random.default_rng(6)
    n = 400
    values = rng.normal(80.0, 15.0, (n, 23))
    labels = np.concatenate([np.arange(5), rng.integers(0, 5, n - 5)])
    subjects = [str(s) for s in rng.choice(["S2", "S0", "S1"], n)]
    for s in ("S0", "S1", "S2"):  # every subject sees every activity
        labels[[i for i, x in enumerate(subjects) if x == s][:5]] = np.arange(5)
    expected = build_profiles_reference(values, labels, subjects)
    ids, profiles = build_profiles(values, labels, subjects)
    assert ids == sorted(expected)
    for subject, profile in zip(ids, profiles):
        assert profile.tobytes() == expected[subject].tobytes()


@pytest.mark.parametrize("space", list(ClusterSpace), ids=lambda s: s.value)
def test_subject_summaries_match_the_full_matrix_reference(space):
    # subjects interleaved and unsorted, as rows of a dataset may come
    rng = np.random.default_rng(14)
    n = 300
    values = rng.normal(80.0, 15.0, (n, 20))
    labels = rng.integers(0, 5, n)
    subjects = [str(s) for s in rng.choice(["S2", "S0", "S1"], n)]
    for s in ("S0", "S1", "S2"):  # every subject sees every activity
        labels[[i for i, x in enumerate(subjects) if x == s][:5]] = np.arange(5)
    expected_ids, expected = subject_summaries_reference(values, labels, subjects, space)
    ids, got = subject_summaries(per_subject(values, labels, subjects), space)
    assert ids == expected_ids
    assert got.tobytes() == expected.tobytes()


def test_subject_summaries_compute_one_subject_at_a_time(monkeypatch):
    # a whole stride-1 cohort in one feature call doubles the cluster command's peak memory
    corpus, _ = generate_synthetic(SyntheticCohortSpec(n_subjects=4, n_groups=2, seed=9))
    cfg = WindowConfig(50, 10)
    sizes = []
    real = clustering.window_space_matrix

    def sized(block, space):
        sizes.append(len(block))
        return real(block, space)

    monkeypatch.setattr(clustering, "window_space_matrix", sized)
    subject_summaries(subject_segments(corpus, DatasetSpec(cfg)), ClusterSpace.STATISTICAL_WINDOW)
    assert sizes == [len(segment(s, cfg)) for s in sorted(corpus, key=lambda s: s.subject_id)]
