"""Split contracts, routing rules, importance checks, timeline semantics."""

import concurrent.futures
import json
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from cohorts import shape_groups_cohort
from oracles import (
    nearest_window_reference,
    permutation_importance_reference,
    routed_eval_reference,
    subject_summaries_reference,
)

from hractivity import clustering, evaluation
from hractivity.clustering import ClusterSpace, window_space_matrix
from hractivity.errors import ConfigError, DataError, TooFewVectors
from hractivity.evaluation import (
    ConstantPredictor,
    DatasetSpec,
    NetSpec,
    RoutingMode,
    SplitKind,
    SplitPlan,
    SvmSpec,
    WindowDataset,
    build_dataset,
    cross_cluster_eval,
    fit_classifier,
    make_folds,
    misclassification_timeline,
    permutation_importance,
    routed_eval,
    run_split,
    run_sweep,
    transition_error_rates,
    within_cluster_loso,
    write_importance_csv,
    write_timeline_csv,
)
from hractivity.features import FeatureSetKind
from hractivity.metrics import balanced_accuracy, confusion_matrix
from hractivity.neuralnet import ArchitectureId, forward
from hractivity.preprocess import StandardizationMode, WindowConfig, apply_scaler, fit_scaler
from hractivity.series import ActivityLabel, SubjectSeries
from hractivity.synthetic import SyntheticCohortSpec, generate_synthetic


def cohort(n=8, groups=2, seed=1):
    series, group_map = generate_synthetic(
        SyntheticCohortSpec(n_subjects=n, n_groups=groups, seed=seed)
    )
    return series, group_map


def small_dataset(seed=1, w=50, s=25, std=StandardizationMode.DATA):
    series, _ = cohort(seed=seed)
    return build_dataset(series, DatasetSpec(WindowConfig(w, s), std, FeatureSetKind.STAT_TEMPORAL))


def manual_dataset(rows):
    """rows: (subject, values, label) triples -> WindowDataset without features.

    The rows keep their order, so subjects may interleave."""
    windows = np.array([vals for _, vals, _ in rows], dtype=float)
    ids = tuple(sorted({sid for sid, _, _ in rows}))
    return WindowDataset(
        windows=windows,
        hc=np.zeros((len(rows), 0)),
        labels=np.array([int(ActivityLabel(label)) for _, _, label in rows]),
        subject_ids=ids,
        subject_index=np.array([ids.index(sid) for sid, _, _ in rows], dtype=np.int64),
        spec=DatasetSpec(WindowConfig(windows.shape[1], 1)),
    )


def constant_series(sid="S0", n=200, label=ActivityLabel.Rest):
    t = np.arange(n, dtype=float)
    bpm = 60.0 + 5.0 * np.sin(t / 17.0)
    return SubjectSeries(subject_id=sid, device_id="synthetic", timestamps=t,
                        bpm=bpm, labels=np.full(n, int(label), dtype=np.int64))


def test_loso_folds_partition_subjects():
    ds = small_dataset()
    folds = make_folds(ds, SplitPlan(SplitKind.LEAVE_SUBJECT_OUT), seed=0)
    assert len(folds) == 8
    seen = np.zeros(len(ds), dtype=int)
    subjects = np.asarray(ds.subject_ids)[ds.subject_index]
    for fold in folds:
        assert not set(fold.train_idx) & set(fold.test_idx)
        assert set(subjects[fold.test_idx]) == {fold.held_out}
        assert fold.held_out not in set(subjects[fold.train_idx])
        seen[fold.test_idx] += 1
    assert np.all(seen == 1)


def test_random_window_stratified_shares():
    ds = small_dataset()
    folds = make_folds(ds, SplitPlan(SplitKind.RANDOM_WINDOW), seed=3)
    assert len(folds) == 1
    train_idx, test_idx = folds[0].train_idx, folds[0].test_idx
    assert len(set(train_idx) | set(test_idx)) == len(ds)
    for label in np.unique(ds.labels):
        share = np.isin(test_idx, np.nonzero(ds.labels == label)[0]).sum() / (
            ds.labels == label
        ).sum()
        assert abs(share - 0.3) <= 0.05, label


def test_random_window_deterministic_given_seed():
    ds = small_dataset()
    a = make_folds(ds, SplitPlan(SplitKind.RANDOM_WINDOW), seed=5)[0]
    b = make_folds(ds, SplitPlan(SplitKind.RANDOM_WINDOW), seed=5)[0]
    c = make_folds(ds, SplitPlan(SplitKind.RANDOM_WINDOW), seed=6)[0]
    assert np.array_equal(a.test_idx, b.test_idx)
    assert not np.array_equal(a.test_idx, c.test_idx)


def test_report_invariants():
    ds = small_dataset()
    rep = run_split(ds, SplitPlan(SplitKind.LEAVE_SUBJECT_OUT),
                    SvmSpec(inputs="features"), seed=1)
    assert abs(rep.accuracy - np.trace(rep.confusion) / rep.confusion.sum()) < 1e-12
    assert rep.confusion.sum() == len(ds)
    assert len(rep.folds) == 8
    assert rep.config["window_size"] == 50 and rep.config["stride"] == 25


def test_feature_standardization_fits_on_train_only(monkeypatch):
    ds = small_dataset(std=StandardizationMode.FEATURE)
    folds = make_folds(ds, SplitPlan(SplitKind.LEAVE_SUBJECT_OUT), seed=0)
    train_idx, test_idx = folds[0].train_idx, folds[0].test_idx
    expected = fit_scaler(ds.hc[train_idx])
    for spec, predictor in ((SvmSpec(inputs="features"), "predict_ovo"),
                            (NetSpec(arch=ArchitectureId.MODEL1, epochs=1), "net_predict")):
        clf = fit_classifier(spec, ds, train_idx, seed=4)
        assert np.array_equal(clf.scaler.mean, expected.mean)
        assert np.array_equal(clf.scaler.std, expected.std)
        # scaler stats must not be influenced by any test row
        assert not np.allclose(clf.scaler.mean, fit_scaler(ds.hc).mean)
        # and the fitted classifier predicts from features its own scaler scaled
        seen = []
        monkeypatch.setattr(evaluation, predictor, lambda *args: seen.append(args[-1]))
        clf.predict(ds.windows[test_idx], ds.hc[test_idx])
        assert np.array_equal(seen[0], apply_scaler(clf.scaler, ds.hc[test_idx])), predictor


def test_worker_count_does_not_change_results():
    ds = small_dataset()
    plan = SplitPlan(SplitKind.LEAVE_SUBJECT_OUT)
    spec = SvmSpec(inputs="features")
    one = run_split(ds, plan, spec, seed=2, workers=1)
    two = run_split(ds, plan, spec, seed=2, workers=2)
    assert np.array_equal(one.confusion, two.confusion)
    assert one.folds == two.folds


def test_pool_never_has_more_workers_than_jobs(monkeypatch):
    # a fork pool starts all its workers at the first submit, whatever the job count
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    # _run_jobs imports the pool class from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    ds = small_dataset()
    plan = SplitPlan(SplitKind.LEAVE_SUBJECT_OUT)
    spec = SvmSpec(inputs="features")
    many = run_split(ds, plan, spec, seed=2, workers=100_000)
    assert sizes == [len(ds.subject_ids)]
    one = run_split(ds, plan, spec, seed=2, workers=1)
    assert np.array_equal(many.confusion, one.confusion)
    assert many.folds == one.folds
    assert evaluation._run_jobs(abs, [(-3,)], workers=4) == [3]
    assert evaluation._run_jobs(abs, [], workers=4) == []
    assert sizes == [len(ds.subject_ids)]


def test_sweep_grid_shape_and_window_arithmetic():
    series, _ = cohort(n=3)
    data = DatasetSpec(WindowConfig(50, 10), StandardizationMode.DATA, FeatureSetKind.STATISTICAL)
    reports = run_sweep(series, data, [50, 80, 100, 120], [10, 25, 40, 50, 80, 100, 120],
                        SplitPlan(SplitKind.RANDOM_WINDOW),
                        SvmSpec(inputs="features"), seed=1)
    assert len(reports) == 28
    assert set(reports) == {(w, s) for w in (50, 80, 100, 120)
                            for s in (10, 25, 40, 50, 80, 100, 120)}
    ds = build_dataset(series[:1], DatasetSpec(WindowConfig(120, 120)))
    assert len(ds) == 6  # floor((780-120)/120)+1


def test_cross_cluster_memorization_and_empty():
    rows = []
    for sid in ("A", "B"):
        for i in range(6):
            rows.append((sid, np.linspace(0, 1, 12) + i * 0.01, 0))
            rows.append((sid, np.linspace(10, 11, 12) + i * 0.01, 2))
    ds = manual_dataset(rows)
    assign = {"A": 0, "B": 0}
    rep = cross_cluster_eval(ds, assign, 0, 0, SvmSpec(inputs="windows"), seed=0)
    assert rep.balanced_accuracy == 1.0
    with pytest.raises(DataError, match="^test cluster 1 has no windows$"):
        cross_cluster_eval(ds, assign, 0, 1, SvmSpec(inputs="windows"), seed=0)


def test_svm_reading_features_refuses_a_dataset_without_them():
    ds = manual_dataset([(sid, np.linspace(0, 1, 12) + i, 2 * (i % 2))
                         for i, sid in enumerate("ABAB")])
    for inputs in ("features", "both"):
        with pytest.raises(ConfigError, match=f"^svm on {inputs} requires a feature set$"):
            SvmSpec(inputs=inputs).fit(ds, np.arange(len(ds)), ds.labels, seed=0)


def test_within_cluster_loso_folds_and_singleton_warning():
    ds = small_dataset()
    assign = {f"S{i:03d}": (0 if i < 2 else (1 if i < 7 else 2)) for i in range(8)}
    result = within_cluster_loso(ds, assign, SvmSpec(inputs="features"), seed=1)
    assert sorted(result.clusters) == [0, 1]
    assert len(result.clusters[0].folds) == 2
    assert len(result.clusters[1].folds) == 5
    assert len(result.warnings) == 1
    assert result.warnings[0]["cluster"] == 2
    assert result.baseline.confusion.sum() == len(ds)


def routing_toy():
    rows = []
    # two training subjects in well-separated value regions, constant labels
    for i in range(8):
        rows.append(("A", np.linspace(0, 1, 12) + 0.02 * i, 1))
        rows.append(("B", np.linspace(40, 41, 12) + 0.02 * i, 3))
    # held-out subject: 5 windows in A territory, 3 in B territory, all truly 1
    for i in range(5):
        rows.append(("C", np.linspace(0, 1, 12) + 0.02 * i, 1))
    for i in range(3):
        rows.append(("C", np.linspace(40, 41, 12) + 0.02 * i, 1))
    return manual_dataset(rows)


def test_per_subject_routing_uses_the_subject_mean_cluster():
    ds = routing_toy()
    rep = routed_eval(ds, 2, RoutingMode.PER_SUBJECT, ClusterSpace.STATISTICAL_WINDOW,
                      SvmSpec(inputs="windows"), seed=0)
    fold_c = [f for f in rep.folds if f.held_out == "C"][0]
    assert fold_c.accuracy == 1.0  # C's mean vector lies nearer A: all its windows go there


@pytest.mark.parametrize("space", [ClusterSpace.STATISTICAL_WINDOW,
                                   ClusterSpace.TEMPORAL_WINDOW], ids=lambda s: s.value)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_per_subject_routing_sends_each_subject_to_its_group_mates(monkeypatch, space, seed):
    # each fold clusters its train subjects by their mean vectors, so a
    # held-out subject is routed by its own mean vector too
    ds = build_dataset(shape_groups_cohort(seed),
                       DatasetSpec(WindowConfig(50, 25), StandardizationMode.DATA))
    ds = replace(ds, labels=(ds.subject_index >= 6).astype(np.int64))  # label: subject's group
    groups = {sid: int(i >= 6) for i, sid in enumerate(ds.subject_ids)}
    clusterings = []
    real_cluster = evaluation.fit_cluster_model

    def cluster(*args, **kwargs):
        model, assign = real_cluster(*args, **kwargs)
        clusterings.append(assign)
        return model, assign

    def majority(spec, ds, train_idx, seed):  # predicts the group of its cluster
        return ConstantPredictor(np.bincount(ds.labels[train_idx]).argmax())

    monkeypatch.setattr(evaluation, "fit_cluster_model", cluster)
    monkeypatch.setattr(evaluation, "fit_classifier", majority)
    rep = routed_eval(ds, 2, RoutingMode.PER_SUBJECT, space, SvmSpec(inputs="windows"), seed=seed)
    for assign in clusterings:  # every fold's clusters are the two groups
        assert len({(groups[sid], c) for sid, c in assign.items()}) == 2
    assert [f.accuracy for f in rep.folds] == [1.0] * 12


def test_per_window_routing_splits_subject():
    ds = routing_toy()
    rep = routed_eval(ds, 2, RoutingMode.PER_WINDOW, ClusterSpace.STATISTICAL_WINDOW,
                      SvmSpec(inputs="windows"), seed=0)
    fold_c = [f for f in rep.folds if f.held_out == "C"][0]
    assert abs(fold_c.accuracy - 5.0 / 8.0) < 1e-12


def test_routed_eval_rejects_profile_space_and_big_k(monkeypatch):
    ds = routing_toy()

    def no_fold(*args, **kwargs):
        raise AssertionError("a fold ran before the space was refused")

    refused = "^window vectors undefined for profile space$"
    with monkeypatch.context() as patch, pytest.raises(DataError, match=refused):
        patch.setattr(evaluation, "fit_cluster_model", no_fold)
        routed_eval(ds, 2, RoutingMode.PER_WINDOW, ClusterSpace.MEAN_BPM_PROFILE,
                    SvmSpec(inputs="windows"), seed=0)
    refused = (r"^k=3 with 2 vectors: clustering\.k = 3 but the fold holding out subject 'A' "
               r"trains on 2 subjects$")
    with pytest.raises(TooFewVectors, match=refused):
        routed_eval(ds, 3, RoutingMode.PER_WINDOW, ClusterSpace.STATISTICAL_WINDOW,
                    SvmSpec(inputs="windows"), seed=0)


def test_importance_constant_dimension_is_zero():
    rng = np.random.default_rng(2)
    n = 150
    labels = rng.integers(0, 3, size=n)
    hc = np.column_stack([labels + 0.05 * rng.normal(size=n), np.full(n, 7.7)])
    windows = rng.normal(size=(n, 6))
    ds_like_names = ("0_Signal", "0_Constant")
    clf = fit_classifier(
        SvmSpec(inputs="features"),
        WindowDataset(windows, hc, labels, ("S",), np.zeros(n, dtype=np.int64),
                      DatasetSpec(WindowConfig(6, 1))),
        np.arange(n), seed=1,
    )
    rep = permutation_importance(clf, windows, hc, labels, ds_like_names, seed=3)
    assert len(rep.names) == 8
    assert rep.importances[7] == 0.0  # constant column: permutation is identity
    # windows are ignored by a feature-input classifier
    assert np.all(rep.importances[:6] == 0.0)
    assert rep.importances[6] > 0.3


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_importance_noise_feature_near_zero(seed):
    rng = np.random.default_rng(seed)
    n = 150
    labels = rng.integers(0, 3, size=n)
    hc = np.column_stack([
        labels + 0.05 * rng.normal(size=n),
        labels * 2.0 + 0.05 * rng.normal(size=n),
        rng.normal(size=n),  # pure noise
    ])
    windows = np.zeros((n, 4))
    names = ("0_A", "0_B", "0_Noise")
    ds = WindowDataset(windows, hc, labels, ("S",), np.zeros(n, dtype=np.int64),
                       DatasetSpec(WindowConfig(4, 1)))
    clf = fit_classifier(SvmSpec(inputs="features"), ds, np.arange(n), seed=seed)
    rep = permutation_importance(clf, windows, hc, labels, names, seed=seed)
    assert abs(rep.importances[6]) <= 0.02  # the noise column


def test_importance_cheat_feature_ranks_first(tmp_path):
    rng = np.random.default_rng(9)
    n = 200
    labels = rng.integers(0, 5, size=n)
    hc = np.column_stack([rng.normal(size=n), labels.astype(float)])
    windows = rng.normal(size=(n, 5))
    names = ("0_Noise", "0_Cheat")
    ds = WindowDataset(windows, hc, labels, ("S",), np.zeros(n, dtype=np.int64),
                       DatasetSpec(WindowConfig(5, 1)))
    clf = fit_classifier(SvmSpec(inputs="features"), ds, np.arange(n), seed=2)
    rep = permutation_importance(clf, windows, hc, labels, names, seed=2)
    assert rep.names[int(np.argmax(rep.importances))] == "0_Cheat"
    write_importance_csv(rep, tmp_path / "imp.csv", top=3)
    lines = (tmp_path / "imp.csv").read_text().splitlines()
    assert lines[0] == "name,importance,rank"
    assert lines[1].startswith("0_Cheat,")
    assert len(lines) == 4


class CountingPredicts:
    """Forwards to a fitted classifier and counts its predict calls."""

    def __init__(self, clf):
        self.clf = clf
        self.reads_windows = clf.reads_windows
        self.reads_hc = clf.reads_hc
        self.calls = 0

    def predict(self, windows, hc):
        self.calls += 1
        return self.clf.predict(windows, hc)


@pytest.mark.parametrize("spec,reads", [
    (SvmSpec(inputs="features"), (False, True)),
    (SvmSpec(inputs="windows"), (True, False)),
    (SvmSpec(inputs="both"), (True, True)),
    (NetSpec(arch=ArchitectureId.BASELINE, epochs=2), (True, False)),
    (NetSpec(arch=ArchitectureId.MODEL1, epochs=2), (True, True)),
    (None, (False, False)),  # single-class training rows: a ConstantPredictor
], ids=["svm-features", "svm-windows", "svm-both", "net-baseline", "net-model1", "constant"])
def test_importance_skips_only_unread_inputs(spec, reads):
    ds = small_dataset(w=20, s=40)
    rows = np.arange(len(ds))
    if spec is None:
        clf = fit_classifier(SvmSpec(), ds, rows[ds.labels[rows] == ds.labels[0]], seed=3)
        assert isinstance(clf, ConstantPredictor)
    else:
        clf = fit_classifier(spec, ds, rows, seed=3)
    assert (clf.reads_windows, clf.reads_hc) == reads
    counted = CountingPredicts(clf)
    rep = permutation_importance(counted, ds.windows, ds.hc, ds.labels, ds.spec.feature_names,
                                 seed=4)
    read_dims = reads[0] * ds.spec.window.window_size + reads[1] * ds.hc.shape[1]
    assert counted.calls == 1 + 5 * read_dims
    want = permutation_importance_reference(clf, ds.windows, ds.hc, ds.labels, seed=4)
    assert np.array_equal(rep.importances, want)
    unread = np.array([not reads[0]] * ds.spec.window.window_size + [not reads[1]] * ds.hc.shape[1])
    assert np.all(rep.importances[unread] == 0.0)


def test_constant_predictor_saves_its_label(tmp_path):
    ConstantPredictor(2).save(tmp_path / "model.json")
    saved = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
    assert saved == {"label": 2, "schema": "constant_model.v1"}


class FixedAnswers:
    """Predicts a pre-computed label sequence, one per window row."""

    def __init__(self, answers):
        self.answers = np.asarray(answers, dtype=np.int64)

    def predict(self, windows, hc):
        return self.answers[: np.atleast_2d(windows).shape[0]]


def test_timeline_perfect_model_all_correct(tmp_path):
    series = constant_series()
    cfg = DatasetSpec(WindowConfig(50, 10))
    n_windows = (200 - 50) // 10 + 1
    clf = FixedAnswers(np.zeros(n_windows, dtype=int))
    rec = misclassification_timeline(clf, series, cfg)
    assert rec.correct.all()
    assert rec.transition.sum() == 0
    write_timeline_csv(rec, tmp_path / "tl.csv")
    lines = (tmp_path / "tl.csv").read_text().splitlines()
    assert lines[0] == "t,bpm,true,pred,correct,transition"
    assert len(lines) == 201


def test_timeline_transition_marker_count():
    series, _ = cohort(n=1, groups=1)
    rec = misclassification_timeline(
        FixedAnswers(np.zeros(4000, dtype=int)), series[0], DatasetSpec(WindowConfig(50, 10))
    )
    labels = np.array([int(v) for v in series[0].labels])
    assert rec.transition.sum() == np.sum(labels[1:] != labels[:-1]) == 4


def test_timeline_nearest_center_tie_to_earlier():
    # W=4, S=2: centers at 1.5, 3.5, 5.5... timestep 0..3 nearest checks
    series = constant_series(n=10)
    clf = FixedAnswers(np.arange(4) % 2)  # alternating predictions expose routing
    rec = misclassification_timeline(clf, series, DatasetSpec(WindowConfig(4, 2)))
    # t=2 is 0.5 from both centers 1.5 and 3.5 -> earlier window wins
    assert rec.predicted[2] == rec.predicted[1]


def test_timeline_nearest_center_matches_dense_reference():
    for n in [*range(2, 30, 3), 29, 47, 64, 101]:
        series = constant_series(n=n)
        for w in range(2, min(n, 29) + 1):
            for stride in range(1, 25):
                n_windows = (n - w) // stride + 1
                rec = misclassification_timeline(FixedAnswers(np.arange(n_windows)), series,
                                                 DatasetSpec(WindowConfig(w, stride)))
                want = nearest_window_reference(n, w, stride)
                assert np.array_equal(rec.predicted, want), (n, w, stride)


def test_timeline_memory_is_linear_in_series_length():
    import tracemalloc

    series = constant_series(n=8000)
    clf = FixedAnswers(np.zeros(8000, dtype=int))
    tracemalloc.start()
    try:
        misclassification_timeline(clf, series, DatasetSpec(WindowConfig(50, 10)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak


def test_timeline_too_short():
    with pytest.raises(DataError, match=r"window_size 50: the longest has 30 samples"):
        misclassification_timeline(FixedAnswers([0]), constant_series(n=30),
                                   DatasetSpec(WindowConfig(50, 10)))


def test_transition_error_rates_windowing():
    t = np.arange(200, dtype=float)
    rec_args = dict(timestamps=t, bpm=np.full(200, 60.0))
    true = np.zeros(200, dtype=np.int64)
    true[100:] = 2
    pred = true.copy()
    pred[100:130] = 0  # errors only in the 30 s after the switch
    from hractivity.evaluation import TimelineRecord

    rec = TimelineRecord(true_labels=true, predicted=pred, correct=pred == true,
                         transition=np.concatenate([[False], true[1:] != true[:-1]]),
                         **rec_args)
    post, steady = transition_error_rates(rec)  # TRANSITION_HORIZON_S = 60
    assert post == 0.5  # 30 errors in the 60-step window
    assert steady == 0.0


def test_build_dataset_no_windows():
    with pytest.raises(DataError, match=r"^no series long enough for window_size 50: "
                                        r"the longest has 30 samples$"):
        build_dataset([constant_series(n=30)], DatasetSpec(WindowConfig(50, 10)))


def test_net_classifier_adapter_runs():
    ds = small_dataset(w=30, s=60)
    spec = NetSpec(epochs=2)
    rep = run_split(ds, SplitPlan(SplitKind.RANDOM_WINDOW), spec, seed=1)
    assert rep.confusion.sum() == rep.folds[0].n_test
    assert rep.config["model"]["kind"] == "net"


def test_net_spec_trains_and_predicts_in_float32():
    # build draws float64; the fit trains a float32 copy, and predict runs it
    ds = small_dataset(w=30, s=60, std=StandardizationMode.FEATURE)
    rows = np.arange(len(ds))
    clf = fit_classifier(NetSpec(arch=ArchitectureId.MODEL1, epochs=2), ds, rows, seed=1)
    assert {arr.dtype for arr in clf.model.params.values()} == {np.dtype(np.float32)}
    scores = forward(clf.model, ds.windows, apply_scaler(clf.scaler, ds.hc))
    assert scores.dtype == np.float32
    assert np.array_equal(clf.predict(ds.windows, ds.hc), np.argmax(scores, axis=1))


def test_the_net_build_decides_which_nets_need_features():
    series, _ = cohort()
    ds = build_dataset(series, DatasetSpec(WindowConfig(30, 60), StandardizationMode.DATA))
    rows = np.arange(len(ds))
    for arch in (ArchitectureId.MODEL1, ArchitectureId.MODEL3):
        with pytest.raises(ConfigError, match=f"^{arch.value} needs hc_dim > 0$"):
            fit_classifier(NetSpec(arch=arch, epochs=1), ds, rows, seed=1)
    # Model2 without features is the Baseline net
    clf = fit_classifier(NetSpec(arch=ArchitectureId.MODEL2, epochs=1), ds, rows, seed=1)
    assert not clf.reads_hc
    assert clf.predict(ds.windows, ds.hc).shape == (len(ds),)


def interleaved_dataset():
    """Four subjects whose windows interleave in row order, every activity each."""
    rng = np.random.default_rng(14)
    sids = [str(s) for s in rng.choice(["S2", "S0", "S3", "S1"], 160)]
    labels = rng.integers(0, 5, len(sids))
    for s in set(sids):
        labels[[i for i, x in enumerate(sids) if x == s][:5]] = np.arange(5)
    return manual_dataset([(sid, rng.normal(80.0, 15.0, 12), ActivityLabel(int(label)))
                           for sid, label in zip(sids, labels)])


@pytest.mark.parametrize("space", [ClusterSpace.STATISTICAL_WINDOW,
                                   ClusterSpace.TEMPORAL_WINDOW], ids=lambda s: s.value)
@pytest.mark.parametrize("make", [interleaved_dataset, small_dataset],
                         ids=["interleaved", "cohort"])
def test_routed_fold_summaries_match_the_full_matrix_reference(monkeypatch, make, space):
    ds = make()
    fits = []
    real_fit = evaluation.fit_cluster_model

    def fit(ids, summaries, *args, **kwargs):
        fits.append((ids, summaries))
        return real_fit(ids, summaries, *args, **kwargs)

    monkeypatch.setattr(evaluation, "fit_cluster_model", fit)
    monkeypatch.setattr(evaluation, "fit_classifier", lambda *args: ConstantPredictor(0))
    routed_eval(ds, 2, RoutingMode.PER_WINDOW, space, SvmSpec(inputs="windows"), seed=0)
    assert len(fits) == len(ds.subject_ids)
    # folds are clustered in fold order, so the i-th clustering is fold i's
    folds = make_folds(ds, SplitPlan(SplitKind.LEAVE_SUBJECT_OUT), seed=0)
    subjects = np.asarray(ds.subject_ids)[ds.subject_index]
    vectors = window_space_matrix(ds.windows, space)
    for (ids, summaries), train_idx in zip(fits, [job.train_idx for job in folds]):
        rows = (ds.windows[train_idx], ds.labels[train_idx], subjects[train_idx])
        expected_ids, expected = subject_summaries_reference(*rows, space, vectors[train_idx])
        assert ids == expected_ids
        assert summaries.tobytes() == expected.tobytes()


@pytest.mark.parametrize("routing", list(RoutingMode))
def test_routed_eval_computes_window_vectors_once(monkeypatch, routing):
    ds = small_dataset(std=StandardizationMode.FEATURE)
    calls = []
    real = clustering.window_space_matrix

    def counting(values, space):
        calls.append(len(values))
        return real(values, space)

    monkeypatch.setattr(evaluation, "window_space_matrix", counting)
    monkeypatch.setattr(clustering, "window_space_matrix", counting)
    rep = routed_eval(ds, 2, routing, ClusterSpace.STATISTICAL_WINDOW, SvmSpec(), seed=3)
    assert len(rep.folds) == 8
    assert calls == [len(ds)]  # once for the dataset, never per fold


def fold_seed(seed, fold_id):
    return int(np.random.SeedSequence(entropy=(seed, fold_id)).generate_state(1)[0])


def test_fold_jobs_carry_each_protocols_seed(monkeypatch):
    ds = small_dataset()
    sids = list(ds.subject_ids)
    subjects = np.asarray(sids)[ds.subject_index]
    assign = {sid: int(i >= 3) for i, sid in enumerate(sids)}
    seen, fits = [], []

    def record(spec, ds, train_idx, seed):
        fits.append((np.asarray(train_idx), seed))
        return ConstantPredictor(0)

    monkeypatch.setattr(evaluation, "fit_classifier", record)
    spec = SvmSpec()

    def jobs_of(run):
        fits.clear()
        result = run()
        reports = (list(result.clusters.values()) + [result.baseline]
                   if isinstance(result, evaluation.WithinClusterResult) else [result])
        folds = [fold for report in reports for fold in report.folds]
        assert len(folds) == len(fits)  # one fit per fold, in fold order
        for fold, (train_idx, _) in zip(folds, fits):
            if fold.held_out in sids:  # train and test disjoint
                assert fold.held_out not in subjects[train_idx]
            else:
                assert train_idx.size + fold.n_test == len(ds)
        return [(fold.fold_id, fold.held_out, seed) for fold, (_, seed) in zip(folds, fits)]

    # every fold seed comes from the seed argument
    loso = [(i, sid, fold_seed(4, i)) for i, sid in enumerate(sids)]
    assert jobs_of(lambda: run_split(ds, SplitPlan(SplitKind.LEAVE_SUBJECT_OUT),
                                     spec, seed=4)) == loso
    assert jobs_of(lambda: run_split(ds, SplitPlan(SplitKind.RANDOM_WINDOW),
                                     spec, seed=4)) == [(0, "random:0.3", fold_seed(4, 0))]
    within = ([(i, sid, fold_seed(4, i)) for i, sid in enumerate(sids[:3])]
              + [(i, sid, fold_seed(4, 1000 + i)) for i, sid in enumerate(sids[3:])])
    assert jobs_of(lambda: within_cluster_loso(ds, assign, spec, seed=4)) == within + loso
    assert jobs_of(lambda: cross_cluster_eval(ds, assign, 0, 1, spec, seed=4)) == [
        (0, "cluster:1", fold_seed(4, 0))]
    # a routed run clusters each fold with the fold's seed; its fits are
    # shared between folds, so the folds are seen through the clustering
    real_cluster = evaluation.fit_cluster_model

    def record_clustering(ids, summaries, space, k, seed, **kwargs):
        held_out = [sid for sid in sids if sid not in ids]
        assert len(held_out) == 1 and len(ids) == len(sids) - 1  # train and test disjoint
        seen.append((len(seen), held_out[0], seed))
        return real_cluster(ids, summaries, space, k, seed, **kwargs)

    monkeypatch.setattr(evaluation, "fit_cluster_model", record_clustering)
    for routing in RoutingMode:
        seen.clear()
        routed_eval(ds, 2, routing, ClusterSpace.STATISTICAL_WINDOW, spec, seed=4)
        assert seen == loso


def test_routed_cluster_classifiers_are_seeded_from_the_fold_seed(monkeypatch):
    # a net reads its seed, so no two (fold, cluster) pairs share a fit
    ds = small_dataset(std=StandardizationMode.FEATURE)
    seeds = []
    real = evaluation.fit_classifier

    def record(spec, ds, train_idx, seed):
        seeds.append(seed)
        return real(spec, ds, train_idx, seed)

    monkeypatch.setattr(evaluation, "fit_classifier", record)
    routed_eval(ds, 2, RoutingMode.PER_WINDOW, ClusterSpace.STATISTICAL_WINDOW,
                NetSpec(epochs=1), seed=4)
    assert seeds == [fold_seed(fold_seed(4, f), 10 + c) for f in range(8) for c in range(2)]


def record_routed_fits(monkeypatch):
    """Patch the clustering, the routing and the classifier fits of ``evaluation``.

    Returns (each fold's cluster member sets, in cluster order; each fold's
    routed clusters; each fit's train rows and seed, in call order).
    """
    clusterings, routes, fits = [], [], []
    real_cluster, real_fit = evaluation.fit_cluster_model, evaluation.fit_classifier
    real_assign = evaluation.assign_many

    def cluster(*args, **kwargs):
        model, assign = real_cluster(*args, **kwargs)
        clusterings.append([tuple(sorted(sid for sid in assign if assign[sid] == c))
                            for c in sorted(set(assign.values()))])
        return model, assign

    def assign(model, vectors):
        routes.append(real_assign(model, vectors))
        return routes[-1]

    def fit(spec, ds, train_idx, seed):
        fits.append((np.asarray(train_idx), seed))
        return real_fit(spec, ds, train_idx, seed)

    monkeypatch.setattr(evaluation, "fit_cluster_model", cluster)
    monkeypatch.setattr(evaluation, "assign_many", assign)
    monkeypatch.setattr(evaluation, "fit_classifier", fit)
    return clusterings, routes, fits


@pytest.mark.parametrize("routing", list(RoutingMode))
def test_routed_svm_fits_each_distinct_member_set_once(monkeypatch, routing):
    ds = small_dataset(std=StandardizationMode.FEATURE)
    clusterings, routes, fits = record_routed_fits(monkeypatch)
    routed_eval(ds, 2, routing, ClusterSpace.STATISTICAL_WINDOW, SvmSpec(), seed=4)
    assert len(clusterings) == len(routes) == 8
    used = [members for fold in clusterings for members in fold]
    # (fold, cluster) pairs whose cluster some test window of the fold reaches
    read = [(f, int(c)) for f, routed in enumerate(routes) for c in np.unique(routed)]
    distinct = list(dict.fromkeys(clusterings[f][c] for f, c in read))  # first-use order
    if routing is RoutingMode.PER_SUBJECT:  # a fold reads one of its two clusters
        assert len(read) == 8 and len(distinct) < len(set(used))
    else:
        assert len(distinct) < len(read)  # member sets recur in this cohort
    subjects = np.asarray(ds.subject_ids)[ds.subject_index]
    assert len(fits) == len(distinct)
    for members, (train_idx, seed) in zip(distinct, fits):
        # all the member subjects' windows, in row order
        assert np.array_equal(train_idx, np.flatnonzero(np.isin(subjects, members)))
        f, c = next((f, c) for f, c in read if clusterings[f][c] == members)
        assert seed == fold_seed(fold_seed(4, f), 10 + c)  # the first reader's


def recurring_cohort():
    """Nine subjects in three groups: at k = 3, 13 of the 27 (fold, cluster)
    member sets are distinct."""
    series, _ = cohort(n=9, groups=3, seed=5)
    return build_dataset(series, DatasetSpec(WindowConfig(50, 25), StandardizationMode.FEATURE,
                                             FeatureSetKind.STAT_TEMPORAL))


@pytest.mark.parametrize("routing", list(RoutingMode))
@pytest.mark.parametrize("make,k,spec", [
    (routing_toy, 2, SvmSpec(inputs="windows")),
    (recurring_cohort, 3, SvmSpec()),
], ids=["routing_toy", "recurring_cohort"])
def test_routed_eval_matches_the_per_fold_reference(monkeypatch, make, k, spec, routing):
    ds = make()
    want_confusion, want_folds = routed_eval_reference(
        ds, k, routing, ClusterSpace.STATISTICAL_WINDOW, spec, seed=2)
    clusterings, _, fits = record_routed_fits(monkeypatch)
    rep = routed_eval(ds, k, routing, ClusterSpace.STATISTICAL_WINDOW, spec, seed=2)
    assert rep.confusion.tobytes() == want_confusion.tobytes()
    assert rep.folds == want_folds
    if make is recurring_cohort:  # the reference refitted at least one shared set
        assert len(fits) < k * len(clusterings)
    monkeypatch.undo()
    two = routed_eval(ds, k, routing, ClusterSpace.STATISTICAL_WINDOW, spec, seed=2, workers=2)
    assert two.confusion.tobytes() == rep.confusion.tobytes()
    assert two.folds == rep.folds
