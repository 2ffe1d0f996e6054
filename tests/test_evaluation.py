"""Split contracts, routing rules, importance checks, timeline semantics."""

import numpy as np
import pytest
from oracles import permutation_importance_reference

from hractivity.clustering import ClusterSpace, fit_cluster_model
from hractivity.errors import EmptyCluster, InvalidConfig, NoWindows, SeriesTooShort, TooFewVectors
from hractivity.evaluation import (
    ConstantPredictor,
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
from hractivity.neuralnet import ArchitectureId
from hractivity.preprocess import StandardizationMode, Window, WindowConfig, fit_scaler
from hractivity.series import ActivityLabel, SubjectSeries
from hractivity.synthetic import SyntheticCohortSpec, generate_synthetic


def cohort(n=8, groups=2, seed=1):
    series, group_map = generate_synthetic(
        SyntheticCohortSpec(n_subjects=n, n_groups=groups, seed=seed)
    )
    return series, group_map


def small_dataset(seed=1, w=50, s=25, std=StandardizationMode.DATA):
    series, _ = cohort(seed=seed)
    return build_dataset(series, WindowConfig(w, s), std, FeatureSetKind.STAT_TEMPORAL)


def manual_dataset(rows):
    """rows: (subject, values, label) triples -> WindowDataset without features."""
    objs = tuple(
        Window(subject_id=sid, start_index=i, values=np.asarray(vals, dtype=float),
               label=ActivityLabel(label))
        for i, (sid, vals, label) in enumerate(rows)
    )
    return WindowDataset(
        windows=np.stack([w.values for w in objs]),
        hc=np.zeros((len(objs), 0)),
        labels=np.array([int(w.label) for w in objs]),
        subjects=tuple(w.subject_id for w in objs),
        starts=np.array([w.start_index for w in objs]),
        window_objs=objs,
        hc_names=(),
        window_size=len(objs[0].values),
        stride=1,
        standardization=StandardizationMode.NONE,
        feature_kind=None,
    )


def constant_series(sid="S0", n=200, label=ActivityLabel.Rest):
    t = np.arange(n, dtype=float)
    bpm = 60.0 + 5.0 * np.sin(t / 17.0)
    return SubjectSeries(subject_id=sid, device_id="synthetic", timestamps=t,
                        bpm=bpm, labels=np.full(n, int(label), dtype=np.int64))


def test_loso_folds_partition_subjects():
    ds = small_dataset()
    folds = make_folds(ds, SplitPlan(SplitKind.LEAVE_SUBJECT_OUT, seed=0))
    assert len(folds) == 8
    seen = np.zeros(len(ds), dtype=int)
    subjects = ds.subject_array()
    for _, held_out, train_idx, test_idx in folds:
        assert not set(train_idx) & set(test_idx)
        assert set(subjects[test_idx]) == {held_out}
        assert held_out not in set(subjects[train_idx])
        seen[test_idx] += 1
    assert np.all(seen == 1)


def test_random_window_stratified_shares():
    ds = small_dataset()
    folds = make_folds(ds, SplitPlan(SplitKind.RANDOM_WINDOW, seed=3))
    assert len(folds) == 1
    _, _, train_idx, test_idx = folds[0]
    assert len(set(train_idx) | set(test_idx)) == len(ds)
    for label in np.unique(ds.labels):
        share = np.isin(test_idx, np.nonzero(ds.labels == label)[0]).sum() / (
            ds.labels == label
        ).sum()
        assert abs(share - 0.3) <= 0.05, label


def test_random_window_deterministic_given_seed():
    ds = small_dataset()
    a = make_folds(ds, SplitPlan(SplitKind.RANDOM_WINDOW, seed=5))[0]
    b = make_folds(ds, SplitPlan(SplitKind.RANDOM_WINDOW, seed=5))[0]
    c = make_folds(ds, SplitPlan(SplitKind.RANDOM_WINDOW, seed=6))[0]
    assert np.array_equal(a[3], b[3])
    assert not np.array_equal(a[3], c[3])


def test_report_invariants():
    ds = small_dataset()
    rep = run_split(ds, SplitPlan(SplitKind.LEAVE_SUBJECT_OUT, seed=1),
                    SvmSpec(inputs="features"), seed=1)
    assert abs(rep.accuracy - np.trace(rep.confusion) / rep.confusion.sum()) < 1e-12
    assert rep.confusion.sum() == len(ds)
    assert len(rep.folds) == 8
    assert rep.config["window_size"] == 50 and rep.config["stride"] == 25


def test_feature_standardization_fits_on_train_only():
    ds = small_dataset(std=StandardizationMode.FEATURE)
    folds = make_folds(ds, SplitPlan(SplitKind.LEAVE_SUBJECT_OUT, seed=0))
    _, _, train_idx, test_idx = folds[0]
    spec = SvmSpec(inputs="features")
    clf = fit_classifier(spec, ds, train_idx, seed=4)
    expected = fit_scaler(ds.hc[train_idx])
    assert np.array_equal(clf.scaler.mean, expected.mean)
    assert np.array_equal(clf.scaler.std, expected.std)
    # scaler stats must not be influenced by any test row
    assert not np.allclose(clf.scaler.mean, fit_scaler(ds.hc).mean)


def test_worker_count_does_not_change_results():
    ds = small_dataset()
    plan = SplitPlan(SplitKind.LEAVE_SUBJECT_OUT, seed=2)
    spec = SvmSpec(inputs="features")
    one = run_split(ds, plan, spec, seed=2, workers=1)
    two = run_split(ds, plan, spec, seed=2, workers=2)
    assert np.array_equal(one.confusion, two.confusion)
    assert one.folds == two.folds


def test_sweep_grid_shape_and_window_arithmetic():
    series, _ = cohort(n=3)
    reports = run_sweep(series, [50, 80, 100, 120], [10, 25, 40, 50, 80, 100, 120],
                        SplitPlan(SplitKind.RANDOM_WINDOW, seed=1),
                        SvmSpec(inputs="features"),
                        StandardizationMode.DATA, FeatureSetKind.STATISTICAL, seed=1)
    assert len(reports) == 28
    assert set(reports) == {(w, s) for w in (50, 80, 100, 120)
                            for s in (10, 25, 40, 50, 80, 100, 120)}
    ds = build_dataset(series[:1], WindowConfig(120, 120))
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
    with pytest.raises(EmptyCluster):
        cross_cluster_eval(ds, assign, 0, 1, SvmSpec(inputs="windows"), seed=0)


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


def test_per_subject_routing_uses_majority_cluster():
    ds = routing_toy()
    rep = routed_eval(ds, 2, RoutingMode.PER_SUBJECT, ClusterSpace.STATISTICAL_WINDOW,
                      SvmSpec(inputs="windows"), seed=0)
    fold_c = [f for f in rep.folds if f.held_out == "C"][0]
    assert fold_c.accuracy == 1.0  # every window goes to the majority cluster's model


def test_per_window_routing_splits_subject():
    ds = routing_toy()
    rep = routed_eval(ds, 2, RoutingMode.PER_WINDOW, ClusterSpace.STATISTICAL_WINDOW,
                      SvmSpec(inputs="windows"), seed=0)
    fold_c = [f for f in rep.folds if f.held_out == "C"][0]
    assert abs(fold_c.accuracy - 5.0 / 8.0) < 1e-12


def test_routed_eval_rejects_profile_space_and_big_k():
    ds = routing_toy()
    with pytest.raises(InvalidConfig):
        routed_eval(ds, 2, RoutingMode.PER_WINDOW, ClusterSpace.MEAN_BPM_PROFILE,
                    SvmSpec(inputs="windows"), seed=0)
    with pytest.raises(TooFewVectors):
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
        WindowDataset(windows, hc, labels, tuple("S" for _ in range(n)),
                      np.arange(n), (), ds_like_names, 6, 1,
                      StandardizationMode.NONE, None),
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
    ds = WindowDataset(windows, hc, labels, tuple("S" for _ in range(n)),
                       np.arange(n), (), names, 4, 1, StandardizationMode.NONE, None)
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
    ds = WindowDataset(windows, hc, labels, tuple("S" for _ in range(n)),
                       np.arange(n), (), names, 5, 1, StandardizationMode.NONE, None)
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
    rep = permutation_importance(counted, ds.windows, ds.hc, ds.labels, ds.hc_names, seed=4)
    read_dims = reads[0] * ds.window_size + reads[1] * ds.hc.shape[1]
    assert counted.calls == 1 + 5 * read_dims
    want = permutation_importance_reference(clf, ds.windows, ds.hc, ds.labels, seed=4)
    assert np.array_equal(rep.importances, want)
    unread = np.array([not reads[0]] * ds.window_size + [not reads[1]] * ds.hc.shape[1])
    assert np.all(rep.importances[unread] == 0.0)


class FixedAnswers:
    """Predicts a pre-computed label sequence, one per window row."""

    def __init__(self, answers):
        self.answers = np.asarray(answers, dtype=np.int64)

    def predict(self, windows, hc):
        return self.answers[: np.atleast_2d(windows).shape[0]]


def test_timeline_perfect_model_all_correct(tmp_path):
    series = constant_series()
    cfg = WindowConfig(50, 10)
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
        FixedAnswers(np.zeros(4000, dtype=int)), series[0], WindowConfig(50, 10)
    )
    labels = np.array([int(v) for v in series[0].labels])
    assert rec.transition.sum() == np.sum(labels[1:] != labels[:-1]) == 4


def test_timeline_nearest_center_tie_to_earlier():
    # W=4, S=2: centers at 1.5, 3.5, 5.5... timestep 0..3 nearest checks
    series = constant_series(n=10)
    clf = FixedAnswers(np.arange(4) % 2)  # alternating predictions expose routing
    rec = misclassification_timeline(clf, series, WindowConfig(4, 2))
    # t=2 is 0.5 from both centers 1.5 and 3.5 -> earlier window wins
    assert rec.predicted[2] == rec.predicted[1]


def test_timeline_too_short():
    with pytest.raises(SeriesTooShort):
        misclassification_timeline(FixedAnswers([0]), constant_series(n=30),
                                   WindowConfig(50, 10))


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
    post, steady = transition_error_rates(rec, horizon_s=60.0)
    assert post == 0.5  # 30 errors in the 60-step window
    assert steady == 0.0


def test_build_dataset_no_windows():
    with pytest.raises(NoWindows):
        build_dataset([constant_series(n=30)], WindowConfig(50, 10))


def test_net_classifier_adapter_runs():
    ds = small_dataset(w=30, s=60)
    spec = NetSpec(epochs=2)
    rep = run_split(ds, SplitPlan(SplitKind.RANDOM_WINDOW, seed=1), spec, seed=1)
    assert rep.confusion.sum() == rep.folds[0].n_test
    assert rep.config["model"]["kind"] == "net"
