"""Experiment harness: splits, sweeps, cluster-routed evaluation, permutation
importance, and per-timestep misclassification timelines.

Every operation derives per-job seeds from the caller's seed and stable job
identifiers (never from schedule order), and multi-worker runs assemble
results in submission order, so reports are identical for any worker count.
"""

from __future__ import annotations

import csv
import enum
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clustering import (
    ClusterSpace,
    assign_many,
    fit_cluster_model,
    route_subject,
    window_space_matrix,
)
from .errors import (
    EmptyCluster,
    EmptyDataset,
    InvalidConfig,
    NoWindows,
    SeriesTooShort,
)
from .features import FeatureSetKind, MfccConfig, feature_matrix, feature_names
from .metrics import (
    EvalReport,
    FoldRecord,
    accuracy,
    balanced_accuracy,
    confusion_matrix,
    report_from_folds,
)
from .neuralnet import ArchitectureId, NetConfig, build, predict as net_predict, train
from .preprocess import (
    StandardizationMode,
    WindowConfig,
    apply_scaler,
    fit_scaler,
    segment,
    standardize_series,
)
from .series import SubjectSeries
from .svm import KernelSpec, predict_ovo, train_ovo


class SplitKind(enum.Enum):
    RANDOM_WINDOW = "random_window"
    LEAVE_SUBJECT_OUT = "leave_subject_out"
    WITHIN_CLUSTER_LOSO = "within_cluster_loso"
    CROSS_CLUSTER = "cross_cluster"


class RoutingMode(enum.Enum):
    PER_WINDOW = "per_window"
    PER_SUBJECT = "per_subject"


@dataclass(frozen=True)
class SplitPlan:
    kind: SplitKind
    seed: int = 0
    test_fraction: float = 0.3
    train_cluster: int | None = None
    test_cluster: int | None = None

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise InvalidConfig("test_fraction must be in (0, 1)")
        if self.kind is SplitKind.CROSS_CLUSTER and (
            self.train_cluster is None or self.test_cluster is None
        ):
            raise InvalidConfig("cross-cluster split needs both cluster ids")


@dataclass(frozen=True)
class SvmSpec:
    """OvO SVM over a chosen input representation."""

    inputs: str = "features"  # "windows" | "features" | "both"
    kernel: KernelSpec = KernelSpec()
    c: float = 1.0
    tol: float = 1e-3

    def __post_init__(self):
        if self.inputs not in ("windows", "features", "both"):
            raise InvalidConfig(f"unknown svm input selection {self.inputs!r}")


@dataclass(frozen=True)
class NetSpec:
    arch: ArchitectureId = ArchitectureId.BASELINE
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-3
    dropout_p: float = 0.3


@dataclass(frozen=True)
class WindowDataset:
    """Windows plus aligned handcrafted features, labels, and subject ids."""

    windows: np.ndarray  # (n, W)
    hc: np.ndarray  # (n, F); F = 0 when no feature set was requested
    labels: np.ndarray  # (n,)
    subjects: tuple[str, ...]
    starts: np.ndarray  # (n,)
    window_objs: tuple  # the Window records, same order (clustering spaces)
    hc_names: tuple[str, ...]
    window_size: int
    stride: int
    standardization: StandardizationMode
    feature_kind: FeatureSetKind | None

    def __len__(self) -> int:
        return self.windows.shape[0]

    def subject_array(self) -> np.ndarray:
        return np.asarray(self.subjects, dtype=object)


def build_dataset(
    series_list: list[SubjectSeries],
    cfg: WindowConfig,
    standardization: StandardizationMode = StandardizationMode.NONE,
    feature_kind: FeatureSetKind | None = None,
    mfcc: MfccConfig = MfccConfig(),
) -> WindowDataset:
    """Segment every series (per-subject standardized first under DataStd)."""
    windows = []
    for series in sorted(series_list, key=lambda s: s.subject_id):
        if standardization is StandardizationMode.DATA:
            series = standardize_series(series)
        windows.extend(segment(series, cfg))
    if not windows:
        raise NoWindows("no series long enough for the window size")
    if feature_kind is None:
        hc = np.zeros((len(windows), 0))
        names: tuple[str, ...] = ()
    else:
        hc = feature_matrix(windows, feature_kind, mfcc=mfcc)
        names = feature_names(feature_kind, mfcc)
    return WindowDataset(
        windows=np.stack([w.values for w in windows]),
        hc=hc,
        labels=np.array([int(w.label) for w in windows], dtype=np.int64),
        subjects=tuple(w.subject_id for w in windows),
        starts=np.array([w.start_index for w in windows], dtype=np.int64),
        window_objs=tuple(windows),
        hc_names=names,
        window_size=cfg.window_size,
        stride=cfg.stride,
        standardization=standardization,
        feature_kind=feature_kind,
    )


# ---------------------------------------------------------------- classifiers


# Each fitted classifier says which inputs its predictions read:
# ``reads_windows`` for the window timesteps, ``reads_hc`` for the
# handcrafted features.


class ConstantPredictor:
    """Stands in for a classifier whose training windows were single-class."""

    reads_windows = False
    reads_hc = False

    def __init__(self, label: int):
        self.label = int(label)

    def predict(self, windows, hc):
        return np.full(np.atleast_2d(windows).shape[0], self.label, dtype=np.int64)


class FittedSvm:
    def __init__(self, model, inputs: str, scaler):
        self.model = model
        self.inputs = inputs
        self.scaler = scaler

    @property
    def reads_windows(self) -> bool:
        return self.inputs != "features"

    @property
    def reads_hc(self) -> bool:
        return self.inputs != "windows"

    def _matrix(self, windows, hc):
        if self.inputs == "windows":
            x = np.atleast_2d(windows)
        elif self.inputs == "features":
            x = np.atleast_2d(hc)
        else:
            x = np.column_stack([np.atleast_2d(windows), np.atleast_2d(hc)])
        if self.scaler is not None:
            x = apply_scaler(self.scaler, x)
        return x

    def predict(self, windows, hc):
        return predict_ovo(self.model, self._matrix(windows, hc))


class FittedNet:
    reads_windows = True

    def __init__(self, model, scaler):
        self.model = model
        self.scaler = scaler

    @property
    def reads_hc(self) -> bool:
        return self.model.config.hc_dim > 0

    def predict(self, windows, hc):
        if self.model.config.hc_dim == 0:
            return net_predict(self.model, windows, None)
        if self.scaler is not None:
            hc = apply_scaler(self.scaler, hc)
        return net_predict(self.model, windows, hc)


def _svm_matrix(spec: SvmSpec, ds: WindowDataset, idx: np.ndarray) -> np.ndarray:
    if spec.inputs == "windows":
        return ds.windows[idx]
    if spec.inputs == "features":
        if ds.hc.shape[1] == 0:
            raise InvalidConfig("svm on features requires a feature set")
        return ds.hc[idx]
    return np.column_stack([ds.windows[idx], ds.hc[idx]])


def fit_classifier(spec, ds: WindowDataset, train_idx: np.ndarray, seed: int):
    """Train one classifier on the given rows; feature scalers fit here only."""
    train_idx = np.asarray(train_idx)
    labels = ds.labels[train_idx]
    if np.unique(labels).size == 1:
        return ConstantPredictor(labels[0])

    if isinstance(spec, SvmSpec):
        x = _svm_matrix(spec, ds, train_idx)
        scaler = None
        if ds.standardization is StandardizationMode.FEATURE:
            scaler = fit_scaler(x)
            x = apply_scaler(scaler, x)
        model = train_ovo(x, labels, kernel=spec.kernel, c=spec.c, tol=spec.tol)
        return FittedSvm(model, spec.inputs, scaler)

    if isinstance(spec, NetSpec):
        hc_dim = 0 if spec.arch is ArchitectureId.BASELINE else ds.hc.shape[1]
        if spec.arch is not ArchitectureId.BASELINE and hc_dim == 0:
            raise InvalidConfig(f"{spec.arch.value} requires a feature set")
        cfg = NetConfig(
            window_size=ds.window_size,
            hc_dim=hc_dim,
            seed=seed,
            epochs=spec.epochs,
            batch_size=spec.batch_size,
            learning_rate=spec.learning_rate,
            dropout_p=spec.dropout_p,
        )
        scaler = None
        hc = ds.hc[train_idx] if hc_dim else None
        if hc_dim and ds.standardization is StandardizationMode.FEATURE:
            scaler = fit_scaler(hc)
            hc = apply_scaler(scaler, hc)
        model = train(build(spec.arch, cfg), ds.windows[train_idx], hc, labels)
        return FittedNet(model, scaler)

    raise InvalidConfig(f"unknown classifier spec {type(spec).__name__}")


def classifier_echo(spec) -> dict:
    if isinstance(spec, SvmSpec):
        return {"kind": "svm", "inputs": spec.inputs, "kernel": spec.kernel.kind.value,
                "gamma": spec.kernel.gamma, "c": spec.c, "tol": spec.tol}
    return {"kind": "net", "arch": spec.arch.value, "epochs": spec.epochs,
            "batch_size": spec.batch_size, "learning_rate": spec.learning_rate,
            "dropout_p": spec.dropout_p}


# -------------------------------------------------------------------- splits


def _fold_seed(seed: int, fold_id: int) -> int:
    return int(np.random.SeedSequence(entropy=(int(seed), int(fold_id))).generate_state(1)[0])


def make_folds(ds: WindowDataset, plan: SplitPlan):
    """(fold_id, held_out, train_idx, test_idx) tuples for the plan."""
    subjects = ds.subject_array()
    if plan.kind is SplitKind.LEAVE_SUBJECT_OUT:
        folds = []
        for fold_id, sid in enumerate(sorted(set(ds.subjects))):
            test = np.nonzero(subjects == sid)[0]
            train_rows = np.nonzero(subjects != sid)[0]
            assert not set(test) & set(train_rows)
            folds.append((fold_id, sid, train_rows, test))
        return folds
    if plan.kind is SplitKind.RANDOM_WINDOW:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(plan.seed), 97)))
        test_parts = []
        for label in np.unique(ds.labels):
            rows = np.nonzero(ds.labels == label)[0]
            n_test = int(round(plan.test_fraction * rows.size))
            n_test = min(max(n_test, 1), rows.size - 1) if rows.size > 1 else 0
            test_parts.append(rng.permutation(rows)[:n_test])
        test = np.sort(np.concatenate(test_parts))
        train_rows = np.setdiff1d(np.arange(len(ds)), test)
        return [(0, f"random:{plan.test_fraction}", train_rows, test)]
    raise InvalidConfig(f"{plan.kind.value} folds are built by their own operation")


def _eval_one_fold(ds, spec, fold, base_seed):
    fold_id, held_out, train_idx, test_idx = fold
    clf = fit_classifier(spec, ds, train_idx, _fold_seed(base_seed, fold_id))
    preds = clf.predict(ds.windows[test_idx], ds.hc[test_idx])
    return preds


def _run_jobs(fn, arg_tuples, workers: int):
    if workers <= 1:
        return [fn(*args) for args in arg_tuples]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *args) for args in arg_tuples]
        return [f.result() for f in futures]  # submission order, not finish order


def _base_echo(ds: WindowDataset, spec, plan: SplitPlan | None) -> dict:
    echo = {
        "window_size": ds.window_size,
        "stride": ds.stride,
        "standardization": ds.standardization.value,
        "features": ds.feature_kind.value if ds.feature_kind else None,
        "model": classifier_echo(spec),
    }
    if plan is not None:
        echo["split"] = {"kind": plan.kind.value, "seed": plan.seed,
                         "test_fraction": plan.test_fraction}
    return echo


def run_split(ds: WindowDataset, plan: SplitPlan, spec, seed: int,
              workers: int = 1) -> EvalReport:
    """Train/evaluate over the plan's folds and aggregate one report."""
    folds = make_folds(ds, plan)
    preds_per_fold = _run_jobs(_eval_one_fold, [(ds, spec, f, seed) for f in folds],
                               workers)
    cm_total = np.zeros((5, 5), dtype=np.int64)
    records = []
    for (fold_id, held_out, _, test_idx), preds in zip(folds, preds_per_fold):
        cm = confusion_matrix(ds.labels[test_idx], preds)
        cm_total += cm
        records.append(FoldRecord(fold_id, str(held_out), int(test_idx.size),
                                  accuracy(cm), balanced_accuracy(cm)))
    return report_from_folds(cm_total, records, _base_echo(ds, spec, plan))


# --------------------------------------------------------------------- sweep


def _sweep_cell(series_list, w, s, plan, spec, standardization, feature_kind,
                seed, mfcc):
    ds = build_dataset(series_list, WindowConfig(window_size=w, stride=s),
                       standardization, feature_kind, mfcc)
    return run_split(ds, plan, spec, seed)


def run_sweep(
    series_list: list[SubjectSeries],
    window_sizes: list[int],
    stride_sizes: list[int],
    plan: SplitPlan,
    spec,
    standardization: StandardizationMode = StandardizationMode.NONE,
    feature_kind: FeatureSetKind | None = None,
    seed: int = 0,
    workers: int = 1,
    mfcc: MfccConfig = MfccConfig(),
) -> dict:
    """One EvalReport per (window, stride) cell; fold structure shared by seed."""
    cells = [(w, s) for w in window_sizes for s in stride_sizes]
    reports = _run_jobs(
        _sweep_cell,
        [(series_list, w, s, plan, spec, standardization, feature_kind, seed, mfcc)
         for w, s in cells],
        workers,
    )
    return dict(zip(cells, reports))


# ---------------------------------------------------------- cluster routings


def cross_cluster_eval(
    ds: WindowDataset,
    assignment: dict[str, int],
    train_cluster: int,
    test_cluster: int,
    spec,
    seed: int = 0,
) -> EvalReport:
    """Fit on one cluster's subjects, evaluate on another's."""
    subjects = ds.subject_array()
    in_train = np.array([assignment.get(s) == train_cluster for s in subjects])
    in_test = np.array([assignment.get(s) == test_cluster for s in subjects])
    if not in_train.any():
        raise EmptyCluster(f"train cluster {train_cluster} has no windows")
    if not in_test.any():
        raise EmptyCluster(f"test cluster {test_cluster} has no windows")
    train_idx = np.nonzero(in_train)[0]
    test_idx = np.nonzero(in_test)[0]
    clf = fit_classifier(spec, ds, train_idx, _fold_seed(seed, 0))
    preds = clf.predict(ds.windows[test_idx], ds.hc[test_idx])
    cm = confusion_matrix(ds.labels[test_idx], preds)
    echo = _base_echo(ds, spec, None)
    echo["split"] = {"kind": SplitKind.CROSS_CLUSTER.value,
                     "train_cluster": int(train_cluster),
                     "test_cluster": int(test_cluster)}
    record = FoldRecord(0, f"cluster:{test_cluster}", int(test_idx.size),
                        accuracy(cm), balanced_accuracy(cm))
    return report_from_folds(cm, [record], echo)


@dataclass(frozen=True)
class WithinClusterResult:
    clusters: dict  # cluster id -> EvalReport (per-subject folds inside)
    baseline: EvalReport  # leave-subject-out over all subjects, no clustering
    warnings: tuple[dict, ...]


def within_cluster_loso(
    ds: WindowDataset,
    assignment: dict[str, int],
    spec,
    seed: int = 0,
    workers: int = 1,
) -> WithinClusterResult:
    """Leave-subject-out inside each cluster, plus the unclustered baseline.

    Clusters with fewer than two subjects cannot form a fold; they are skipped
    with a warning record rather than failing the whole run.
    """
    subjects = ds.subject_array()
    present = set(ds.subjects)
    warnings: list[dict] = []
    jobs = []
    job_keys = []
    for cluster in sorted(set(assignment.values())):
        members = sorted(s for s, c in assignment.items() if c == cluster and s in present)
        if len(members) < 2:
            warnings.append({
                "cluster": int(cluster),
                "reason": f"cluster too small: {len(members)} subject(s)",
                "members": members,
            })
            continue
        member_rows = np.nonzero(np.isin(subjects, members))[0]
        for fold_id, sid in enumerate(members):
            test_idx = np.nonzero(subjects == sid)[0]
            train_idx = member_rows[subjects[member_rows] != sid]
            jobs.append((ds, spec, (fold_id, sid, train_idx, test_idx),
                         _fold_seed(seed, cluster * 1000 + fold_id)))
            job_keys.append((cluster, fold_id, sid, test_idx))
    preds_list = _run_jobs(_eval_one_fold_prefixed, jobs, workers)

    per_cluster: dict[int, list] = {}
    for (cluster, fold_id, sid, test_idx), preds in zip(job_keys, preds_list):
        per_cluster.setdefault(cluster, []).append((fold_id, sid, test_idx, preds))
    reports = {}
    for cluster, fold_data in per_cluster.items():
        cm_total = np.zeros((5, 5), dtype=np.int64)
        records = []
        for fold_id, sid, test_idx, preds in fold_data:
            cm = confusion_matrix(ds.labels[test_idx], preds)
            cm_total += cm
            records.append(FoldRecord(fold_id, sid, int(test_idx.size),
                                      accuracy(cm), balanced_accuracy(cm)))
        echo = _base_echo(ds, spec, None)
        echo["split"] = {"kind": SplitKind.WITHIN_CLUSTER_LOSO.value,
                         "cluster": int(cluster)}
        reports[cluster] = report_from_folds(cm_total, records, echo)

    baseline = run_split(
        ds, SplitPlan(SplitKind.LEAVE_SUBJECT_OUT, seed=seed), spec, seed, workers
    )
    return WithinClusterResult(clusters=reports, baseline=baseline,
                               warnings=tuple(warnings))


def _eval_one_fold_prefixed(ds, spec, fold, fold_seed):
    fold_id, held_out, train_idx, test_idx = fold
    clf = fit_classifier(spec, ds, train_idx, fold_seed)
    return clf.predict(ds.windows[test_idx], ds.hc[test_idx])


def mean_fold_balanced(report: EvalReport) -> float:
    return float(np.mean([f.balanced_accuracy for f in report.folds]))


def _routed_fold(ds, spec, space, k, routing, fold, fold_seed, restarts):
    fold_id, held_out, train_idx, test_idx = fold
    train_windows = [ds.window_objs[i] for i in train_idx]
    model, assign = fit_cluster_model(train_windows, space, k, fold_seed,
                                      restarts=restarts, with_scaler=True)
    clusters = sorted(set(assign.values()))
    if len(clusters) < k:
        raise EmptyCluster("clustering left an empty cluster on this fold")
    subjects = ds.subject_array()
    classifiers = {}
    for cluster in clusters:
        members = {s for s, c in assign.items() if c == cluster}
        rows = train_idx[np.isin(subjects[train_idx], sorted(members))]
        if rows.size == 0:
            raise EmptyCluster(f"cluster {cluster} has no training windows")
        classifiers[cluster] = fit_classifier(
            spec, ds, rows, _fold_seed(fold_seed, 10 + cluster)
        )

    test_windows = [ds.window_objs[i] for i in test_idx]
    vectors = window_space_matrix(test_windows, space)
    preds = np.empty(test_idx.size, dtype=np.int64)
    if routing is RoutingMode.PER_SUBJECT:
        cluster = route_subject(model, vectors)
        preds[:] = classifiers[cluster].predict(ds.windows[test_idx], ds.hc[test_idx])
    else:
        assigned = assign_many(model, vectors)
        for cluster in np.unique(assigned):
            rows = np.nonzero(assigned == cluster)[0]
            sel = test_idx[rows]
            preds[rows] = classifiers[int(cluster)].predict(ds.windows[sel], ds.hc[sel])
    return preds


def routed_eval(
    ds: WindowDataset,
    k: int,
    routing: RoutingMode,
    space: ClusterSpace,
    spec,
    seed: int = 0,
    workers: int = 1,
    restarts: int = 10,
) -> EvalReport:
    """Leave-subject-out with per-fold clustering and cluster-local classifiers.

    Train subjects are clustered in the given window-feature space; each test
    window (or the whole test subject, by majority) is routed to the nearest
    cluster's classifier.
    """
    if space is ClusterSpace.MEAN_BPM_PROFILE:
        raise InvalidConfig("routing needs a per-window space, not subject profiles")
    folds = make_folds(ds, SplitPlan(SplitKind.LEAVE_SUBJECT_OUT, seed=seed))
    preds_list = _run_jobs(
        _routed_fold,
        [(ds, spec, space, k, routing, f, _fold_seed(seed, f[0]), restarts)
         for f in folds],
        workers,
    )
    cm_total = np.zeros((5, 5), dtype=np.int64)
    records = []
    for (fold_id, held_out, _, test_idx), preds in zip(folds, preds_list):
        cm = confusion_matrix(ds.labels[test_idx], preds)
        cm_total += cm
        records.append(FoldRecord(fold_id, str(held_out), int(test_idx.size),
                                  accuracy(cm), balanced_accuracy(cm)))
    echo = _base_echo(ds, spec, None)
    echo["split"] = {"kind": SplitKind.LEAVE_SUBJECT_OUT.value, "seed": seed}
    echo["clustering"] = {"space": space.value, "k": int(k), "routing": routing.value}
    return report_from_folds(cm_total, records, echo)


# ---------------------------------------------------------------- importance


@dataclass(frozen=True)
class ImportanceReport:
    names: tuple[str, ...]  # timestep indices as strings, then feature names
    importances: np.ndarray  # mean balanced-accuracy drop, aligned with names
    repeats: int
    baseline_balanced: float


def permutation_importance(
    clf,
    windows: np.ndarray,
    hc: np.ndarray,
    labels: np.ndarray,
    hc_names: tuple[str, ...] = (),
    repeats: int = 5,
    seed: int = 0,
) -> ImportanceReport:
    """Mean balanced-accuracy drop when one input dimension is shuffled.

    A dimension the classifier does not read (see ``reads_windows`` and
    ``reads_hc``) scores 0.0 without a predict: shuffling it cannot change
    a prediction.
    """
    if repeats < 5:
        raise InvalidConfig("importance needs at least 5 repeats")
    windows = np.asarray(windows, dtype=np.float64)
    hc = np.asarray(hc, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if windows.shape[0] == 0:
        raise EmptyDataset("importance needs a non-empty evaluation set")
    w_dim = windows.shape[1]
    names = tuple(str(i) for i in range(w_dim)) + tuple(hc_names)
    if len(names) != w_dim + hc.shape[1]:
        raise InvalidConfig("hc_names must match the feature count")

    base = balanced_accuracy(confusion_matrix(labels, clf.predict(windows, hc)))
    importances = np.zeros(len(names))
    read = [clf.reads_windows] * w_dim + [clf.reads_hc] * hc.shape[1]
    for dim in range(len(names)):
        if not read[dim]:
            continue
        drops = []
        for r in range(repeats):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=(int(seed), dim, r))
            )
            order = rng.permutation(windows.shape[0])
            if dim < w_dim:
                shuffled_w = windows.copy()
                shuffled_w[:, dim] = windows[order, dim]
                shuffled_h = hc
            else:
                shuffled_w = windows
                shuffled_h = hc.copy()
                shuffled_h[:, dim - w_dim] = hc[order, dim - w_dim]
            bal = balanced_accuracy(
                confusion_matrix(labels, clf.predict(shuffled_w, shuffled_h))
            )
            drops.append(base - bal)
        importances[dim] = np.mean(drops)
    return ImportanceReport(names=names, importances=importances,
                            repeats=repeats, baseline_balanced=base)


def write_importance_csv(report: ImportanceReport, path: str | Path,
                         top: int | None = None) -> None:
    order = np.argsort(-report.importances, kind="stable")
    if top is not None:
        order = order[:top]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["name", "importance", "rank"])
        for rank, i in enumerate(order, start=1):
            writer.writerow([report.names[i], repr(float(report.importances[i])), rank])


# ------------------------------------------------------------------ timeline


@dataclass(frozen=True)
class TimelineRecord:
    timestamps: np.ndarray
    bpm: np.ndarray
    true_labels: np.ndarray
    predicted: np.ndarray
    correct: np.ndarray  # bool
    transition: np.ndarray  # bool; marks timesteps where the label changes


def misclassification_timeline(
    clf,
    series: SubjectSeries,
    cfg: WindowConfig,
    standardization: StandardizationMode = StandardizationMode.NONE,
    feature_kind: FeatureSetKind | None = None,
    mfcc: MfccConfig = MfccConfig(),
) -> TimelineRecord:
    """Per-timestep predictions from the window whose center is nearest.

    Center ties go to the earlier window.  The transition flags mark every
    timestep whose label differs from its predecessor.
    """
    if len(series) < cfg.window_size:
        raise SeriesTooShort(
            f"{len(series)} samples cannot fill a {cfg.window_size}-sample window"
        )
    prepared = (
        standardize_series(series)
        if standardization is StandardizationMode.DATA
        else series
    )
    windows = segment(prepared, cfg)
    mat = np.stack([w.values for w in windows])
    hc = (
        feature_matrix(windows, feature_kind, mfcc=mfcc)
        if feature_kind is not None
        else np.zeros((len(windows), 0))
    )
    window_preds = np.asarray(clf.predict(mat, hc), dtype=np.int64)

    n = len(series)
    centers = np.array([w.start_index for w in windows]) + (cfg.window_size - 1) / 2.0
    steps = np.arange(n)
    # distance ties resolve to the earlier (lower-center) window
    dist = np.abs(steps[:, None] - centers[None, :])
    nearest = dist.argmin(axis=1)
    per_step_pred = window_preds[nearest]

    true_labels = np.array([int(v) for v in series.labels], dtype=np.int64)
    transition = np.zeros(n, dtype=bool)
    transition[1:] = true_labels[1:] != true_labels[:-1]
    return TimelineRecord(
        timestamps=series.timestamps.copy(),
        bpm=series.bpm.copy(),
        true_labels=true_labels,
        predicted=per_step_pred,
        correct=per_step_pred == true_labels,
        transition=transition,
    )


def transition_error_rates(record: TimelineRecord, horizon_s: float = 60.0):
    """(error rate within horizon after a transition, steady-state error rate)."""
    t = record.timestamps
    after = np.zeros(t.size, dtype=bool)
    for idx in np.nonzero(record.transition)[0]:
        after |= (t >= t[idx]) & (t < t[idx] + horizon_s)
    errors = ~record.correct
    post = float(errors[after].mean()) if after.any() else 0.0
    steady = float(errors[~after].mean()) if (~after).any() else 0.0
    return post, steady


def write_timeline_csv(record: TimelineRecord, path: str | Path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "bpm", "true", "pred", "correct", "transition"])
        for i in range(record.timestamps.size):
            writer.writerow([
                repr(float(record.timestamps[i])),
                repr(float(record.bpm[i])),
                int(record.true_labels[i]),
                int(record.predicted[i]),
                int(record.correct[i]),
                int(record.transition[i]),
            ])
