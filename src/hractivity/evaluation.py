"""Experiment harness: splits, sweeps, cluster-routed evaluation, permutation
importance, and per-timestep misclassification timelines.

Every operation derives per-job seeds from the caller's seed and stable job
identifiers (never from schedule order), and multi-worker runs assemble
results in submission order, so reports are identical for any worker count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from itertools import groupby
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .artifacts import write_csv, write_json
from .clustering import (
    ClusterSpace,
    assign_many,
    fit_cluster_model,
    window_space_matrix,
)
from .errors import ConfigError, DataError, GramTooLarge, TooFewVectors
from .features import N_MEL_BANDS, FeatureSetKind, feature_matrix, feature_names
from .metrics import (
    EvalReport,
    FoldRecord,
    accuracy,
    balanced_accuracy,
    confusion_matrix,
)
from .neuralnet import ArchitectureId, NetConfig, build, predict as net_predict, save_net, train
from .preprocess import (
    Segments,
    StandardizationMode,
    WindowConfig,
    apply_scaler,
    fit_scaler,
    segment,
    standardize_series,
)
from .series import N_CLASSES, SubjectSeries
from .svm import KernelSpec, predict_ovo, save_ovo, train_ovo


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
    test_fraction: float = 0.3

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must be in (0, 1)")


# A spec is one classifier kind and its settings: ``fit`` trains it on rows
# of a dataset, ``echo`` is its entry in reports, and ``reads_seed`` says
# whether fits on the same rows with different seeds may differ.
@dataclass(frozen=True)
class SvmSpec:
    """OvO SVM over a chosen input representation."""

    inputs: str = "features"  # "windows" | "features" | "both"
    kernel: KernelSpec = KernelSpec()
    c: float = 1.0
    tol: float = 1e-3

    reads_seed = False

    def __post_init__(self):
        if self.inputs not in ("windows", "features", "both"):
            raise ConfigError(f"unknown svm input selection {self.inputs!r}")

    def fit(self, ds: WindowDataset, train_idx: np.ndarray, labels: np.ndarray,
            seed: int) -> FittedSvm:
        x = _svm_matrix(self.inputs, ds.windows, ds.hc, train_idx)
        scaler = None
        if ds.spec.standardization is StandardizationMode.FEATURE:
            scaler = fit_scaler(x)
            x = apply_scaler(scaler, x)
        try:
            model = train_ovo(x, labels, kernel=self.kernel, c=self.c, tol=self.tol)
        except GramTooLarge as exc:
            raise GramTooLarge(f"{exc}; windows are cut at stride {ds.spec.window.stride}, "
                               f"and a larger windows.stride gives fewer rows") from None
        return FittedSvm(model, self.inputs, scaler)

    def echo(self) -> dict:
        return {"kind": "svm", "inputs": self.inputs, "kernel": self.kernel.kind.value,
                "gamma": self.kernel.gamma, "c": self.c, "tol": self.tol}


@dataclass(frozen=True)
class NetSpec:
    arch: ArchitectureId = ArchitectureId.BASELINE
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-3
    dropout_p: float = 0.3

    reads_seed = True

    def fit(self, ds: WindowDataset, train_idx: np.ndarray, labels: np.ndarray,
            seed: int) -> FittedNet:
        hc_dim = 0 if self.arch is ArchitectureId.BASELINE else ds.hc.shape[1]
        cfg = NetConfig(
            window_size=ds.windows.shape[1],
            hc_dim=hc_dim,
            seed=seed,
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            dropout_p=self.dropout_p,
        )
        scaler = None
        hc = ds.hc[train_idx] if hc_dim else None
        if hc_dim and ds.spec.standardization is StandardizationMode.FEATURE:
            scaler = fit_scaler(hc)
            hc = apply_scaler(scaler, hc)
        # trained and run in float32, from the float64 draws of build
        model = build(self.arch, cfg)
        model.params = {name: arr.astype(np.float32) for name, arr in model.params.items()}
        model = train(model, ds.windows[train_idx], hc, labels)
        return FittedNet(model, scaler)

    def echo(self) -> dict:
        return {"kind": "net", "arch": self.arch.value, "epochs": self.epochs,
                "batch_size": self.batch_size, "learning_rate": self.learning_rate,
                "dropout_p": self.dropout_p}


@dataclass(frozen=True)
class DatasetSpec:
    """How a dataset is cut from series: the window and stride, the
    standardization, the feature set (None: windows only) and the mel band
    count of its MFCC features."""

    window: WindowConfig
    standardization: StandardizationMode = StandardizationMode.NONE
    features: FeatureSetKind | None = None
    n_mel_bands: int = N_MEL_BANDS

    @property
    def feature_names(self) -> tuple[str, ...]:
        return () if self.features is None else feature_names(self.features)


@dataclass(frozen=True)
class WindowDataset:
    """Windows plus aligned handcrafted features, labels, and subjects."""

    windows: np.ndarray  # (n, W)
    hc: np.ndarray  # (n, F); F = 0 when no feature set was requested
    labels: np.ndarray  # (n,)
    subject_ids: tuple[str, ...]  # the subjects that have a window, in id order
    subject_index: np.ndarray  # (n,) int64: each row's position in subject_ids
    spec: DatasetSpec  # how the windows and features were cut

    def __len__(self) -> int:
        return self.windows.shape[0]


def subject_segments(series_list: list[SubjectSeries], spec: DatasetSpec) -> Iterator[Segments]:
    """Each subject's windows, one subject at a time in subject-id order.

    Under ``DATA`` each series is standardized before it is cut. A subject's
    series (one per device) are cut one by one and their windows joined in
    input order. A subject with no window yields an empty ``Segments``.
    """
    ordered = sorted(series_list, key=lambda s: s.subject_id)
    for subject_id, group in groupby(ordered, key=lambda s: s.subject_id):
        parts = []
        for series in group:
            if spec.standardization is StandardizationMode.DATA:
                series = standardize_series(series)
            parts.append(segment(series, spec.window))
        if len(parts) == 1:
            yield parts[0]
        else:
            yield Segments(subject_id, np.concatenate([p.values for p in parts]),
                           np.concatenate([p.labels for p in parts]))


def check_window_size(series_list: list[SubjectSeries], window_size: int) -> None:
    """Raise a DataError unless some series fills a window of ``window_size``."""
    longest = max((len(s) for s in series_list), default=0)
    if longest < window_size:
        raise DataError(f"no series long enough for window_size {window_size}: "
                        f"the longest has {longest} samples")


def build_dataset(series_list: list[SubjectSeries], spec: DatasetSpec) -> WindowDataset:
    """Segment every series (per-subject standardized first under DataStd)."""
    check_window_size(series_list, spec.window.window_size)
    parts = [part for part in subject_segments(series_list, spec) if len(part)]
    windows = np.concatenate([part.values for part in parts])
    if spec.features is None:
        hc = np.zeros((len(windows), 0))
    else:
        hc = feature_matrix(windows, spec.features, spec.n_mel_bands)
    return WindowDataset(
        windows=windows,
        hc=hc,
        labels=np.concatenate([part.labels for part in parts]),
        subject_ids=tuple(part.subject_id for part in parts),
        subject_index=np.repeat(np.arange(len(parts), dtype=np.int64),
                                [len(part) for part in parts]),
        spec=spec,
    )


# ---------------------------------------------------------------- classifiers


# Each fitted classifier says which inputs its predictions read:
# ``reads_windows`` for the window timesteps, ``reads_hc`` for the
# handcrafted features. ``scaler`` is the feature scaler it applies to its
# inputs, or None; ``save`` writes the model file of the ``train`` command.


class ConstantPredictor:
    """Stands in for a classifier whose training windows were single-class."""

    reads_windows = False
    reads_hc = False
    scaler = None

    def __init__(self, label: int):
        self.label = int(label)

    def predict(self, windows, hc):
        return np.full(np.atleast_2d(windows).shape[0], self.label, dtype=np.int64)

    def save(self, path: str | Path) -> None:
        write_json({"schema": "constant_model.v1", "label": self.label}, path)


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

    def predict(self, windows, hc):
        x = _svm_matrix(self.inputs, windows, hc)
        if self.scaler is not None:
            x = apply_scaler(self.scaler, x)
        return predict_ovo(self.model, x)

    def save(self, path: str | Path) -> None:
        save_ovo(self.model, path)


class FittedNet:
    reads_windows = True

    def __init__(self, model, scaler):
        self.model = model
        self.scaler = scaler  # None at hc_dim 0, where predict passes hc on unread

    @property
    def reads_hc(self) -> bool:
        return self.model.config.hc_dim > 0

    def predict(self, windows, hc):
        if self.scaler is not None:
            hc = apply_scaler(self.scaler, hc)
        return net_predict(self.model, windows, hc)

    def save(self, path: str | Path) -> None:
        save_net(self.model, path)


def _svm_matrix(inputs: str, windows, hc, rows=slice(None)) -> np.ndarray:
    """The rows an SVM fits or predicts on: windows, features or both side by side."""
    if inputs == "windows":
        return np.atleast_2d(windows)[rows]
    hc = np.atleast_2d(hc)
    if hc.shape[1] == 0:
        raise ConfigError(f"svm on {inputs} requires a feature set")
    if inputs == "features":
        return hc[rows]
    return np.column_stack([np.atleast_2d(windows)[rows], hc[rows]])


def fit_classifier(spec, ds: WindowDataset, train_idx: np.ndarray, seed: int):
    """Train one classifier on the given rows; feature scalers fit here only."""
    train_idx = np.asarray(train_idx)
    labels = ds.labels[train_idx]
    if np.unique(labels).size == 1:
        return ConstantPredictor(labels[0])
    return spec.fit(ds, train_idx, labels, seed)


# -------------------------------------------------------------------- splits


def _fold_seed(seed: int, fold_id: int) -> int:
    return int(np.random.SeedSequence(entropy=(int(seed), int(fold_id))).generate_state(1)[0])


class FoldJob(NamedTuple):
    """One train/test fold; ``seed`` seeds everything fitted on its train rows."""

    held_out: str
    train_idx: np.ndarray
    test_idx: np.ndarray
    seed: int


def _loso_jobs(ds: WindowDataset, members, rows: np.ndarray,
               seed: int, seed_base: int = 0) -> list[FoldJob]:
    """Hold out each member subject (a position in ``ds.subject_ids``) in turn
    and train on the other ``rows``; fold ``i`` is seeded with
    ``_fold_seed(seed, seed_base + i)``."""
    in_rows = ds.subject_index[rows]
    jobs = []
    for fold_id, member in enumerate(members):
        held = in_rows == member
        jobs.append(FoldJob(ds.subject_ids[member], rows[~held], rows[held],
                            _fold_seed(seed, seed_base + fold_id)))
    return jobs


def _cluster_of(ds: WindowDataset, assignment: dict[str, int]) -> np.ndarray:
    """Each of ``ds.subject_ids``' cluster in ``assignment``; -1 where it has none."""
    return np.array([assignment.get(sid, -1) for sid in ds.subject_ids], dtype=np.int64)


def make_folds(ds: WindowDataset, plan: SplitPlan, seed: int) -> list[FoldJob]:
    """The plan's folds; fold ``i`` is seeded with ``_fold_seed(seed, i)``.

    Random-window test rows are drawn from ``seed`` too. Leave-subject-out
    needs at least two subjects with windows: one to hold out, one to train on.
    """
    if plan.kind is SplitKind.LEAVE_SUBJECT_OUT:
        if len(ds.subject_ids) < 2:
            ids = ", ".join(map(repr, ds.subject_ids))
            raise DataError(f"leave-subject-out needs at least two subjects with windows, "
                            f"found {len(ds.subject_ids)}: {ids}")
        return _loso_jobs(ds, range(len(ds.subject_ids)), np.arange(len(ds)), seed)
    if plan.kind is SplitKind.RANDOM_WINDOW:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), 97)))
        test_parts = []
        for label in np.unique(ds.labels):
            rows = np.nonzero(ds.labels == label)[0]
            n_test = int(round(plan.test_fraction * rows.size))
            n_test = min(max(n_test, 1), rows.size - 1) if rows.size > 1 else 0
            test_parts.append(rng.permutation(rows)[:n_test])
        test = np.sort(np.concatenate(test_parts))
        train_rows = np.setdiff1d(np.arange(len(ds)), test)
        return [FoldJob(f"random:{plan.test_fraction}", train_rows, test, _fold_seed(seed, 0))]
    raise ConfigError(f"{plan.kind.value} folds are built by their own operation")


class _Fit(NamedTuple):
    """One classifier fit and the test rows it predicts: ``parts`` holds
    (fold position, positions in that fold's test rows)."""

    train_idx: np.ndarray
    seed: int
    parts: list


def _fold_fits(jobs: list[FoldJob]) -> list[_Fit]:
    """One fit per fold, on its train rows, predicting all its test rows."""
    return [_Fit(job.train_idx, job.seed, [(f, slice(None))]) for f, job in enumerate(jobs)]


def _plan_routed_fits(ds: WindowDataset, spec, jobs: list[FoldJob], mode: RoutingMode,
                      space: ClusterSpace, k: int, restarts: int, vectors: np.ndarray,
                      summaries: np.ndarray) -> list[_Fit]:
    """Cluster each fold's train subjects, in fold order, and route each test
    window to the nearest cluster by its own vector (``per_window``) or by
    its subject's summary row (``per_subject``), the row the train subjects
    were clustered on.

    A cluster's train rows are all the windows of its member subjects, so
    equal member sets fit the same SVM and share one ``_Fit``. A spec that
    ``reads_seed`` (a net) also reads ``_fold_seed(job.seed, 10 + c)``, so
    every (fold, cluster) fits its own. A cluster is fitted only when
    some fold's test windows reach it. Fits come in first-use order, each
    fold's clusters in id order.
    """
    routed_by = summaries[ds.subject_index] if mode is RoutingMode.PER_SUBJECT else vectors
    fits: dict = {}
    for position, job in enumerate(jobs):
        train_subjects = np.unique(ds.subject_index[job.train_idx])
        try:
            model, assign = fit_cluster_model([ds.subject_ids[i] for i in train_subjects],
                                              summaries[train_subjects], space, k, job.seed,
                                              restarts=restarts, with_scaler=True)
        except TooFewVectors as exc:
            raise TooFewVectors(
                f"{exc}: clustering.k = {k} but the fold holding out subject "
                f"{job.held_out!r} trains on {train_subjects.size} subjects") from None
        if len(set(assign.values())) < k:
            raise DataError("clustering left an empty cluster on this fold")
        assigned = assign_many(model, routed_by[job.test_idx])
        cluster_of = _cluster_of(ds, assign)
        for cluster in np.unique(assigned):
            members = np.flatnonzero(cluster_of == cluster)
            seed = _fold_seed(job.seed, 10 + cluster)
            key = (members.tobytes(), seed if spec.reads_seed else None)
            if key not in fits:
                rows = np.flatnonzero(np.isin(ds.subject_index, members))
                fits[key] = _Fit(rows, seed, [])
            fits[key].parts.append((position, np.flatnonzero(assigned == cluster)))
    return list(fits.values())


def _fit_predict_parts(ds: WindowDataset, spec, train_idx: np.ndarray, seed: int,
                       test_rows: list[np.ndarray]) -> list[np.ndarray]:
    """Fit one classifier and predict each of ``test_rows`` in turn."""
    clf = fit_classifier(spec, ds, train_idx, seed)
    return [clf.predict(ds.windows[rows], ds.hc[rows]) for rows in test_rows]


def _run_jobs(fn, arg_tuples: list, workers: int):
    workers = min(workers, len(arg_tuples))  # a pool forks all its workers at once
    if workers <= 1:
        return [fn(*args) for args in arg_tuples]
    # imported here: the pool's modules (multiprocessing, socket, logging)
    # would otherwise load with every command
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *args) for args in arg_tuples]
        return [f.result() for f in futures]  # submission order, not finish order


def _run_fits(ds: WindowDataset, spec, jobs: list[FoldJob], fits: list[_Fit],
              workers: int) -> list[np.ndarray]:
    """Each fold's test predictions: one job per fit, each part scattered
    into its fold."""
    fit_preds = _run_jobs(
        _fit_predict_parts,
        [(ds, spec, fit.train_idx, fit.seed, [jobs[f].test_idx[pos] for f, pos in fit.parts])
         for fit in fits],
        workers,
    )
    preds = [np.empty(job.test_idx.size, dtype=np.int64) for job in jobs]
    for fit, parts in zip(fits, fit_preds):
        for (f, pos), part in zip(fit.parts, parts):
            preds[f][pos] = part
    return preds


def _report(ds: WindowDataset, jobs: list[FoldJob], preds: list[np.ndarray],
            echo: dict) -> EvalReport:
    """One report over the jobs' test rows: summed confusion plus a record per
    fold, the folds numbered by their position in ``jobs``."""
    cm_total = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    records = []
    for fold_id, (job, fold_preds) in enumerate(zip(jobs, preds)):
        cm = confusion_matrix(ds.labels[job.test_idx], fold_preds)
        cm_total += cm
        records.append(FoldRecord(fold_id, str(job.held_out), int(job.test_idx.size),
                                  accuracy(cm), balanced_accuracy(cm)))
    return EvalReport(accuracy(cm_total), balanced_accuracy(cm_total), cm_total,
                      tuple(records), dict(echo))


def _base_echo(ds: WindowDataset, spec, split: dict) -> dict:
    data = ds.spec
    return {
        "window_size": data.window.window_size,
        "stride": data.window.stride,
        "standardization": data.standardization.value,
        "features": data.features.value if data.features else None,
        "model": spec.echo(),
        "split": split,
    }


def run_split(ds: WindowDataset, plan: SplitPlan, spec, seed: int,
              workers: int = 1) -> EvalReport:
    """Train/evaluate over the plan's folds and aggregate one report."""
    jobs = make_folds(ds, plan, seed)
    echo = _base_echo(ds, spec, {"kind": plan.kind.value, "seed": seed,
                                 "test_fraction": plan.test_fraction})
    return _report(ds, jobs, _run_fits(ds, spec, jobs, _fold_fits(jobs), workers), echo)


# --------------------------------------------------------------------- sweep


def _sweep_cell(series_list, data: DatasetSpec, plan, spec, seed):
    return run_split(build_dataset(series_list, data), plan, spec, seed)


def run_sweep(
    series_list: list[SubjectSeries],
    data: DatasetSpec,
    window_sizes: list[int],
    stride_sizes: list[int],
    plan: SplitPlan,
    spec,
    seed: int = 0,
    workers: int = 1,
) -> dict:
    """One EvalReport per (window, stride) cell, each cut as ``data`` with that
    window; fold structure shared by seed.

    Every window size is checked before any cell is fitted.
    """
    for w in window_sizes:
        check_window_size(series_list, w)
    cells = [(w, s) for w in window_sizes for s in stride_sizes]
    reports = _run_jobs(
        _sweep_cell,
        [(series_list, replace(data, window=WindowConfig(w, s)), plan, spec, seed)
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
    row_clusters = _cluster_of(ds, assignment)[ds.subject_index]
    in_train = row_clusters == train_cluster
    in_test = row_clusters == test_cluster
    if not in_train.any():
        raise DataError(f"train cluster {train_cluster} has no windows")
    if not in_test.any():
        raise DataError(f"test cluster {test_cluster} has no windows")
    jobs = [FoldJob(f"cluster:{test_cluster}", np.nonzero(in_train)[0],
                    np.nonzero(in_test)[0], _fold_seed(seed, 0))]
    echo = _base_echo(ds, spec, {"kind": SplitKind.CROSS_CLUSTER.value,
                                 "train_cluster": int(train_cluster),
                                 "test_cluster": int(test_cluster)})
    return _report(ds, jobs, _run_fits(ds, spec, jobs, _fold_fits(jobs), 1), echo)


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
    cluster_of = _cluster_of(ds, assignment)
    warnings: list[dict] = []
    jobs_by_cluster: dict[int, list[FoldJob]] = {}
    for cluster in sorted(set(assignment.values())):
        members = np.flatnonzero(cluster_of == cluster)
        if len(members) < 2:
            warnings.append({
                "cluster": int(cluster),
                "reason": f"cluster too small: {len(members)} subject(s)",
                "members": [ds.subject_ids[i] for i in members],
            })
            continue
        rows = np.flatnonzero(np.isin(ds.subject_index, members))
        jobs_by_cluster[cluster] = _loso_jobs(ds, members, rows, seed, cluster * 1000)
    all_jobs = [job for jobs in jobs_by_cluster.values() for job in jobs]
    preds = iter(_run_fits(ds, spec, all_jobs, _fold_fits(all_jobs), workers))
    reports = {}
    for cluster, jobs in jobs_by_cluster.items():
        echo = _base_echo(ds, spec, {"kind": SplitKind.WITHIN_CLUSTER_LOSO.value,
                                     "cluster": int(cluster)})
        reports[cluster] = _report(ds, jobs, [next(preds) for _ in jobs], echo)

    baseline = run_split(
        ds, SplitPlan(SplitKind.LEAVE_SUBJECT_OUT), spec, seed, workers
    )
    return WithinClusterResult(clusters=reports, baseline=baseline,
                               warnings=tuple(warnings))


def mean_fold_balanced(report: EvalReport) -> float:
    return float(np.mean([f.balanced_accuracy for f in report.folds]))


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
    window (or the whole test subject, by its summary row) is routed to the
    nearest cluster's classifier. The windows' vectors in that space, and
    each subject's summary row, are computed once; each fold clusters its
    train subjects' rows. A space without per-window vectors raises a
    DataError there, before any fold runs.

    Every fold is clustered before any classifier is fitted; then each
    distinct cluster training set that some fold reads is fitted once (see
    ``_plan_routed_fits``) and predicts the test windows of every fold
    routed to it.
    """
    jobs = make_folds(ds, SplitPlan(SplitKind.LEAVE_SUBJECT_OUT), seed)
    vectors = window_space_matrix(ds.windows, space)
    summaries = np.stack([vectors[ds.subject_index == i].mean(axis=0)
                          for i in range(len(ds.subject_ids))])
    fits = _plan_routed_fits(ds, spec, jobs, routing, space, k, restarts, vectors, summaries)
    preds = _run_fits(ds, spec, jobs, fits, workers)
    echo = _base_echo(ds, spec, {"kind": SplitKind.LEAVE_SUBJECT_OUT.value, "seed": seed})
    echo["clustering"] = {"space": space.value, "k": int(k), "routing": routing.value}
    return _report(ds, jobs, preds, echo)


# ---------------------------------------------------------------- importance


@dataclass(frozen=True)
class ImportanceReport:
    names: tuple[str, ...]  # timestep indices as strings, then feature names
    importances: np.ndarray  # mean balanced-accuracy drop, aligned with names
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
        raise ConfigError("importance needs at least 5 repeats")
    # own copies: each dimension's column is shuffled in place, then restored
    windows = np.array(windows, dtype=np.float64)
    hc = np.array(hc, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if windows.shape[0] == 0:
        raise DataError("importance needs a non-empty evaluation set")
    w_dim = windows.shape[1]
    names = tuple(str(i) for i in range(w_dim)) + tuple(hc_names)
    if len(names) != w_dim + hc.shape[1]:
        raise ConfigError("hc_names must match the feature count")

    base = balanced_accuracy(confusion_matrix(labels, clf.predict(windows, hc)))
    importances = np.zeros(len(names))
    read = [clf.reads_windows] * w_dim + [clf.reads_hc] * hc.shape[1]
    for dim in range(len(names)):
        if not read[dim]:
            continue
        matrix, column = (windows, dim) if dim < w_dim else (hc, dim - w_dim)
        original = matrix[:, column].copy()
        drops = []
        for r in range(repeats):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=(int(seed), dim, r))
            )
            matrix[:, column] = original[rng.permutation(windows.shape[0])]
            bal = balanced_accuracy(confusion_matrix(labels, clf.predict(windows, hc)))
            drops.append(base - bal)
        matrix[:, column] = original
        importances[dim] = np.mean(drops)
    return ImportanceReport(names=names, importances=importances, baseline_balanced=base)


def write_importance_csv(report: ImportanceReport, path: str | Path,
                         top: int | None = None) -> None:
    order = np.argsort(-report.importances, kind="stable")[:top]
    write_csv(path, ["name", "importance", "rank"],
              ([report.names[i], repr(float(report.importances[i])), rank]
               for rank, i in enumerate(order, start=1)))


# ------------------------------------------------------------------ timeline

TRANSITION_HORIZON_S = 60.0  # how long after a label change counts as "post-transition"


@dataclass(frozen=True)
class TimelineRecord:
    timestamps: np.ndarray
    bpm: np.ndarray
    true_labels: np.ndarray
    predicted: np.ndarray
    correct: np.ndarray  # bool
    transition: np.ndarray  # bool; marks timesteps where the label changes


def misclassification_timeline(clf, series: SubjectSeries, data: DatasetSpec) -> TimelineRecord:
    """Per-timestep predictions from the window whose center is nearest, the
    series cut as ``data`` (the spec of the classifier's training set).

    Center ties go to the earlier window.  The transition flags mark every
    timestep whose label differs from its predecessor.
    """
    ds = build_dataset([series], data)
    window_preds = np.asarray(clf.predict(ds.windows, ds.hc), dtype=np.int64)

    n = len(series)
    # window i starts at sample i * stride (see ``segment``)
    centers = np.arange(len(ds)) * data.window.stride + (data.window.window_size - 1) / 2.0
    steps = np.arange(n)
    # centers ascend: the nearest is the first center at or after the step or
    # the one before it, and distance ties resolve to the earlier window
    after = np.minimum(np.searchsorted(centers, steps), centers.size - 1)
    before = np.maximum(after - 1, 0)
    nearest = np.where(steps - centers[before] <= centers[after] - steps, before, after)
    per_step_pred = window_preds[nearest]

    true_labels = series.labels
    transition = np.zeros(n, dtype=bool)
    transition[1:] = true_labels[1:] != true_labels[:-1]
    return TimelineRecord(
        timestamps=series.timestamps,
        bpm=series.bpm,
        true_labels=true_labels,
        predicted=per_step_pred,
        correct=per_step_pred == true_labels,
        transition=transition,
    )


def transition_error_rates(record: TimelineRecord):
    """(error rate within ``TRANSITION_HORIZON_S`` after a transition,
    steady-state error rate)."""
    t = record.timestamps
    after = np.zeros(t.size, dtype=bool)
    for idx in np.nonzero(record.transition)[0]:
        after |= (t >= t[idx]) & (t < t[idx] + TRANSITION_HORIZON_S)
    errors = ~record.correct
    post = float(errors[after].mean()) if after.any() else 0.0
    steady = float(errors[~after].mean()) if (~after).any() else 0.0
    return post, steady


def write_timeline_csv(record: TimelineRecord, path: str | Path) -> None:
    write_csv(path, ["t", "bpm", "true", "pred", "correct", "transition"],
              ([repr(float(t)), repr(float(b)), int(y), int(p), int(ok), int(tr)]
               for t, b, y, p, ok, tr in zip(record.timestamps, record.bpm, record.true_labels,
                                             record.predicted, record.correct,
                                             record.transition)))
