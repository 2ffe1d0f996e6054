"""The `cluster` command: one subject's windows at a time, the same report
bytes as the full-matrix summaries, and the same errors, which `eval`'s
cluster splits share; and which subjects a run's dataset holds."""

import json
import shutil

import numpy as np
import pytest
from oracles import subject_summaries_reference

from hractivity import cli, clustering, evaluation
from hractivity.cli import main
from hractivity.clustering import ClusterModel, ClusterSpace, kmeans_fit, write_cluster_report
from hractivity.evaluation import DatasetSpec, SplitKind, SplitPlan, build_dataset, make_folds
from hractivity.ingest import parse_corpus, serialize_corpus
from hractivity.preprocess import StandardizationMode, WindowConfig, segment, standardize_series
from hractivity.series import SubjectSeries
from hractivity.synthetic import SyntheticCohortSpec, generate_synthetic

WINDOW = WindowConfig(50, 10)
K, SEED, RESTARTS = 2, 4, 3


def write_corpus(series_list, corpus):
    """One CSV per series; a subject's second device gets its own file."""
    for series in series_list:
        staging = corpus.parent / "staging"
        serialize_corpus([series], staging)
        target = corpus / f"{series.subject_id}_{series.device_id}.csv"
        corpus.mkdir(parents=True, exist_ok=True)
        shutil.move(staging / f"{series.subject_id}.csv", target)
        staging.rmdir()


def split_devices(series):
    """The series as two devices: its first half on "a", the rest on "b"."""
    half = len(series) // 2
    return [SubjectSeries(series.subject_id, device, series.timestamps[rows],
                          series.bpm[rows], series.labels[rows])
            for device, rows in (("a", slice(0, half)), ("b", slice(half, None)))]


def truncated(series, n):
    return SubjectSeries(series.subject_id, series.device_id, series.timestamps[:n],
                         series.bpm[:n], series.labels[:n])


@pytest.fixture(scope="module")
def mixed_corpus(tmp_path_factory):
    """Five subjects: S001 on two devices, S004 shorter than one window."""
    cohort, _ = generate_synthetic(SyntheticCohortSpec(n_subjects=5, n_groups=2, seed=11))
    series = []
    for s in cohort:
        if s.subject_id == "S001":
            series.extend(split_devices(s))
        elif s.subject_id == "S004":
            series.append(truncated(s, 30))
        else:
            series.append(s)
    corpus = tmp_path_factory.mktemp("mixed") / "corpus"
    write_corpus(series, corpus)
    return corpus


def cluster_config(tmp_path, corpus, space="statistical_window", mode="none",
                   window_size=WINDOW.window_size, k=K, device_filter="", extra=""):
    ini = tmp_path / "cluster.ini"
    ini.write_text(f"""
[corpus]
source = {corpus}
device_filter = {device_filter}
[windows]
window_size = {window_size}
stride = {WINDOW.stride}
[standardization]
mode = {mode}
[clustering]
space = {space}
k = {k}
restarts = {RESTARTS}
[run]
seed = {SEED}
out = {tmp_path / 'runs'}
{extra}""", encoding="utf-8")
    return ini


def run_cluster(ini, capsys=None):
    code = main(["--config", str(ini), "cluster"])
    return code, (capsys.readouterr().err if capsys else "")


def reference_report(corpus, mode, space, path):
    """The report from every window in one matrix, as the command built it
    before it read one subject at a time."""
    parts = []
    for series in sorted(parse_corpus(corpus, None), key=lambda s: s.subject_id):
        if mode is StandardizationMode.DATA:
            series = standardize_series(series)
        parts.append(segment(series, WINDOW))
    values = np.concatenate([p.values for p in parts])
    labels = np.concatenate([p.labels for p in parts])
    subjects = [p.subject_id for p in parts for _ in range(len(p))]
    ids, summaries = subject_summaries_reference(values, labels, subjects, space)
    centroids, labels, inertia = kmeans_fit(summaries, K, SEED, restarts=RESTARTS)
    write_cluster_report(ClusterModel(centroids, space, SEED, inertia),
                         dict(zip(ids, labels.tolist())), path)
    return path.read_bytes()


@pytest.mark.parametrize("mode", [StandardizationMode.NONE, StandardizationMode.DATA],
                         ids=lambda m: m.value)
@pytest.mark.parametrize("space", list(ClusterSpace), ids=lambda s: s.value)
def test_cluster_report_matches_the_full_matrix_reference(tmp_path, mixed_corpus,
                                                          space, mode):
    ini = cluster_config(tmp_path, mixed_corpus, space.value, mode.value)
    assert run_cluster(ini)[0] == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    report = (run_dir / "cluster_report.json").read_bytes()
    assert report == reference_report(mixed_corpus, mode, space, tmp_path / "ref.json")
    assert b"S004" not in report  # no window, so no summary
    assert b"S001" in report  # both devices' windows make one subject


@pytest.mark.parametrize("space", [ClusterSpace.STATISTICAL_WINDOW,
                                   ClusterSpace.TEMPORAL_WINDOW], ids=lambda s: s.value)
def test_cluster_holds_one_subject_at_a_time(tmp_path, mixed_corpus, monkeypatch, space):
    def no_dataset(*args, **kwargs):
        raise AssertionError("cluster built the whole window matrix")

    monkeypatch.setattr(cli, "build_dataset", no_dataset)
    monkeypatch.setattr(evaluation, "build_dataset", no_dataset)
    rows = []
    real = clustering.window_space_matrix

    def sized(values, space):
        rows.append(len(values))
        return real(values, space)

    monkeypatch.setattr(clustering, "window_space_matrix", sized)
    ini = cluster_config(tmp_path, mixed_corpus, space.value)
    assert run_cluster(ini)[0] == 0
    per_subject = {}
    for series in parse_corpus(mixed_corpus, None):
        windows = len(segment(series, WINDOW))
        per_subject[series.subject_id] = per_subject.get(series.subject_id, 0) + windows
    assert rows == [n for _, n in sorted(per_subject.items()) if n]


def rest_series(subject, n, seed):
    """n one-second samples of random BPM, every one labelled Rest."""
    bpm = np.random.default_rng(seed).uniform(60.0, 120.0, n)
    return SubjectSeries(subject, "synthetic", np.arange(n, dtype=float), bpm,
                         np.zeros(n, dtype=np.int64))


@pytest.mark.parametrize("space, window_size", [("mean_bpm_profile", 20),
                                                ("statistical_window", 2)])
def test_a_later_subjects_windowing_error_wins(tmp_path, capsys, space, window_size):
    # A's summary fails (no Breathe window, or windows too short for the
    # statistics), but B cannot be cut at all: B's error is the one reported
    late = rest_series("B", 100, seed=2)
    irregular = np.concatenate([late.timestamps[:50], late.timestamps[50:] + 0.5])
    late = SubjectSeries("B", "synthetic", irregular, late.bpm, late.labels)
    write_corpus([rest_series("A", 100, seed=1), late], tmp_path / "corpus")
    ini = cluster_config(tmp_path, tmp_path / "corpus", space, window_size=window_size,
                         device_filter="synthetic")
    code, err = run_cluster(ini, capsys)
    assert code == 3
    assert err.startswith("data error: subject 'B': sample 50 ")


def abc_config(tmp_path, extra=""):
    """k = 3 over A and B (100 samples each) and C, 10 samples: shorter than a window."""
    write_corpus([rest_series("A", 100, seed=1), rest_series("B", 100, seed=2),
                  rest_series("C", 10, seed=3)], tmp_path / "corpus")
    return cluster_config(tmp_path, tmp_path / "corpus", window_size=20, k=3,
                          device_filter="synthetic", extra=extra)


def test_a_window_size_no_series_fills_is_named_once(tmp_path, capsys, mixed_corpus):
    longest = max(len(s) for s in parse_corpus(mixed_corpus, None))
    code, err = run_cluster(cluster_config(tmp_path, mixed_corpus, window_size=1000), capsys)
    assert code == 3
    assert err == (f"data error: no series long enough for window_size 1000: "
                   f"the longest has {longest} samples\n")


ABC_ERROR = ("data error: k=3 with 2 vectors; subject 'C' has 10 samples, "
             "fewer than window_size 20\n")


def test_too_few_vectors_names_the_subjects_without_a_window(tmp_path, capsys):
    code, err = run_cluster(abc_config(tmp_path), capsys)
    assert code == 3
    assert err == ABC_ERROR
    assert not (tmp_path / "runs").exists() or not any((tmp_path / "runs").iterdir())


@pytest.mark.parametrize("split", [SplitKind.WITHIN_CLUSTER_LOSO, SplitKind.CROSS_CLUSTER],
                         ids=lambda s: s.value)
def test_eval_cluster_splits_name_the_subjects_without_a_window(tmp_path, capsys, split):
    ini = abc_config(tmp_path, extra=f"[split]\nkind = {split.value}\n")
    code = main(["--config", str(ini), "eval"])
    assert code == 3
    assert capsys.readouterr().err == ABC_ERROR
    assert not (tmp_path / "runs").exists() or not any((tmp_path / "runs").iterdir())


def test_a_subject_without_a_window_is_in_no_fold_and_no_echo(tmp_path, mixed_corpus):
    windowed = ["S000", "S001", "S002", "S003"]  # S004 is shorter than one window
    ds = build_dataset(parse_corpus(mixed_corpus, None), DatasetSpec(WINDOW))
    assert ds.subject_ids == tuple(windowed)
    folds = make_folds(ds, SplitPlan(SplitKind.LEAVE_SUBJECT_OUT), SEED)
    assert [fold.held_out for fold in folds] == windowed
    ini = cluster_config(tmp_path, mixed_corpus, extra="[model]\nkind = svm\n")
    for command in ("eval", "train"):
        assert main(["--config", str(ini), command]) == 0
    (folds_csv,) = (tmp_path / "runs").glob("*/eval_folds.csv")
    rows = folds_csv.read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == windowed
    (echo,) = (tmp_path / "runs").glob("*/train_echo.json")
    assert json.loads(echo.read_text(encoding="utf-8"))["dataset"]["subjects"] == windowed
