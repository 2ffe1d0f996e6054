"""Command-line front end: artifacts, determinism, exit codes."""

import configparser
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import load_net

from hractivity import cli, evaluation, svm
from hractivity.cli import main
from hractivity.errors import InternalError
from hractivity.ingest import serialize_corpus
from hractivity.neuralnet import forward
from hractivity.preprocess import fit_scaler
from hractivity.series import SubjectSeries
from hractivity.synthetic import SyntheticCohortSpec, generate_synthetic


def run_cli(*argv):
    return main([str(a) for a in argv])


def write_ini(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def dir_digest(run_dir: Path) -> dict:
    out = {}
    for p in sorted(run_dir.rglob("*")):
        if p.is_file():
            out[p.relative_to(run_dir).as_posix()] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def only_run_dir(out_root: Path) -> Path:
    dirs = [p for p in out_root.iterdir() if p.is_dir() and not p.name.startswith(".")]
    assert len(dirs) == 1, f"expected one run dir, found {dirs}"
    return dirs[0]


def generated_corpus(tmp_path, subjects=6, groups=2):
    """A generated corpus plus a config file pointing at it."""
    gen_out = tmp_path / "gen"
    rc = run_cli("--seed", 7, "--out", gen_out, "generate", "--subjects", subjects,
                 "--groups", groups)
    assert rc == 0
    corpus = only_run_dir(gen_out) / "corpus"
    ini = write_ini(tmp_path / "exp.ini", f"""
[corpus]
source = {corpus}
device_filter = synthetic
[windows]
window_size = 50
stride = 30
[model]
kind = svm
inputs = features
[run]
seed = 7
out = {tmp_path / 'runs'}
""")
    return ini, corpus, tmp_path / "runs"


@pytest.fixture()
def tiny_corpus(tmp_path):
    """A generated 6-subject corpus plus a config file pointing at it."""
    return generated_corpus(tmp_path)


def test_generate_writes_corpus_and_group_map(tmp_path):
    out = tmp_path / "out"
    assert run_cli("--seed", 3, "--out", out, "generate", "--subjects", 5, "--groups", 2) == 0
    run_dir = only_run_dir(out)
    csvs = sorted(p.name for p in (run_dir / "corpus").glob("*.csv"))
    assert csvs == [f"S{i:03d}.csv" for i in range(5)]
    groups = json.loads((run_dir / "groups.json").read_text())
    assert groups["schema"] == "group_map.v1"
    assert set(groups["groups"]) == {f"S{i:03d}" for i in range(5)}
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["seed"] == 3
    assert "corpus/S000.csv" in manifest["artifacts"]


def test_generate_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "out"
    args = ("--seed", 11, "--out", out, "generate", "--subjects", 4, "--groups", 2)
    assert run_cli(*args) == 0
    first = dir_digest(only_run_dir(out))
    assert run_cli(*args) == 0
    assert dir_digest(only_run_dir(out)) == first


def test_generate_ignores_the_corpus_keys(tmp_path):
    # generate writes a corpus and reads none, so it has nothing to resample
    corpora = []
    for name, text in (("plain", ""), ("resampled", "[corpus]\nresample_period_s = 2.0\n")):
        ini = write_ini(tmp_path / f"{name}.ini", text)
        out = tmp_path / name
        assert run_cli("--config", ini, "--out", out, "--seed", 11, "generate",
                       "--subjects", 3, "--groups", 1) == 0
        corpora.append({p.name: p.read_bytes()
                        for p in sorted((only_run_dir(out) / "corpus").glob("*.csv"))})
    assert len(corpora[0]) == 3
    assert corpora[1] == corpora[0]


def test_generate_rejects_more_groups_than_subjects(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli("--seed", 1, "--out", out, "generate", "--subjects", 30, "--groups", 31)
    assert rc == 2
    assert "group" in capsys.readouterr().err
    assert not any(out.iterdir()) if out.exists() else True


@pytest.mark.parametrize("ini_text,flags", [
    ("[synthetic]\nsample_period_s = 1e-9\n", ()),
    ("", ("--subjects", 20_000)),
], ids=["tiny-period", "huge-cohort"])
def test_generate_refuses_a_cohort_over_the_sample_bound(tmp_path, capsys, ini_text, flags):
    ini = write_ini(tmp_path / "big.ini", ini_text)
    out = tmp_path / "out"
    rc = run_cli("--config", ini, "--seed", 1, "--out", out, "generate", *flags)
    err = capsys.readouterr().err
    assert rc == 2
    assert "MAX_SAMPLES" in err and "Traceback" not in err
    assert not any(out.iterdir()) if out.exists() else True


def test_seed_is_mandatory(tmp_path, capsys):
    rc = run_cli("--out", tmp_path / "out", "generate")
    assert rc == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "file"])
def test_negative_seed_is_out_of_range_not_missing(tmp_path, capsys, source):
    ini = write_ini(tmp_path / "exp.ini", "[run]\nseed = -3\n" if source == "file" else "")
    flags = ("--seed", -3) if source == "flag" else ()
    rc = run_cli("--config", ini, *flags, "--out", tmp_path / "out", "generate")
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: run.seed must be at least 0")
    assert not (tmp_path / "out").exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    ini = write_ini(tmp_path / "bad.ini", "[windows]\nwidth = 10\n")
    rc = run_cli("--config", ini, "--seed", 1, "--out", tmp_path / "out", "generate")
    assert rc == 2
    assert "width" in capsys.readouterr().err


def test_flag_overrides_config_file(tmp_path):
    out = tmp_path / "out"
    ini = write_ini(tmp_path / "exp.ini", "[run]\nseed = 3\n[synthetic]\nsubjects = 4\ngroups = 2\n")
    assert run_cli("--config", ini, "--seed", 5, "--out", out, "generate") == 0
    manifest = json.loads((only_run_dir(out) / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["config"]["run.seed"] == "5"


def test_run_id_ignores_key_order_and_spacing(tmp_path, capsys):
    a = write_ini(tmp_path / "a.ini",
                  "[synthetic]\nsubjects = 4\ngroups = 2\n[run]\nseed = 2\n")
    b = write_ini(tmp_path / "b.ini",
                  "[run]\nseed=2\n[synthetic]\ngroups=2\nsubjects=4\n")
    assert run_cli("--config", a, "--out", tmp_path / "o1", "generate") == 0
    assert run_cli("--config", b, "--out", tmp_path / "o2", "generate") == 0
    assert only_run_dir(tmp_path / "o1").name == only_run_dir(tmp_path / "o2").name


def test_sweep_grid_emits_all_cell_reports(tiny_corpus):
    ini, _, runs = tiny_corpus
    with open(ini, "a", encoding="utf-8") as fh:
        fh.write("[split]\nkind = random_window\n")
    assert run_cli("--config", ini, "sweep") == 0
    run_dir = only_run_dir(runs)
    reports = sorted(p.name for p in run_dir.glob("report_w*_s*.json"))
    assert len(reports) == 28  # 4 window sizes x 7 strides
    # CRLF line ends, like every CSV artifact, and each cell's floats in repr
    lines = (run_dir / "sweep_summary.csv").read_bytes().split(b"\r\n")
    assert lines[0] == b"window_size,stride,accuracy,balanced_accuracy"
    assert len(lines) == 30 and lines[-1] == b""
    for line in lines[1:-1]:
        w, s, acc, bal = line.decode("utf-8").split(",")
        report = json.loads((run_dir / f"report_w{w}_s{s}.json").read_text(encoding="utf-8"))
        assert (acc, bal) == (repr(report["accuracy"]), repr(report["balanced_accuracy"]))


def test_sweep_names_the_window_size_that_no_series_fills(tiny_corpus, capsys, monkeypatch):
    ini, _, runs = tiny_corpus
    ini.write_text(ini.read_text(encoding="utf-8").replace(
        "stride = 30\n", "stride = 30\nwindow_sizes = 50 1000\nstrides = 30\n"), encoding="utf-8")

    def no_fit(*args, **kwargs):
        raise AssertionError("a cell was fitted before every window size was checked")

    monkeypatch.setattr(evaluation, "fit_classifier", no_fit)
    assert run_cli("--config", ini, "sweep") == 3
    assert capsys.readouterr().err == ("data error: no series long enough for window_size "
                                       "1000: the longest has 780 samples\n")
    assert not runs.exists() or not any(runs.iterdir())


@pytest.mark.parametrize("command, extra", [
    ("eval", ""),
    ("sweep", ""),
    ("eval", "[clustering]\nk = 2\nrouting = per_window\n"),
], ids=["eval", "sweep", "routed"])
def test_leave_subject_out_refuses_a_single_subject(tmp_path, capsys, command, extra):
    ini, _, runs = generated_corpus(tmp_path, subjects=1, groups=1)
    with open(ini, "a", encoding="utf-8") as fh:
        fh.write(extra)
    assert run_cli("--config", ini, command) == 3
    assert capsys.readouterr().err == ("data error: leave-subject-out needs at least two "
                                       "subjects with windows, found 1: 'S000'\n")
    assert not runs.exists() or not any(runs.iterdir())


def test_timeline_refuses_a_single_subject(tmp_path, capsys):
    ini, _, runs = generated_corpus(tmp_path, subjects=1, groups=1)
    assert run_cli("--config", ini, "timeline") == 3
    assert capsys.readouterr().err == ("data error: timeline needs at least two subjects "
                                       "(one to hold out)\n")
    assert not runs.exists() or not any(runs.iterdir())


@pytest.mark.parametrize("routing", ["per_window", "per_subject"])
def test_routed_eval_names_a_k_its_folds_cannot_fill(tmp_path, capsys, routing):
    ini, _, runs = generated_corpus(tmp_path, subjects=3, groups=1)
    with open(ini, "a", encoding="utf-8") as fh:
        fh.write(f"[clustering]\nk = 3\nrouting = {routing}\n")
    assert run_cli("--config", ini, "eval") == 3
    assert capsys.readouterr().err == (
        "data error: k=3 with 2 vectors: clustering.k = 3 but the fold holding out subject "
        "'S000' trains on 2 subjects\n")
    assert not runs.exists() or not any(runs.iterdir())


def test_timeline_refuses_a_subject_too_short_for_a_window(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(3)
    corpus = [SubjectSeries(sid, "synthetic", np.arange(float(n)), rng.uniform(50.0, 120.0, n),
                            np.repeat([0, 2], n // 2))
              for sid, n in (("A", 400), ("B", 400), ("C", 30))]
    serialize_corpus(corpus, tmp_path / "corpus")
    ini = write_ini(tmp_path / "exp.ini", f"""
[corpus]
source = {tmp_path / 'corpus'}
device_filter = synthetic
[windows]
window_size = 50
stride = 30
[timeline]
subject = C
[run]
seed = 7
out = {tmp_path / 'runs'}
""")

    def no_fit(*args, **kwargs):
        raise AssertionError("a classifier was fitted before the subject was checked")

    monkeypatch.setattr(cli, "_fit_on_all", no_fit)
    assert run_cli("--config", ini, "timeline") == 3
    assert capsys.readouterr().err == ("data error: timeline subject 'C' has 30 samples, "
                                       "fewer than windows.window_size 50\n")
    assert not (tmp_path / "runs").exists() or not any((tmp_path / "runs").iterdir())


EVAL_PROTOCOLS = {
    "leave_subject_out": "",
    "random_window": "[split]\nkind = random_window\n",
    "within_cluster_loso": "[clustering]\nk = 2\n[split]\nkind = within_cluster_loso\n",
    "cross_cluster": "[clustering]\nk = 2\n[split]\nkind = cross_cluster\n",
    "per_subject": "[clustering]\nk = 2\nrouting = per_subject\n",
    "per_window": "[clustering]\nk = 2\nrouting = per_window\n",
}


@pytest.mark.parametrize("protocol", list(EVAL_PROTOCOLS))
def test_eval_byte_identical_across_worker_counts(tiny_corpus, protocol):
    ini, _, runs = tiny_corpus
    with open(ini, "a", encoding="utf-8") as fh:
        fh.write(EVAL_PROTOCOLS[protocol])
    assert run_cli("--config", ini, "eval") == 0
    run_dir = only_run_dir(runs)
    first = dir_digest(run_dir)
    assert run_cli("--config", ini, "--workers", 2, "eval") == 0
    assert only_run_dir(runs) == run_dir  # worker count does not change the run id
    assert dir_digest(run_dir) == first


def test_eval_routed_emits_confusion_csv(tiny_corpus):
    ini, _, runs = tiny_corpus
    with open(ini, "a", encoding="utf-8") as fh:
        fh.write("[standardization]\nmode = none\n"
                 "[clustering]\nk = 2\nrouting = per_subject\n")
    assert run_cli("--config", ini, "eval") == 0
    run_dir = only_run_dir(runs)
    confusion = (run_dir / "eval_confusion.csv").read_text().splitlines()
    assert confusion[0].startswith("true\\pred,")
    assert len(confusion) == 6
    report = json.loads((run_dir / "eval_report.json").read_text())
    assert report["schema"] == "eval_report.v1"


def test_train_saves_a_net_that_reloads_bit_for_bit(tiny_corpus, monkeypatch):
    ini, _, runs = tiny_corpus
    net = write_ini(ini.with_name("net.ini"), ini.read_text(encoding="utf-8").replace(
        "kind = svm\ninputs = features\n", "kind = net\narch = model1\nepochs = 2\n"))
    fitted = []
    fit = cli.fit_classifier

    def recording_fit(spec, ds, train_idx, seed):
        clf = fit(spec, ds, train_idx, seed)
        fitted.append((ds, clf))
        return clf

    monkeypatch.setattr(cli, "fit_classifier", recording_fit)
    assert run_cli("--config", net, "train") == 0
    path = only_run_dir(runs) / "model.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["schema"] == "net_model.v3"
    assert payload["dtype"] == "float32"
    assert sorted(payload["config"]) == ["batch_size", "dropout_p", "epochs", "hc_dim",
                                         "learning_rate", "seed", "window_size"]
    [(ds, clf)] = fitted
    loaded = load_net(path)
    assert loaded.training_log == clf.model.training_log
    want = forward(clf.model, ds.windows, ds.hc)
    assert np.array_equal(forward(loaded, ds.windows, ds.hc), want)


def test_train_echoes_the_feature_scaler_of_a_net(tiny_corpus, monkeypatch):
    ini, _, runs = tiny_corpus
    net = write_ini(ini.with_name("net.ini"), ini.read_text(encoding="utf-8").replace(
        "kind = svm\ninputs = features\n", "kind = net\narch = model1\nepochs = 1\n")
        + "[standardization]\nmode = feature\n")
    datasets = []
    fit = cli.fit_classifier

    def recording_fit(spec, ds, train_idx, seed):
        datasets.append(ds)
        return fit(spec, ds, train_idx, seed)

    monkeypatch.setattr(cli, "fit_classifier", recording_fit)
    assert run_cli("--config", net, "train") == 0
    echo = json.loads((only_run_dir(runs) / "train_echo.json").read_text(encoding="utf-8"))
    [ds] = datasets
    expected = fit_scaler(ds.hc)
    assert echo["classifier"]["arch"] == "model1"
    assert echo["feature_scaler"] == {"mean": expected.mean.tolist(), "std": expected.std.tolist()}


def test_eval_on_a_synthetic_source_matches_eval_on_its_generated_csvs(tmp_path):
    gen_out = tmp_path / "gen"
    assert run_cli("--seed", 4, "--out", gen_out, "generate", "--subjects", 5, "--groups", 2) == 0
    corpus = only_run_dir(gen_out) / "corpus"
    rest = ("[synthetic]\nsubjects = 5\ngroups = 2\n[windows]\nwindow_size = 50\nstride = 30\n"
            "[run]\nseed = 4\n")
    outputs = []
    for name, source in (("synthetic", "source = synthetic\n"),
                         ("csv", f"source = {corpus}\ndevice_filter = synthetic\n")):
        ini = write_ini(tmp_path / f"{name}.ini", f"[corpus]\n{source}{rest}")
        assert run_cli("--config", ini, "--out", tmp_path / name, "eval") == 0
        run_dir = only_run_dir(tmp_path / name)
        outputs.append({artifact: (run_dir / artifact).read_bytes() for artifact in
                        ("eval_report.json", "eval_folds.csv", "eval_confusion.csv")})
    assert outputs[0] == outputs[1]


def test_timeline_artifacts(tiny_corpus):
    ini, _, runs = tiny_corpus
    assert run_cli("--config", ini, "timeline") == 0
    run_dir = only_run_dir(runs)
    rates = json.loads((run_dir / "transition_rates.json").read_text())
    assert rates["schema"] == "transition_rates.v1"
    assert rates["subject_id"] == "S000"
    lines = (run_dir / "timeline.csv").read_text().splitlines()
    assert lines[0] == "t,bpm,true,pred,correct,transition"
    assert len(lines) == 781


def test_timeline_refuses_a_subject_recorded_by_two_devices(tmp_path, capsys):
    # one timeline follows one series: device B's samples must not replace A's unseen
    series, _ = generate_synthetic(SyntheticCohortSpec(n_subjects=4, n_groups=2, seed=7))
    corpus = tmp_path / "corpus"
    serialize_corpus([dataclasses.replace(s, device_id="A") for s in series], corpus)
    [b_file] = serialize_corpus([dataclasses.replace(series[0], device_id="B",
                                                     bpm=series[0].bpm + 30.0)], tmp_path / "b")
    b_file.rename(corpus / "S000_B.csv")
    runs = tmp_path / "runs"
    ini = write_ini(tmp_path / "exp.ini", f"""
[corpus]
source = {corpus}
device_filter =
[windows]
window_size = 50
stride = 30
[run]
seed = 7
out = {runs}
""")
    rc = run_cli("--config", ini, "timeline")
    err = capsys.readouterr().err
    assert rc == 3
    assert err == ("data error: timeline subject 'S000' was recorded by devices 'A' and 'B'; "
                   "a timeline follows one series, so set corpus.device_filter to one device\n")
    assert not runs.exists() or not any(runs.iterdir())


def test_missing_corpus_is_a_data_error(tmp_path, capsys):
    ini = write_ini(tmp_path / "exp.ini",
                    f"[corpus]\nsource = {tmp_path / 'nope'}\n[run]\nseed = 1\n")
    rc = run_cli("--config", ini, "--out", tmp_path / "out", "ingest")
    assert rc == 3
    assert "data error" in capsys.readouterr().err


def test_a_device_filter_that_keeps_no_series_is_a_data_error(tiny_corpus, capsys):
    ini, corpus, runs = tiny_corpus
    write_ini(ini, ini.read_text().replace("device_filter = synthetic", "device_filter = Fitbit"))
    assert run_cli("--config", ini, "eval") == 3
    assert capsys.readouterr().err == (f"data error: no series found under {corpus} "
                                       f"(device filter: Fitbit)\n")
    assert not runs.exists() or not any(runs.iterdir())


def test_an_internal_error_exits_4(tiny_corpus, capsys, monkeypatch):
    ini, _, runs = tiny_corpus

    def broken(*args, **kwargs):
        raise InternalError("fold bookkeeping broke")

    monkeypatch.setattr(cli, "run_split", broken)
    assert run_cli("--config", ini, "eval") == 4
    assert capsys.readouterr().err == "internal error: fold bookkeeping broke\n"
    assert not any(runs.iterdir())


@pytest.mark.parametrize("command", ["ingest", "eval"])
@pytest.mark.parametrize(
    "bad_row",
    ["A,Apple Watch,1,abc,Rest\n", "A,Apple Watch,1\n", "A,Apple Watch,,61,Rest\n"],
    ids=["bpm-abc", "short-row", "empty-timestamp"],
)
def test_malformed_row_is_a_data_error(tmp_path, capsys, command, bad_row):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("subject_id,device,timestamp,bpm,label\n"
                        "A,Apple Watch,0,60,Rest\n" + bad_row, encoding="utf-8")
    ini = write_ini(tmp_path / "exp.ini", f"[corpus]\nsource = {csv_path}\n[run]\nseed = 1\n")
    rc = run_cli("--config", ini, "--out", tmp_path / "out", command)
    err = capsys.readouterr().err
    assert rc == 3
    assert "data error" in err and "bad.csv, line 3" in err
    assert "Traceback" not in err


def test_failed_run_leaves_no_partial_output(tmp_path):
    # an unknown timeline subject is refused only after the run dir machinery starts
    gen_out = tmp_path / "gen"
    assert run_cli("--seed", 7, "--out", gen_out, "generate", "--subjects", 4, "--groups", 2) == 0
    corpus = only_run_dir(gen_out) / "corpus"
    runs = tmp_path / "runs"
    ini = write_ini(tmp_path / "exp.ini", f"""
[corpus]
source = {corpus}
device_filter = synthetic
[windows]
window_size = 50
stride = 60
[timeline]
subject = NOPE
[run]
seed = 7
out = {runs}
""")
    rc = run_cli("--config", ini, "timeline")
    assert rc == 2
    leftovers = list(runs.iterdir()) if runs.exists() else []
    assert leftovers == []


def test_ingest_summary_counts(tiny_corpus):
    ini, corpus, runs = tiny_corpus
    assert run_cli("--config", ini, "ingest") == 0
    summary = json.loads((only_run_dir(runs) / "corpus_summary.json").read_text())
    assert summary["schema"] == "corpus_summary.v1"
    assert len(summary["subjects"]) == 6
    first = summary["subjects"][0]
    assert first["samples"] == 780
    assert sum(first["labels"].values()) == 780


def test_cluster_report_does_not_depend_on_the_feature_set(tiny_corpus, monkeypatch):
    ini, _, runs = tiny_corpus
    reports = {}
    for kind in ("stat_temporal", "none"):
        kind_ini = write_ini(ini.with_name(f"{kind}.ini"),
                             ini.read_text() + f"[features]\nkind = {kind}\n")
        out = runs / kind
        assert run_cli("--config", kind_ini, "--out", out, "cluster") == 0
        reports[kind] = (only_run_dir(out) / "cluster_report.json").read_bytes()
    assert reports["stat_temporal"] == reports["none"]

    def no_features(*args, **kwargs):
        raise AssertionError("cluster built a feature matrix")

    monkeypatch.setattr(evaluation, "feature_matrix", no_features)
    assert run_cli("--config", ini, "--out", runs / "unused", "cluster") == 0


def test_importance_matches_the_full_shuffle_loop(tiny_corpus, monkeypatch):
    ini, _, runs = tiny_corpus  # svm on features: window timesteps are never read
    calls = []
    predict = evaluation.FittedSvm.predict

    def counting_predict(self, windows, hc):
        calls.append(1)
        return predict(self, windows, hc)

    monkeypatch.setattr(evaluation.FittedSvm, "predict", counting_predict)
    assert run_cli("--config", ini, "--out", runs / "skip", "importance") == 0
    skipped = only_run_dir(runs / "skip")
    n_features = len(json.loads((skipped / "importance.json").read_text())["names"]) - 50
    assert n_features == 22
    assert len(calls) == 1 + 5 * n_features

    monkeypatch.setattr(evaluation.FittedSvm, "reads_windows", True)
    assert run_cli("--config", ini, "--out", runs / "full", "importance") == 0
    full = only_run_dir(runs / "full")
    assert len(calls) == (1 + 5 * n_features) + (1 + 5 * (50 + n_features))
    for name in ("importance.csv", "importance.json"):
        assert (skipped / name).read_bytes() == (full / name).read_bytes(), name


@pytest.mark.parametrize("period", ["inf", "nan", "-1"])
def test_non_finite_resample_period_is_a_config_error(tiny_corpus, capsys, period):
    ini, _, runs = tiny_corpus
    bad = write_ini(ini.with_name("bad.ini"),
                    ini.read_text().replace("[corpus]\n", f"[corpus]\nresample_period_s = {period}\n"))
    rc = run_cli("--config", bad, "ingest")
    err = capsys.readouterr().err
    assert rc == 2
    assert "corpus.resample_period_s must be a finite number >= 0" in err
    assert "Traceback" not in err
    assert not runs.exists() or not any(runs.iterdir())


def test_non_uniform_corpus_is_refused_until_resampled(tiny_corpus, capsys):
    ini, corpus, runs = tiny_corpus
    irregular = corpus.parent / "irregular"
    irregular.mkdir()
    for path in sorted(corpus.glob("*.csv")):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        (irregular / path.name).write_text("".join(lines[:101] + lines[102:]), encoding="utf-8")
    raw = write_ini(ini.with_name("raw.ini"), ini.read_text().replace(str(corpus), str(irregular)))
    for command in ("eval", "timeline"):
        rc = run_cli("--config", raw, command)
        err = capsys.readouterr().err
        assert rc == 3, command
        assert "data error" in err and "sample 100 (t=101.0)" in err
        assert "resample_period_s" in err and "Traceback" not in err
    resampled = write_ini(ini.with_name("resampled.ini"),
                          raw.read_text().replace("[corpus]\n", "[corpus]\nresample_period_s = 1.0\n"))
    for command in ("eval", "timeline"):
        assert run_cli("--config", resampled, "--out", runs / command, command) == 0


def test_oversized_resample_grid_is_a_data_error(tmp_path, capsys):
    # 1e300 s at 1 s per point: the grid is refused before anything is allocated
    csv_path = tmp_path / "far.csv"
    csv_path.write_text("subject_id,device,timestamp,bpm,label\n"
                        "A,W,0,60,Rest\nA,W,1e300,61,Rest\n", encoding="utf-8")
    ini = write_ini(tmp_path / "far.ini", f"""
[corpus]
source = {csv_path}
device_filter =
resample_period_s = 1.0
[run]
seed = 1
out = {tmp_path / 'runs'}
""")
    rc = run_cli("--config", ini, "ingest")
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("data error: subject 'A'")
    assert "1e+300 s" in err and "1.0 s" in err and "grid points" in err
    assert "Traceback" not in err
    assert not any((tmp_path / "runs").iterdir())


@pytest.mark.usefixtures("refuse_huge_linspace")
def test_oversized_mel_filterbank_is_a_config_error(tiny_corpus, capsys):
    # 10^13 bands x 33 bins would ask np.linspace for 10^13 points first
    ini, _, runs = tiny_corpus
    bad = write_ini(ini.with_name("mel.ini"), ini.read_text().replace(
        "[model]\n", "[features]\nkind = base_mfcc\nn_mel_bands = 10000000000000\n[model]\n"))
    rc = run_cli("--config", bad, "eval")
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: features.n_mel_bands = 10000000000000")
    assert "MAX_FILTERBANK_WEIGHTS" in err and "Traceback" not in err
    assert not runs.exists() or not any(runs.iterdir())


def test_mel_band_ceiling_runs(tiny_corpus, capsys):
    # MAX_MEL_BANDS itself runs; 257 is a row of test_ignored_settings_are_refused
    ini, _, runs = tiny_corpus
    ok = write_ini(ini.with_name("mel.ini"), ini.read_text().replace(
        "[model]\n", "[features]\nkind = base_mfcc\nn_mel_bands = 256\n[model]\n"))
    assert run_cli("--config", ok, "eval") == 0, capsys.readouterr().err
    manifest = json.loads((only_run_dir(runs) / "manifest.json").read_text())
    assert manifest["config"]["features.n_mel_bands"] == "256"


def test_oversized_svm_gram_matrix_is_a_data_error(tiny_corpus, capsys, monkeypatch):
    # at stride 1 every machine of the first fold has more rows than the
    # lowered bound admits; the fit is refused before its Gram matrix exists
    ini, _, runs = tiny_corpus
    dense = write_ini(ini.with_name("dense.ini"),
                      ini.read_text().replace("stride = 30", "stride = 1"))
    monkeypatch.setattr(svm, "MAX_GRAM_ENTRIES", 10**5)
    rc = run_cli("--config", dense, "eval")
    err = capsys.readouterr().err
    assert rc == 3
    assert re.fullmatch(r"data error: an SVM machine on (\d+) rows needs a \1 x \1 Gram "
                        r"matrix, more than MAX_GRAM_ENTRIES = 100000 entries; windows are "
                        r"cut at stride 1, and a larger windows\.stride gives fewer rows\n", err)
    assert not runs.exists() or not any(runs.iterdir())


def test_eval_writes_the_same_bytes_under_any_locale(tmp_path):
    series, _ = generate_synthetic(SyntheticCohortSpec(n_subjects=4, n_groups=2, seed=9))
    series[1] = dataclasses.replace(series[1], subject_id="Zo\u00eb")
    corpus = tmp_path / "corpus"
    serialize_corpus(series, corpus)
    ini = write_ini(tmp_path / "exp.ini", f"""
[corpus]
source = {corpus}
device_filter = synthetic
[windows]
window_size = 50
stride = 30
[model]
kind = svm
inputs = features
[run]
seed = 9
""")
    src = Path(cli.__file__).resolve().parents[1]
    manifests = []
    for name, locale_env in [("posix", {"LC_ALL": "POSIX", "PYTHONUTF8": "0"}),
                             ("utf8", {"PYTHONUTF8": "1"})]:
        env = {**os.environ, "PYTHONPATH": str(src), **locale_env}
        done = subprocess.run([sys.executable, "-m", "hractivity.cli", "--config", str(ini),
                               "--out", str(tmp_path / name), "eval"],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        run_dir = only_run_dir(tmp_path / name)
        assert "Zo\u00eb" in (run_dir / "eval_folds.csv").read_text(encoding="utf-8")
        manifests.append((run_dir / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize("command,extra,keys", [
    ("eval", "[clustering]\nrouting = per_window\n[split]\nkind = random_window\n",
     ("clustering.routing", "split.kind")),
    ("sweep", "[clustering]\nrouting = per_subject\n", ("clustering.routing",)),
    ("sweep", "[split]\nkind = within_cluster_loso\n", ("split.kind",)),
    ("sweep", "[split]\nkind = cross_cluster\n", ("split.kind",)),
    ("eval", "[clustering]\nk = 2\n[split]\nkind = cross_cluster\ntest_cluster = 2\n",
     ("split.test_cluster", "clustering.k")),
    ("eval", "[clustering]\nk = 3\n[split]\nkind = cross_cluster\ntrain_cluster = 4\n",
     ("split.train_cluster", "clustering.k")),
    ("eval", "[features]\non_standardized_input = true\n", ("features.on_standardized_input",)),
    ("cluster", "[features]\non_standardized_input = true\n",
     ("features.on_standardized_input",)),
    ("eval", "[clustering]\nk = 2\n[split]\nkind = cross_cluster\ntrain_cluster = 1\n"
     "test_cluster = 1\n", ("split.train_cluster", "split.test_cluster")),
    ("eval", "[clustering]\nrouting = per_subject\nspace = mean_bpm_profile\n",
     ("clustering.routing", "clustering.space")),
    ("importance", "[importance]\nrepeats = 4\n", ("importance.repeats",)),
    ("eval", "[clustering]\nrestart = 3\n", ("unknown config key clustering.restart",)),
    ("eval", "[model]\nc = inf\n", ("model.c", "finite")),
    ("eval", "[model]\ntol = inf\n", ("model.tol", "finite")),
    ("eval", "[model]\ngamma = inf\n", ("model.gamma", "finite")),
    ("eval", "[model]\nlearning_rate = inf\n", ("model.learning_rate", "finite")),
    ("eval", "[synthetic]\nnoise_std = nan\n", ("synthetic.noise_std", "finite")),
    ("eval", "[synthetic]\nlag_tau_s = -5\n", ("synthetic.lag_tau_s", ">= 0")),
    ("eval", "[synthetic]\nsample_period_s = nan\n", ("synthetic.sample_period_s", "finite")),
    ("eval", "[windows]\nwindow_size = 1\n", ("windows.window_size", "at least 2")),
    ("eval", "[features]\nn_mel_bands = 4\n", ("features.n_mel_bands", "at least")),
    ("eval", "[features]\nkind = base_mfcc\nn_mel_bands = 257\n",
     ("features.n_mel_bands = 257", "MAX_MEL_BANDS = 256")),
    ("ingest", "[corpus]\nsource =\n", ("corpus.source is empty",)),
    ("eval", "[features]\nkind = none\n[model]\ninputs = both\n",
     ("model.inputs = both", "features.kind = none")),
    ("eval", "[features]\nkind = none\n[model]\ninputs = features\n",
     ("model.inputs = features", "features.kind = none")),
    ("eval", "[features]\nkind = none\n[model]\nkind = net\narch = model1\n",
     ("model.arch = model1", "features.kind = none")),
    ("train", "[clustering]\nrouting = per_window\n", ("clustering.routing",)),
    ("importance", "[split]\nkind = cross_cluster\n", ("split.kind = cross_cluster",)),
    ("timeline", "[split]\nkind = cross_cluster\n", ("split.kind = cross_cluster",)),
    ("cluster", "[clustering]\nrouting = per_window\n", ("clustering.routing",)),
    ("ingest", "[split]\nkind = cross_cluster\n", ("split.kind = cross_cluster",)),
    ("cluster", "[split]\nkind = cross_cluster\n", ("split.kind = cross_cluster",)),
    ("generate", "[clustering]\nrouting = per_subject\n", ("clustering.routing",)),
    ("eval", "[corpus]\nsource = synthetic\nresample_period_s = 2.0\n",
     ("corpus.resample_period_s = 2.0", "corpus.source = synthetic")),
    ("eval", "[model]\nkind = net\n[windows]\nwindow_size = 5\n",
     ("windows.window_size = 5", "model.arch = baseline")),
    ("sweep", "[model]\nkind = net\n[windows]\nwindow_sizes = 50 5\n",
     ("windows.window_sizes = 5", "model.arch = baseline")),
    ("ingest", "[corpus]\nsource = synthetic\n",
     ("ingest needs corpus.source to point at CSV files",)),
    ("eval", "[corpus]\nsource = synthetic\ndevice_filter = Fitbit\n",
     ("corpus.device_filter = Fitbit", "corpus.source = synthetic")),
], ids=["eval-routing-random_window", "sweep-routing", "sweep-within_cluster_loso",
        "sweep-cross_cluster", "eval-test_cluster-ge-k", "eval-train_cluster-ge-k",
        "eval-on_standardized_input", "cluster-on_standardized_input",
        "eval-train_cluster-eq-test_cluster", "eval-routing-profile_space",
        "importance-repeats-lt-5", "eval-unknown-key", "eval-c-inf", "eval-tol-inf",
        "eval-gamma-inf", "eval-learning_rate-inf", "eval-noise_std-nan",
        "eval-lag_tau_s-negative", "eval-sample_period_s-nan", "eval-window_size-1",
        "eval-n_mel_bands-4", "eval-n_mel_bands-257", "ingest-empty-source",
        "eval-both-without-features", "eval-features-without-features",
        "eval-model1-without-features", "train-routing", "importance-cross_cluster",
        "timeline-cross_cluster", "cluster-routing", "ingest-cross_cluster",
        "cluster-cross_cluster", "generate-routing", "eval-synthetic-resample",
        "eval-net-window_size-5", "sweep-net-window_sizes-5", "ingest-synthetic-source",
        "eval-synthetic-device_filter"])
def test_ignored_settings_are_refused(tiny_corpus, capsys, monkeypatch, command, extra, keys):
    ini, _, runs = tiny_corpus
    # merge section by section: the base file already has a [model] section
    merged = configparser.ConfigParser(interpolation=None)
    merged.read_string(ini.read_text())
    merged.read_string(extra)
    text = io.StringIO()
    merged.write(text)
    bad = write_ini(ini.with_name("bad.ini"), text.getvalue())

    def no_corpus(*args, **kwargs):
        raise AssertionError("the corpus was read before the config was checked")

    monkeypatch.setattr(cli, "parse_corpus", no_corpus)
    monkeypatch.setattr(cli, "generate_synthetic", no_corpus)
    rc = run_cli("--config", bad, command)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ")
    for key in keys:
        assert key in err, key
    assert "Traceback" not in err
    assert not runs.exists() or not any(runs.iterdir())


def loaded_by_cli_import(*packages) -> str:
    """The modules of the given top-level packages that a fresh interpreter
    has loaded after ``import hractivity.cli``, as a printed sorted list."""
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys, hractivity.cli; "
            f"print(sorted(m for m in sys.modules if m.partition('.')[0] in {packages!r}))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.strip()


def test_cli_import_loads_no_scipy():
    assert loaded_by_cli_import("scipy") == "[]"


def test_cli_import_loads_no_process_pool():
    # the fold pool is imported when a run asks for a second worker, not before
    assert loaded_by_cli_import("concurrent", "multiprocessing", "socket", "subprocess",
                                "logging") == "[]"
