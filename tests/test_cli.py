"""Command-line front end: artifacts, determinism, exit codes."""

import hashlib
import json
from pathlib import Path

import pytest

from hractivity import evaluation
from hractivity.cli import main


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


@pytest.fixture()
def tiny_corpus(tmp_path):
    """A generated 6-subject corpus plus a config file pointing at it."""
    gen_out = tmp_path / "gen"
    rc = run_cli("--seed", 7, "--out", gen_out, "generate", "--subjects", 6, "--groups", 2)
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


def test_generate_rejects_more_groups_than_subjects(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli("--seed", 1, "--out", out, "generate", "--subjects", 30, "--groups", 31)
    assert rc == 2
    assert "group" in capsys.readouterr().err
    assert not any(out.iterdir()) if out.exists() else True


def test_seed_is_mandatory(tmp_path, capsys):
    rc = run_cli("--out", tmp_path / "out", "generate")
    assert rc == 2
    assert "seed" in capsys.readouterr().err


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
    summary = (run_dir / "sweep_summary.csv").read_text().strip().splitlines()
    assert summary[0] == "window_size,stride,accuracy,balanced_accuracy"
    assert len(summary) == 29


def test_eval_byte_identical_across_worker_counts(tiny_corpus):
    ini, _, runs = tiny_corpus
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


def test_missing_corpus_is_a_data_error(tmp_path, capsys):
    ini = write_ini(tmp_path / "exp.ini",
                    f"[corpus]\nsource = {tmp_path / 'nope'}\n[run]\nseed = 1\n")
    rc = run_cli("--config", ini, "--out", tmp_path / "out", "ingest")
    assert rc == 3
    assert "data error" in capsys.readouterr().err


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
    # importance rejects repeats < 5 only after the run dir machinery starts
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
[importance]
repeats = 3
[run]
seed = 7
out = {runs}
""")
    rc = run_cli("--config", ini, "importance")
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
