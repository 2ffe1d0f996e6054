"""Self-tests of the benchmark: span arithmetic, output checks against tampered
artifacts, and the compare mode.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # the artifacts under test come from the real CLI

import checks  # noqa: E402
import tracing  # noqa: E402
from run import compare  # noqa: E402

from hractivity.cli import main as cli_main  # noqa: E402

WINDOW, STRIDE, K = 50, 10, 3


def _cli(*argv) -> Path:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main([str(a) for a in argv]) == 0
    return Path(out.getvalue().strip().splitlines()[-1])


def _rehash(run_dir: Path, name: str) -> None:
    """Make manifest.json agree with a tampered artifact, so only a content check can catch it."""
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["artifacts"][name] = checks.sha256(run_dir / name)
    path.write_text(json.dumps(manifest))


def _config(tmp: Path, corpus: Path, body: str) -> Path:
    path = tmp / "exp.ini"
    path.write_text(f"[corpus]\nsource = {corpus}\ndevice_filter = synthetic\n"
                    f"resample_period_s = 1.0\n[windows]\nwindow_size = {WINDOW}\n"
                    f"stride = {STRIDE}\n{body}")
    return path


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runs")
    generated = _cli("--seed", 3, "--out", tmp / "gen", "generate", "--subjects", 6,
                     "--groups", K)
    eval_ini = _config(tmp, generated / "corpus", "[model]\nkind = svm\n")
    evaluated = _cli("--config", eval_ini, "--seed", 3, "--out", tmp / "eval", "eval")
    rt_ini = _config(tmp, generated / "corpus", f"[standardization]\nmode = none\n"
                                                f"[clustering]\nk = {K}\n")
    ingested = _cli("--config", rt_ini, "--seed", 3, "--out", tmp / "rt", "ingest")
    clustered = _cli("--config", rt_ini, "--seed", 3, "--out", tmp / "rt", "cluster")
    return {"generate": generated, "eval": evaluated, "ingest": ingested,
            "cluster": clustered, "corpus": checks.read_corpus(generated / "corpus")}


@pytest.fixture()
def copy(runs, tmp_path):
    def make(name: str) -> Path:
        return Path(shutil.copytree(runs[name], tmp_path / name))
    return make


# ------------------------------------------------------------------- spans


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        ["cli.main", 0.0, 10.0, None, {}],
        ["evaluation.protocol", 1.0, 4.0, 0, {}],
        ["svm.train_binary", 2.0, 3.0, 1, {"rows": 7, "support_vectors": 2}],
        ["svm.train_binary", 5.0, 8.0, 0, {"rows": 5, "support_vectors": 1}],
        ["metrics.write", 7.0, 9.0, 0, {}],  # overlaps its sibling: covered once
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 3.0, 2.0]
    metrics = tracing.layer_metrics(spans)
    assert metrics["cli.self_s"] == 3.0
    assert metrics["evaluation.protocol.self_s"] == 2.0
    assert metrics["svm.train_binary.s"] == 4.0
    assert metrics["svm.train_binary.calls"] == 2
    assert metrics["svm.train_rows"] == 12
    assert metrics["svm.support_vectors"] == 3
    assert metrics["neuralnet.train.s"] == 0.0


# ------------------------------------------------------------------- checks


def test_untouched_artifacts_pass_every_check(runs):
    corpus = runs["corpus"]
    for name in ("generate", "eval", "ingest", "cluster"):
        assert checks.check_manifest(runs[name]) == []
    assert checks.check_generate(runs["generate"], 6) == []
    problems, balanced = checks.check_eval(runs["eval"], corpus, WINDOW, STRIDE)
    assert problems == [] and balanced > 0.2
    assert checks.check_ingest(runs["ingest"], corpus) == []
    problems, assignment = checks.check_cluster(runs["cluster"], corpus, K, WINDOW, STRIDE)
    assert problems == [] and sorted(assignment) == sorted(corpus)


@pytest.mark.parametrize("artifact", ["eval_report.json", "eval_confusion.csv"])
def test_altered_confusion_cell_is_rejected(runs, copy, artifact):
    run_dir = copy("eval")
    path = run_dir / artifact
    if artifact.endswith(".json"):
        report = json.loads(path.read_text())
        report["confusion"][0][1] += 1
        path.write_text(json.dumps(report))
    else:
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[2] = str(int(cells[2]) + 1)
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    _rehash(run_dir, artifact)
    assert checks.check_manifest(run_dir) == []
    problems, _ = checks.check_eval(run_dir, runs["corpus"], WINDOW, STRIDE)
    assert problems


def test_changed_manifest_hash_is_rejected(runs, copy):
    run_dir = copy("eval")
    first = checks.manifest_digests(run_dir)
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    digest = manifest["artifacts"]["eval_folds.csv"]
    manifest["artifacts"]["eval_folds.csv"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    path.write_text(json.dumps(manifest))
    assert checks.check_manifest(run_dir)
    assert checks.check_same_digests(first, checks.manifest_digests(run_dir), "eval")


def test_swapped_cluster_member_is_rejected(runs, copy):
    run_dir = copy("cluster")
    path = run_dir / "cluster_report.json"
    report = json.loads(path.read_text())
    members = report["members"]
    members[0][0], members[1][0] = members[1][0], members[0][0]
    path.write_text(json.dumps(report))
    _rehash(run_dir, "cluster_report.json")
    assert checks.check_manifest(run_dir) == []
    problems, _ = checks.check_cluster(run_dir, runs["corpus"], K, WINDOW, STRIDE)
    assert problems


def test_gap_in_the_gap_report_is_rejected(runs, copy):
    run_dir = copy("ingest")
    with open(run_dir / "gap_report.csv", "a") as handle:
        handle.write("S000,10.0,30.0\n")
    assert checks.check_ingest(run_dir, runs["corpus"])


def test_adjusted_rand_index_ignores_cluster_numbering():
    assert checks.adjusted_rand_index([0, 0, 1, 1, 2, 2], [2, 2, 0, 0, 1, 1]) == 1.0
    assert checks.adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) < 0.0


# ------------------------------------------------------------------ compare


def _records(path: Path, run_s: list[float]) -> Path:
    with open(path, "w") as handle:
        for seed, value in enumerate(run_s):
            metrics = {"setup_s": {"value": 0.8, "unit": "s"},
                       "run_s": {"value": value, "unit": "s"},
                       "peak_rss_mb": {"value": 64.0, "unit": "MB"}}
            handle.write(json.dumps({"workload": "loso-svm", "seed": seed, "trace": 0,
                                     "result": {"correct": True, "attempted": 3, "failed": 0,
                                                "metrics": metrics}}) + "\n")
    return path


def test_compare_flags_a_metric_past_its_bound(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "run_s")
    base = _records(tmp_path / "a.jsonl", [1.0, 1.02, 0.98])
    close = _records(tmp_path / "b.jsonl", [1.0 + bound / 2] * 3)
    slow = _records(tmp_path / "c.jsonl", [1.0 + 2 * bound] * 3)
    ok, _ = compare(base, close, spec)
    assert ok
    ok, lines = compare(base, slow, spec)
    assert not ok
    assert any("run_s" in line and "WORSE THAN BOUND" in line for line in lines)
    assert not any("setup_s" in line and "WORSE THAN BOUND" in line for line in lines)
