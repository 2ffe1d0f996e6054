"""Output checks, each computed apart from the program.

Every check returns a list of problems; an empty list means it passed. The
expected values come from the corpus CSV files (read with the stdlib ``csv``
module), from the documented windowing and labelling rules, or from
properties the method must have, never from a stored copy of an earlier
output.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from math import comb
from pathlib import Path

import numpy as np

from workloads import LABELS, SAMPLE_PERIOD_S, SEGMENT_DURATIONS_S

TOLERANCE = 1e-9


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest_digests(run_dir: Path) -> dict:
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    return {"run_id": manifest["run_id"], "artifacts": manifest["artifacts"]}


def check_manifest(run_dir: Path) -> list[str]:
    """Every artifact on disk is listed in manifest.json with its true sha256."""
    listed = manifest_digests(run_dir)["artifacts"]
    on_disk = {p.relative_to(run_dir).as_posix() for p in run_dir.rglob("*") if p.is_file()}
    problems = []
    if on_disk - {"manifest.json"} != set(listed):
        problems.append(f"{run_dir.name}: manifest lists {sorted(listed)}, disk holds "
                        f"{sorted(on_disk - {'manifest.json'})}")
    for name, digest in listed.items():
        path = run_dir / name
        if path.is_file() and sha256(path) != digest:
            problems.append(f"{run_dir.name}/{name}: sha256 differs from manifest.json")
    return problems


def check_same_digests(first: dict, again: dict, what: str) -> list[str]:
    return [] if first == again else [f"{what}: manifest digests differ from the first round's"]


# ------------------------------------------------------------------- corpus


def read_corpus(corpus_dir: Path) -> dict[str, dict]:
    """subject id -> {"bpm": [...], "labels": [...]} from each subject's CSV."""
    subjects = {}
    for path in sorted(corpus_dir.glob("*.csv")):
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        subjects[path.stem] = {
            "bpm": [float(r["bpm"]) for r in rows],
            "labels": [LABELS.index(r["label"]) for r in rows],
        }
    return subjects


def window_count(rows: int, window: int, stride: int) -> int:
    return (rows - window) // stride + 1 if rows >= window else 0


def window_label(labels: list[int]) -> int:
    """Majority label; a tie goes to the label of the window's last sample."""
    counts = Counter(labels)
    top = max(counts.values())
    return labels[-1] if counts[labels[-1]] == top else counts.most_common(1)[0][0]


def class_window_counts(corpus: dict, window: int, stride: int) -> list[int]:
    counts = [0] * len(LABELS)
    for subject in corpus.values():
        labels = subject["labels"]
        for k in range(window_count(len(labels), window, stride)):
            counts[window_label(labels[k * stride : k * stride + window])] += 1
    return counts


# --------------------------------------------------------------------- eval


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def check_eval(run_dir: Path, corpus: dict, window: int, stride: int) -> tuple[list[str], float]:
    """Folds, confusion matrix and scores of an `eval` run against the corpus it read."""
    report = json.loads((run_dir / "eval_report.json").read_text(encoding="utf-8"))
    problems = []
    folds = report["folds"]
    if len(folds) != len(corpus):
        problems.append(f"{len(folds)} folds for {len(corpus)} subjects")
    expected_total = 0
    for fold in folds:
        subject = corpus.get(fold["held_out"])
        if subject is None:
            problems.append(f"fold {fold['fold_id']} holds out unknown subject {fold['held_out']}")
            continue
        expected = window_count(len(subject["labels"]), window, stride)
        expected_total += expected
        if fold["n_test"] != expected:
            problems.append(f"fold {fold['held_out']}: n_test {fold['n_test']}, expected {expected}")

    cm = report["confusion"]
    total = sum(map(sum, cm))
    if total != expected_total:
        problems.append(f"confusion total {total}, expected {expected_total}")
    expected_rows = class_window_counts(corpus, window, stride)
    if [sum(row) for row in cm] != expected_rows:
        problems.append(f"confusion row sums {[sum(r) for r in cm]}, expected {expected_rows}")

    if total:
        acc = sum(cm[i][i] for i in range(len(cm))) / total
        recalls = [cm[i][i] / sum(cm[i]) for i in range(len(cm)) if sum(cm[i])]
        balanced = sum(recalls) / len(recalls)
        if abs(acc - report["accuracy"]) > TOLERANCE:
            problems.append(f"accuracy {report['accuracy']} but the confusion gives {acc}")
        if abs(balanced - report["balanced_accuracy"]) > TOLERANCE:
            problems.append(f"balanced accuracy {report['balanced_accuracy']} but the "
                            f"confusion gives {balanced}")
        if not balanced > 1.0 / len(LABELS):
            problems.append(f"balanced accuracy {balanced} is not above chance")

    csv_cm = [[int(v) for v in row[1:]] for row in _read_csv(run_dir / "eval_confusion.csv")[1:]]
    if csv_cm != cm:
        problems.append("eval_confusion.csv differs from the report's confusion matrix")
    csv_folds = [(row[1], int(row[2])) for row in _read_csv(run_dir / "eval_folds.csv")[1:]]
    if csv_folds != [(f["held_out"], f["n_test"]) for f in folds]:
        problems.append("eval_folds.csv differs from the report's folds")
    return [f"{run_dir.name}: {p}" for p in problems], float(report["balanced_accuracy"])


# ---------------------------------------------------------- corpus-roundtrip


def check_generate(run_dir: Path, n_subjects: int) -> list[str]:
    ids = [f"S{i:03d}" for i in range(n_subjects)]
    csvs = sorted(p.stem for p in (run_dir / "corpus").glob("*.csv"))
    problems = []
    if csvs != ids:
        problems.append(f"corpus holds {len(csvs)} CSV files, expected {n_subjects}")
    groups = json.loads((run_dir / "groups.json").read_text(encoding="utf-8"))["groups"]
    if sorted(groups) != ids:
        problems.append("groups.json does not map every subject")
    return [f"{run_dir.name}: {p}" for p in problems]


def check_ingest(run_dir: Path, corpus: dict) -> list[str]:
    summary = json.loads((run_dir / "corpus_summary.json").read_text(encoding="utf-8"))
    expected_labels = {name: d // SAMPLE_PERIOD_S for name, d in zip(LABELS, SEGMENT_DURATIONS_S)}
    problems = []
    seen = [s["subject_id"] for s in summary["subjects"]]
    if seen != sorted(corpus):
        problems.append(f"summary lists {len(seen)} subjects, corpus holds {len(corpus)}")
    for s in summary["subjects"]:
        rows = len(corpus.get(s["subject_id"], {}).get("labels", ()))
        if s["samples"] != rows:
            problems.append(f"{s['subject_id']}: {s['samples']} samples, CSV holds {rows} rows")
        if s["labels"] != expected_labels:
            problems.append(f"{s['subject_id']}: label counts {s['labels']}, "
                            f"expected {expected_labels}")
    gaps = _read_csv(run_dir / "gap_report.csv")
    if gaps != [["subject_id", "gap_start_s", "gap_end_s"]]:
        problems.append(f"gap report holds {len(gaps) - 1} gaps on a gap-free corpus")
    return [f"{run_dir.name}: {p}" for p in problems]


def statistical_vectors(values: np.ndarray, window: int, stride: int) -> np.ndarray:
    """The twelve statistical features of every window of one series.

    Mean, sample std and variance, min, max, median, interquartile range,
    skewness, excess kurtosis, root mean square, mean absolute deviation, and
    the entropy of a 10-bin histogram spanning [min, max].
    """
    mat = np.lib.stride_tricks.sliding_window_view(values, window)[::stride]
    mean = mat.mean(axis=1)
    dev = mat - mean[:, None]
    m2, m3, m4 = ((dev**p).mean(axis=1) for p in (2, 3, 4))
    safe = np.where(m2 > 0, m2, 1.0)
    lo, hi = mat.min(axis=1), mat.max(axis=1)
    q25, median, q75 = np.percentile(mat, [25.0, 50.0, 75.0], axis=1)
    width = np.where(hi > lo, hi - lo, 1.0)
    bins = np.minimum((mat - lo[:, None]) / width[:, None] * 10, 9).astype(np.int64)
    p = np.stack([(bins == b).mean(axis=1) for b in range(10)], axis=1)
    entropy = -np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0).sum(axis=1)
    return np.column_stack([
        mean, mat.std(axis=1, ddof=1), mat.var(axis=1, ddof=1), lo, hi, median, q75 - q25,
        np.where(m2 > 0, m3 / safe**1.5, 0.0), np.where(m2 > 0, m4 / safe**2 - 3.0, 0.0),
        np.sqrt((mat**2).mean(axis=1)), np.abs(dev).mean(axis=1),
        np.where(hi > lo, entropy, 0.0),
    ])


def adjusted_rand_index(a: list, b: list) -> float:
    pairs = Counter(zip(a, b))
    index = sum(comb(n, 2) for n in pairs.values())
    sum_a = sum(comb(n, 2) for n in Counter(a).values())
    sum_b = sum(comb(n, 2) for n in Counter(b).values())
    expected = sum_a * sum_b / comb(len(a), 2)
    top = (sum_a + sum_b) / 2
    return 1.0 if top == expected else (index - expected) / (top - expected)


def check_cluster(run_dir: Path, corpus: dict, k: int, window: int,
                  stride: int) -> tuple[list[str], dict]:
    """The cluster report is a k-way partition at a k-means fixed point.

    Subject summaries (mean statistical vector over the subject's windows) are
    recomputed here. Each centroid must be the mean of its members' summaries
    and each subject must sit nearest its own centroid.
    """
    report = json.loads((run_dir / "cluster_report.json").read_text(encoding="utf-8"))
    members = report["members"]
    problems = []
    if len(members) != k or not all(members):
        problems.append(f"{len(members)} clusters with sizes {[len(m) for m in members]}, "
                        f"expected {k} non-empty")
    flat = [s for m in members for s in m]
    if sorted(flat) != sorted(corpus):
        problems.append("clusters do not partition the subjects")
        return [f"{run_dir.name}: {p}" for p in problems], {}
    assignment = {s: c for c, m in enumerate(members) for s in m}
    summary = {s: statistical_vectors(np.asarray(corpus[s]["bpm"]), window, stride).mean(axis=0)
               for s in corpus}
    centroids = np.asarray(report["centroids"], dtype=np.float64)
    for c, m in enumerate(members):
        mean = np.mean([summary[s] for s in m], axis=0)
        if not np.allclose(centroids[c], mean, rtol=1e-6, atol=1e-6):
            problems.append(f"centroid {c} is not the mean of its members")
    for s, vec in summary.items():
        nearest = int(((centroids - vec) ** 2).sum(axis=1).argmin())
        if nearest != assignment[s]:
            problems.append(f"{s} is in cluster {assignment[s]} but nearest centroid {nearest}")
    return [f"{run_dir.name}: {p}" for p in problems], assignment


def group_agreement(assignment: dict, groups_path: Path) -> float:
    """Adjusted Rand index of the clusters against the generator's latent groups."""
    groups = json.loads(groups_path.read_text(encoding="utf-8"))["groups"]
    ids = sorted(assignment)
    return adjusted_rand_index([assignment[s] for s in ids], [groups[s] for s in ids])
