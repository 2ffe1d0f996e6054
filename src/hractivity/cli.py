"""Command-line front end: reproducible experiment runs over the pipeline.

Every command writes its artifacts into ``<out>/<run-id>/`` where the run id
hashes the effective config plus the command name.  Artifacts land in a
temporary sibling directory first and are renamed into place only after the
manifest is written, so an interrupted run leaves no partial output behind.
Nothing here reads the network and no artifact embeds a timestamp: rerunning
the same config and seed reproduces every byte.
"""

from __future__ import annotations

import argparse
import hashlib
import shutil
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .artifacts import write_csv, write_json
from .clustering import fit_cluster_model, subject_summaries, write_cluster_report
from .errors import ConfigError, DataError, HrActivityError, TooFewVectors
from .evaluation import (
    TRANSITION_HORIZON_S,
    SplitKind,
    build_dataset,
    check_window_size,
    cross_cluster_eval,
    fit_classifier,
    mean_fold_balanced,
    misclassification_timeline,
    permutation_importance,
    routed_eval,
    run_split,
    run_sweep,
    subject_segments,
    transition_error_rates,
    within_cluster_loso,
    write_importance_csv,
    write_timeline_csv,
)
from .ingest import parse_corpus, resample_uniform, serialize_corpus, write_gap_report
from .metrics import write_confusion_csv, write_fold_csv, write_report_json
from .series import LABEL_NAMES
from .synthetic import generate_synthetic

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _load_series(cfg) -> tuple[list, list]:
    """The configured corpus, plus the gap records of its resampling."""
    if cfg.source == "synthetic":
        series, _ = generate_synthetic(cfgmod.cohort_spec(cfg))
        return series, []
    series = parse_corpus(cfg.source, cfg.device_filter or None)
    if not series:
        raise DataError(f"no series found under {cfg.source} "
                        f"(device filter: {cfg.device_filter or 'off'})")
    if cfg.resample_period_s <= 0:
        return series, []
    resampled = [resample_uniform(s, cfg.resample_period_s) for s in series]
    return [r for r, _ in resampled], [g for _, gaps in resampled for g in gaps]


def _fit_on_all(cfg, ds):
    return fit_classifier(cfgmod.model_spec(cfg), ds, np.arange(len(ds)), cfg.seed)


def _report_artifacts(report, run_dir: Path, stem: str = "eval_report") -> None:
    write_report_json(report, run_dir / f"{stem}.json")
    write_fold_csv(report, run_dir / f"{stem.replace('report', 'folds')}.csv")
    write_confusion_csv(report.confusion, run_dir / f"{stem.replace('report', 'confusion')}.csv")


# ------------------------------------------------------------------ commands

def cmd_generate(cfg, run_dir: Path) -> None:
    series, groups = generate_synthetic(cfgmod.cohort_spec(cfg))
    corpus_dir = run_dir / "corpus"
    serialize_corpus(series, corpus_dir)
    write_json({"schema": "group_map.v1", "groups": groups}, run_dir / "groups.json")


def cmd_ingest(cfg, run_dir: Path) -> None:
    series, gaps = _load_series(cfg)
    if cfg.resample_period_s > 0:
        write_gap_report(gaps, run_dir / "gap_report.csv")
    summary = []
    for s in series:
        counts = np.bincount(s.labels, minlength=len(LABEL_NAMES))
        summary.append({
            "subject_id": s.subject_id,
            "device_id": s.device_id,
            "samples": len(s),
            "duration_s": float(s.timestamps[-1] - s.timestamps[0]),
            "labels": {name: int(c) for name, c in zip(LABEL_NAMES, counts)},
        })
    write_json({"schema": "corpus_summary.v1", "subjects": summary},
               run_dir / "corpus_summary.json")


def cmd_sweep(cfg, run_dir: Path) -> None:
    series, _ = _load_series(cfg)
    reports = run_sweep(series, cfgmod.dataset_spec(cfg), list(cfg.window_sizes),
                        list(cfg.strides), cfgmod.split_plan(cfg), cfgmod.model_spec(cfg),
                        cfg.seed, cfg.workers)
    rows = []
    for (w, s), report in sorted(reports.items()):
        write_report_json(report, run_dir / f"report_w{w}_s{s}.json")
        rows.append((w, s, repr(report.accuracy), repr(report.balanced_accuracy)))
    write_csv(run_dir / "sweep_summary.csv",
              ["window_size", "stride", "accuracy", "balanced_accuracy"], rows)


def _windowless(series, window) -> str:
    """'; subject ... has N samples, fewer than window_size W' for each subject
    none of whose series fills one window, or '' when there is none."""
    lengths: dict[str, list[int]] = {}
    for s in series:
        lengths.setdefault(s.subject_id, []).append(len(s))
    w = window.window_size
    return "".join(
        f"; subject {sid!r} has {'series of ' if len(n) > 1 else ''}"
        f"{' and '.join(map(str, n))} samples, fewer than window_size {w}"
        for sid, n in sorted(lengths.items()) if max(n) < w)


def _cluster_subjects(cfg, series):
    """(model, assignment) of the configured clustering of the corpus's subjects."""
    # one subject's windows at a time, and no feature matrix: a subject's
    # summary is all that clustering keeps
    data = cfgmod.dataset_spec(cfg)
    check_window_size(series, data.window.window_size)
    try:
        ids, summaries = subject_summaries(subject_segments(series, data), cfg.space)
        return fit_cluster_model(ids, summaries, cfg.space, cfg.k, cfg.seed,
                                 restarts=cfg.restarts)
    except TooFewVectors as exc:
        raise TooFewVectors(f"{exc}{_windowless(series, data.window)}") from None


def cmd_cluster(cfg, run_dir: Path) -> None:
    series, _ = _load_series(cfg)
    model, assignment = _cluster_subjects(cfg, series)
    write_cluster_report(model, assignment, run_dir / "cluster_report.json")


def cmd_train(cfg, run_dir: Path) -> None:
    series, _ = _load_series(cfg)
    ds = build_dataset(series, cfgmod.dataset_spec(cfg))
    clf = _fit_on_all(cfg, ds)
    clf.save(run_dir / "model.json")
    echo = {
        "schema": "train_echo.v1",
        "classifier": cfgmod.model_spec(cfg).echo(),
        "dataset": {
            "n_windows": len(ds),
            "window_size": ds.spec.window.window_size,
            "stride": ds.spec.window.stride,
            "standardization": ds.spec.standardization.value,
            "feature_kind": ds.spec.features.value if ds.spec.features else None,
            "subjects": list(ds.subject_ids),
        },
        "feature_scaler": None if clf.scaler is None else {
            "mean": [float(x) for x in clf.scaler.mean],
            "std": [float(x) for x in clf.scaler.std],
        },
    }
    write_json(echo, run_dir / "train_echo.json")


def cmd_eval(cfg, run_dir: Path) -> None:
    series, _ = _load_series(cfg)
    ds = build_dataset(series, cfgmod.dataset_spec(cfg))
    spec = cfgmod.model_spec(cfg)
    if cfg.routing is not None:
        report = routed_eval(ds, cfg.k, cfg.routing, cfg.space, spec, cfg.seed,
                             cfg.workers, cfg.restarts)
    elif cfg.split_kind in (SplitKind.WITHIN_CLUSTER_LOSO, SplitKind.CROSS_CLUSTER):
        _, assignment = _cluster_subjects(cfg, series)
        if cfg.split_kind is SplitKind.CROSS_CLUSTER:
            report = cross_cluster_eval(ds, assignment, cfg.train_cluster,
                                        cfg.test_cluster, spec, cfg.seed)
        else:
            result = within_cluster_loso(ds, assignment, spec, cfg.seed, cfg.workers)
            for cluster, report in sorted(result.clusters.items()):
                _report_artifacts(report, run_dir, stem=f"cluster_{cluster}_report")
            _report_artifacts(result.baseline, run_dir, stem="baseline_report")
            write_json({
                "schema": "within_cluster_summary.v1",
                "clusters": {str(c): {"mean_fold_balanced": mean_fold_balanced(r),
                                      "balanced_accuracy": r.balanced_accuracy}
                             for c, r in sorted(result.clusters.items())},
                "baseline_balanced_accuracy": result.baseline.balanced_accuracy,
                "warnings": list(result.warnings),
            }, run_dir / "within_cluster_summary.json")
            return
    else:
        report = run_split(ds, cfgmod.split_plan(cfg), spec, cfg.seed, cfg.workers)
    _report_artifacts(report, run_dir)


def cmd_importance(cfg, run_dir: Path) -> None:
    series, _ = _load_series(cfg)
    ds = build_dataset(series, cfgmod.dataset_spec(cfg))
    clf = _fit_on_all(cfg, ds)
    report = permutation_importance(clf, ds.windows, ds.hc, ds.labels,
                                    hc_names=ds.spec.feature_names, repeats=cfg.repeats,
                                    seed=cfg.seed)
    write_importance_csv(report, run_dir / "importance.csv",
                         top=cfg.top or None)
    write_json({
        "schema": "importance_report.v1",
        "baseline_balanced": report.baseline_balanced,
        "repeats": cfg.repeats,
        "names": list(report.names),
        "importances": [float(x) for x in report.importances],
    }, run_dir / "importance.json")


def cmd_timeline(cfg, run_dir: Path) -> None:
    series, _ = _load_series(cfg)
    target_id = cfg.timeline_subject or min(s.subject_id for s in series)
    target = [s for s in series if s.subject_id == target_id]
    if not target:
        raise ConfigError(f"timeline.subject {target_id!r} not in the corpus")
    if len(target) > 1:
        devices = " and ".join(repr(s.device_id) for s in target)
        raise DataError(f"timeline subject {target_id!r} was recorded by devices {devices}; "
                        f"a timeline follows one series, so set corpus.device_filter to one device")
    data = cfgmod.dataset_spec(cfg)
    if len(target[0]) < data.window.window_size:
        raise DataError(f"timeline subject {target_id!r} has {len(target[0])} samples, "
                        f"fewer than windows.window_size {data.window.window_size}")
    others = [s for s in series if s.subject_id != target_id]
    if not others:
        raise DataError("timeline needs at least two subjects (one to hold out)")
    ds = build_dataset(others, data)
    clf = _fit_on_all(cfg, ds)
    record = misclassification_timeline(clf, target[0], ds.spec)
    write_timeline_csv(record, run_dir / "timeline.csv")
    post, steady = transition_error_rates(record)
    write_json({
        "schema": "transition_rates.v1",
        "subject_id": target_id,
        "horizon_s": TRANSITION_HORIZON_S,
        "post_transition_error_rate": post,
        "steady_state_error_rate": steady,
    }, run_dir / "transition_rates.json")


_COMMANDS = {
    "generate": (cmd_generate, "write a synthetic corpus as CSV files plus a group map"),
    "ingest": (cmd_ingest, "parse and summarize a corpus, optionally resampling it"),
    "sweep": (cmd_sweep, "evaluate every (window size, stride) grid cell"),
    "cluster": (cmd_cluster, "fit subject clusters and write the cluster report"),
    "train": (cmd_train, "fit one classifier on the whole corpus and save it"),
    "eval": (cmd_eval, "run the configured split and write evaluation reports"),
    "importance": (cmd_importance, "rank input dimensions by permutation importance"),
    "timeline": (cmd_timeline, "per-second predictions for one held-out subject"),
}


def _run_command(command: str, cfg) -> Path:
    """Execute one command inside a temp dir, then rename it into place."""
    cfgmod.check_protocol(cfg, command)
    run_id = cfgmod.run_id_for(cfg, command)
    out_root = Path(cfg.out)
    out_root.mkdir(parents=True, exist_ok=True)
    final_dir = out_root / run_id
    tmp_dir = out_root / f".tmp-{run_id}"
    if tmp_dir.exists():
        shutil.rmtree(tmp_dir)
    tmp_dir.mkdir()
    try:
        _COMMANDS[command][0](cfg, tmp_dir)
        artifacts = {}
        for path in sorted(tmp_dir.rglob("*")):
            if path.is_file():
                artifacts[path.relative_to(tmp_dir).as_posix()] = _sha256(path)
        write_json({
            "schema": "run_manifest.v1",
            "command": command,
            "run_id": run_id,
            "seed": cfg.seed,
            "config": dict(cfgmod.config_items(cfg)),
            "artifacts": artifacts,
        }, tmp_dir / "manifest.json")
    except BaseException:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        raise
    if final_dir.exists():
        shutil.rmtree(final_dir)
    tmp_dir.rename(final_dir)
    return final_dir


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hractivity",
        description="Heart-rate activity classification toolkit",
    )
    parser.add_argument("--config", help="INI config file; flags override its values")
    parser.add_argument("--seed", type=int, help="global random seed (mandatory)")
    parser.add_argument("--out", help="output directory for run folders")
    parser.add_argument("--workers", type=int, help="parallel fold workers")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, desc) in _COMMANDS.items():
        p = sub.add_parser(name, help=desc, description=desc)
        if name == "generate":
            p.add_argument("--subjects", type=int, help="number of synthetic subjects")
            p.add_argument("--groups", type=int, help="number of latent groups")
    return parser


def main(argv: list[str] | None = None) -> int:
    # every flag's dest is the config field it overrides
    overrides = vars(build_parser().parse_args(argv))
    path, command = overrides.pop("config"), overrides.pop("command")
    try:
        cfg = cfgmod.load_config(path, overrides)
        run_dir = _run_command(command, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except HrActivityError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    print(run_dir)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
