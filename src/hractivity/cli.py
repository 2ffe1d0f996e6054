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
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .clustering import fit_cluster_model, write_cluster_report
from .errors import ConfigError, DataError, HrActivityError, InternalError
from .evaluation import (
    ConstantPredictor,
    FittedNet,
    FittedSvm,
    SplitKind,
    build_dataset,
    classifier_echo,
    cross_cluster_eval,
    fit_classifier,
    mean_fold_balanced,
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
from .ingest import parse_corpus, resample_uniform, serialize_corpus, write_gap_report
from .metrics import write_confusion_csv, write_fold_csv, write_report_json
from .neuralnet import save_net
from .series import LABEL_NAMES
from .svm import save_ovo
from .synthetic import generate_synthetic

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


def _write_json(payload: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _load_series(cfg) -> list:
    if cfg.source == "synthetic":
        series, _ = generate_synthetic(cfgmod.cohort_spec(cfg))
        return series
    series = parse_corpus(cfg.source, cfgmod.csv_schema(cfg))
    if not series:
        raise DataError(f"no series found under {cfg.source} "
                        f"(device filter: {cfg.device_filter or 'off'})")
    if cfg.resample_period_s > 0:
        series = [resample_uniform(s, cfg.resample_period_s)[0] for s in series]
    return series


def _build_dataset(cfg, series):
    return build_dataset(series, cfgmod.window_config(cfg), cfg.standardization,
                         cfg.feature_kind, cfgmod.mfcc_config(cfg))


def _fit_on_all(cfg, ds, seed):
    return fit_classifier(cfgmod.model_spec(cfg), ds, np.arange(len(ds)), seed)


def _report_artifacts(report, run_dir: Path, stem: str = "eval_report") -> None:
    write_report_json(report, run_dir / f"{stem}.json")
    write_fold_csv(report, run_dir / f"{stem.replace('report', 'folds')}.csv")
    write_confusion_csv(report.confusion, run_dir / f"{stem.replace('report', 'confusion')}.csv")


# ------------------------------------------------------------------ commands

def cmd_generate(cfg, run_dir: Path) -> None:
    series, groups = generate_synthetic(cfgmod.cohort_spec(cfg))
    corpus_dir = run_dir / "corpus"
    serialize_corpus(series, corpus_dir)
    _write_json({"schema": "group_map.v1", "groups": groups}, run_dir / "groups.json")


def cmd_ingest(cfg, run_dir: Path) -> None:
    if cfg.source == "synthetic":
        raise ConfigError("ingest needs corpus.source to point at CSV files")
    series = parse_corpus(cfg.source, cfgmod.csv_schema(cfg))
    if not series:
        raise DataError(f"no series found under {cfg.source} "
                        f"(device filter: {cfg.device_filter or 'off'})")
    gaps = []
    if cfg.resample_period_s > 0:
        resampled = []
        for s in series:
            r, g = resample_uniform(s, cfg.resample_period_s)
            resampled.append(r)
            gaps.extend(g)
        series = resampled
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
    _write_json({"schema": "corpus_summary.v1", "subjects": summary},
                run_dir / "corpus_summary.json")


def cmd_sweep(cfg, run_dir: Path) -> None:
    series = _load_series(cfg)
    seed = cfg.require_seed()
    reports = run_sweep(series, list(cfg.window_sizes), list(cfg.strides),
                        cfgmod.split_plan(cfg), cfgmod.model_spec(cfg),
                        cfg.standardization, cfg.feature_kind, seed,
                        cfg.workers, cfgmod.mfcc_config(cfg))
    rows = []
    for (w, s), report in sorted(reports.items()):
        write_report_json(report, run_dir / f"report_w{w}_s{s}.json")
        rows.append((w, s, report.accuracy, report.balanced_accuracy))
    with open(run_dir / "sweep_summary.csv", "w", encoding="utf-8", newline="") as handle:
        handle.write("window_size,stride,accuracy,balanced_accuracy\n")
        for w, s, acc, bal in rows:
            handle.write(f"{w},{s},{acc!r},{bal!r}\n")


def cmd_cluster(cfg, run_dir: Path) -> None:
    series = _load_series(cfg)
    # clustering reads only the windows, so no feature matrix is built
    ds = build_dataset(series, cfgmod.window_config(cfg), cfg.standardization)
    model, assignment = fit_cluster_model(list(ds.window_objs), cfg.space, cfg.k,
                                          cfg.require_seed(), restarts=cfg.restarts)
    write_cluster_report(model, assignment, run_dir / "cluster_report.json")


def cmd_train(cfg, run_dir: Path) -> None:
    series = _load_series(cfg)
    ds = _build_dataset(cfg, series)
    seed = cfg.require_seed()
    clf = _fit_on_all(cfg, ds, seed)
    if isinstance(clf, FittedSvm):
        save_ovo(clf.model, run_dir / "model.json")
    elif isinstance(clf, FittedNet):
        save_net(clf.model, run_dir / "model.json")
    elif isinstance(clf, ConstantPredictor):
        _write_json({"schema": "constant_model.v1", "label": clf.label},
                    run_dir / "model.json")
    else:  # pragma: no cover - the adapters above are exhaustive
        raise InternalError(f"unknown classifier type {type(clf).__name__}")
    scaler = getattr(clf, "scaler", None)
    echo = {
        "schema": "train_echo.v1",
        "classifier": classifier_echo(cfgmod.model_spec(cfg)),
        "dataset": {
            "n_windows": len(ds),
            "window_size": ds.window_size,
            "stride": ds.stride,
            "standardization": ds.standardization.value,
            "feature_kind": ds.feature_kind.value if ds.feature_kind else None,
            "subjects": sorted(set(ds.subjects)),
        },
        "feature_scaler": None if scaler is None else {
            "mean": [float(x) for x in scaler.mean],
            "std": [float(x) for x in scaler.std],
        },
    }
    _write_json(echo, run_dir / "train_echo.json")


def cmd_eval(cfg, run_dir: Path) -> None:
    series = _load_series(cfg)
    ds = _build_dataset(cfg, series)
    seed = cfg.require_seed()
    spec = cfgmod.model_spec(cfg)
    if cfg.routing is not None:
        report = routed_eval(ds, cfg.k, cfg.routing, cfg.space, spec, seed,
                             cfg.workers, cfg.restarts)
        _report_artifacts(report, run_dir)
        return
    if cfg.split_kind is SplitKind.WITHIN_CLUSTER_LOSO:
        _, assignment = fit_cluster_model(list(ds.window_objs), cfg.space, cfg.k,
                                          seed, restarts=cfg.restarts)
        result = within_cluster_loso(ds, assignment, spec, seed, cfg.workers)
        for cluster, report in sorted(result.clusters.items()):
            _report_artifacts(report, run_dir, stem=f"cluster_{cluster}_report")
        _report_artifacts(result.baseline, run_dir, stem="baseline_report")
        _write_json({
            "schema": "within_cluster_summary.v1",
            "clusters": {str(c): {"mean_fold_balanced": mean_fold_balanced(r),
                                  "balanced_accuracy": r.balanced_accuracy}
                         for c, r in sorted(result.clusters.items())},
            "baseline_balanced_accuracy": result.baseline.balanced_accuracy,
            "warnings": list(result.warnings),
        }, run_dir / "within_cluster_summary.json")
        return
    if cfg.split_kind is SplitKind.CROSS_CLUSTER:
        _, assignment = fit_cluster_model(list(ds.window_objs), cfg.space, cfg.k,
                                          seed, restarts=cfg.restarts)
        report = cross_cluster_eval(ds, assignment, cfg.train_cluster,
                                    cfg.test_cluster, spec, seed)
    else:
        report = run_split(ds, cfgmod.split_plan(cfg), spec, seed, cfg.workers)
    _report_artifacts(report, run_dir)


def cmd_importance(cfg, run_dir: Path) -> None:
    series = _load_series(cfg)
    ds = _build_dataset(cfg, series)
    seed = cfg.require_seed()
    clf = _fit_on_all(cfg, ds, seed)
    report = permutation_importance(clf, ds.windows, ds.hc, ds.labels,
                                    hc_names=ds.hc_names, repeats=cfg.repeats,
                                    seed=seed)
    write_importance_csv(report, run_dir / "importance.csv",
                         top=cfg.top or None)
    _write_json({
        "schema": "importance_report.v1",
        "baseline_balanced": report.baseline_balanced,
        "repeats": report.repeats,
        "names": list(report.names),
        "importances": [float(x) for x in report.importances],
    }, run_dir / "importance.json")


def cmd_timeline(cfg, run_dir: Path) -> None:
    series = _load_series(cfg)
    seed = cfg.require_seed()
    by_id = {s.subject_id: s for s in series}
    target_id = cfg.timeline_subject or sorted(by_id)[0]
    if target_id not in by_id:
        raise ConfigError(f"timeline.subject {target_id!r} not in the corpus")
    others = [s for s in series if s.subject_id != target_id]
    if not others:
        raise DataError("timeline needs at least two subjects (one to hold out)")
    ds = _build_dataset(cfg, others)
    clf = fit_classifier(cfgmod.model_spec(cfg), ds, np.arange(len(ds)), seed)
    record = misclassification_timeline(clf, by_id[target_id],
                                        cfgmod.window_config(cfg),
                                        cfg.standardization, cfg.feature_kind,
                                        cfgmod.mfcc_config(cfg))
    write_timeline_csv(record, run_dir / "timeline.csv")
    post, steady = transition_error_rates(record)
    _write_json({
        "schema": "transition_rates.v1",
        "subject_id": target_id,
        "horizon_s": 60.0,
        "post_transition_error_rate": post,
        "steady_state_error_rate": steady,
    }, run_dir / "transition_rates.json")


_COMMANDS = {
    "generate": cmd_generate,
    "ingest": cmd_ingest,
    "sweep": cmd_sweep,
    "cluster": cmd_cluster,
    "train": cmd_train,
    "eval": cmd_eval,
    "importance": cmd_importance,
    "timeline": cmd_timeline,
}


def _run_command(command: str, cfg) -> Path:
    """Execute one command inside a temp dir, then rename it into place."""
    cfg.require_seed()
    run_id = cfgmod.run_id_for(cfg, command)
    out_root = Path(cfg.out)
    out_root.mkdir(parents=True, exist_ok=True)
    final_dir = out_root / run_id
    tmp_dir = out_root / f".tmp-{run_id}"
    if tmp_dir.exists():
        shutil.rmtree(tmp_dir)
    tmp_dir.mkdir()
    try:
        _COMMANDS[command](cfg, tmp_dir)
        artifacts = {}
        for path in sorted(tmp_dir.rglob("*")):
            if path.is_file():
                artifacts[path.relative_to(tmp_dir).as_posix()] = _sha256(path)
        _write_json({
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

    descriptions = {
        "generate": "write a synthetic corpus as CSV files plus a group map",
        "ingest": "parse and summarize a corpus, optionally resampling it",
        "sweep": "evaluate every (window size, stride) grid cell",
        "cluster": "fit subject clusters and write the cluster report",
        "train": "fit one classifier on the whole corpus and save it",
        "eval": "run the configured split and write evaluation reports",
        "importance": "rank input dimensions by permutation importance",
        "timeline": "per-second predictions for one held-out subject",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, help=desc, description=desc)
        if name == "generate":
            p.add_argument("--subjects", type=int, help="number of synthetic subjects")
            p.add_argument("--groups", type=int, help="number of latent groups")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "seed": args.seed,
        "out": args.out,
        "workers": args.workers,
        "subjects": getattr(args, "subjects", None),
        "groups": getattr(args, "groups", None),
    }
    try:
        cfg = cfgmod.load_config(args.config, overrides)
        run_dir = _run_command(args.command, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (InternalError, HrActivityError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    print(run_dir)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
