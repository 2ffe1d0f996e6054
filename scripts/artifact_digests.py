"""Run a fixed set of CLI commands and print each run's id and artifact digests.

A refactor that must not change any output is checked by running this script
against the source tree before and after the change and comparing the two
JSON files byte for byte:

    python3 scripts/artifact_digests.py --src OLD/src --workers 1 > before.json
    python3 scripts/artifact_digests.py --src src --workers 1 > after.json
    cmp before.json after.json

The ``--workers 1`` output of the current tree is checked in next to this
script as ``artifact_digests.json``, so a refactor can ``cmp`` against it
without rebuilding the old tree.

The runs cover `generate`, `ingest` (resampled), `cluster` in every space,
every `eval` protocol (leave-subject-out, random-window, within-cluster,
cross-cluster, routed per subject and per window, and a Model1 net), an
`eval` on base + MFCC features fed with the windows, a 2x2
`sweep`, `importance`, `timeline` and `train`, all on one generated
6-subject cohort. Every path written into a config is relative to a fresh
working directory, so run ids do not depend on where the script runs.
Only the stdlib and the hractivity package under ``--src`` are imported.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

BASE = """\
[corpus]
source = {corpus}
device_filter = synthetic
[windows]
window_size = 50
stride = 30
window_sizes = 50 80
strides = 30 60
[model]
kind = svm
inputs = features
[run]
seed = 5
out = runs
"""

# run name -> (command, config lines appended to BASE)
RUNS = {
    "ingest": ("ingest", "[corpus]\nresample_period_s = 1.0\n"),
    "cluster-statistical_window": ("cluster", "[clustering]\nspace = statistical_window\nk = 2\n"),
    "cluster-temporal_window": ("cluster", "[clustering]\nspace = temporal_window\nk = 2\n"),
    "cluster-mean_bpm_profile": ("cluster", "[clustering]\nspace = mean_bpm_profile\nk = 2\n"),
    "eval-loso": ("eval", ""),
    "eval-random_window": ("eval", "[split]\nkind = random_window\n"),
    "eval-within_cluster_loso": ("eval", "[clustering]\nk = 2\n[split]\nkind = within_cluster_loso\n"),
    "eval-cross_cluster": ("eval", "[clustering]\nk = 2\n[split]\nkind = cross_cluster\n"),
    "eval-routed-per_subject": ("eval", "[standardization]\nmode = feature\n"
                                        "[clustering]\nk = 2\nrouting = per_subject\n"),
    "eval-routed-per_window": ("eval", "[standardization]\nmode = feature\n"
                                       "[clustering]\nk = 2\nrouting = per_window\n"),
    "eval-net-model1": ("eval", "[model]\nkind = net\narch = model1\nepochs = 2\n"),
    "eval-base_mfcc": ("eval", "[features]\nkind = base_mfcc\n[model]\ninputs = both\n"),
    "sweep": ("sweep", ""),
    "importance": ("importance", ""),
    "timeline": ("timeline", ""),
    "train": ("train", ""),
}


def _write_config(path: Path, corpus: str, extra: str) -> None:
    """BASE with the extra keys added to, or overriding, its sections."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(BASE.format(corpus=corpus))
    parser.read_string(extra)
    with open(path, "w", encoding="utf-8") as handle:
        parser.write(handle)


def _run(main, argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"hractivity {' '.join(argv)} exited {rc}")
    manifest_path = Path(out.getvalue().strip()) / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    return {"run_id": manifest["run_id"], "artifacts": manifest["artifacts"]}


def collect(workers: int) -> dict:
    from hractivity.cli import main

    results = {}
    results["generate"] = _run(main, ["--seed", "5", "--out", "gen", "generate",
                                      "--subjects", "6", "--groups", "2"])
    corpus = f"gen/{results['generate']['run_id']}/corpus"
    for name, (command, extra) in RUNS.items():
        ini = Path(f"{name}.ini")
        _write_config(ini, corpus, extra)
        results[name] = _run(main, ["--config", str(ini), "--workers", str(workers), command])
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True,
                        help="directory that holds the hractivity package to run")
    parser.add_argument("--workers", type=int, default=1, help="fold workers per run")
    parser.add_argument("--output", help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    if not (src / "hractivity" / "__init__.py").is_file():
        parser.error(f"no hractivity package under {src}")
    sys.path.insert(0, str(src))
    here = Path.cwd()
    with tempfile.TemporaryDirectory(prefix="artifact-digests-") as work:
        os.chdir(work)
        try:
            results = collect(args.workers)
        finally:
            os.chdir(here)
    text = json.dumps(results, indent=2, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
