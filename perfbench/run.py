"""hractivity benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload loso-svm --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload in turn
    python3 perfbench/run.py --workload loso-svm --seed 1 --record .perfbench/a.jsonl
    python3 perfbench/run.py --compare .perfbench/a.jsonl .perfbench/b.jsonl

Each round is a fresh worker process (perfbench/worker.py) that imports
hractivity from ./src. Rounds repeat until --seconds have passed. The last
line of standard output is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
from workloads import GROUPS, WINDOW_SIZE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROUND_TIMEOUT_S = 120

#: One BLAS thread: the program runs one worker, and an idle second BLAS
#: thread's spin-wait would otherwise be counted as CPU time.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class Round:
    """One worker process: its measurements, and the problems the checks found."""

    def __init__(self, result: dict, traced: bool):
        self.result = result
        self.traced = traced
        self.failed = 0
        self.problems: list[str] = []  # failed output checks
        self.errors: list[str] = []  # commands that exited non-zero
        self.balanced: list[float] = []
        self.agreement: list[float] = []


def _spawn(workload, seed: int, traced: bool, work: Path, root: Path) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    job = {"workload": workload.name, "seed": seed, "trace": traced, "src": str(root / "src")}
    (work / "job.json").write_text(json.dumps(job), encoding="utf-8")
    env = {**os.environ, **THREAD_ENV}
    spawned = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "job.json", "result.json"],
                          cwd=work, env=env, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    result["setup_wall_s"] = result.pop("ready_wall") - spawned
    return result


def _check_round(workload, rnd: Round, work: Path, first: dict, corpora: dict) -> None:
    """Check every command's output. A command fails when it exits non-zero, when
    a check on its output fails, or when its cohort's set-up failed.

    `first` holds each command's first manifest digests and `corpora` each
    cohort's corpus, both kept across the rounds of a run."""
    setup_failed = {op["cohort"] for op in rnd.result["setup"]
                    if not _check_op(workload, op, rnd, work, first, corpora)}
    for op in rnd.result["commands"]:
        if not _check_op(workload, op, rnd, work, first, corpora) or op["cohort"] in setup_failed:
            rnd.failed += 1


def _check_op(workload, op: dict, rnd: Round, work: Path, first: dict, corpora: dict) -> bool:
    """False when the command failed. Check failures also go to rnd.problems."""
    if op["exit"] != 0:
        rnd.errors.append(f"{' '.join(op['argv'])}: exit {op['exit']} {op.get('error', '')}")
        return False
    run_dir = work / op["run_dir"]
    key = f"cohort {op['cohort']} {op['command']}"
    problems = checks.check_manifest(run_dir)
    digests = checks.manifest_digests(run_dir)
    if key in first:  # later rounds must reproduce the first round's bytes
        problems += checks.check_same_digests(first[key], digests, key)
    else:
        first[key] = digests
        problems += _check_content(workload, op, run_dir, rnd, corpora)
    rnd.problems += problems
    return not problems


def _check_content(workload, op: dict, run_dir: Path, rnd: Round, corpora: dict) -> list[str]:
    cohort, command = op["cohort"], op["command"]
    if command == "generate":
        corpora[cohort] = (checks.read_corpus(run_dir / "corpus"), run_dir / "groups.json")
        return checks.check_generate(run_dir, workload.subjects)
    corpus, groups = corpora[cohort]
    if command == "eval":
        problems, balanced = checks.check_eval(run_dir, corpus, WINDOW_SIZE, workload.stride)
        rnd.balanced.append(balanced)
        return problems
    if command == "ingest":
        return checks.check_ingest(run_dir, corpus)
    if command == "cluster":
        problems, assignment = checks.check_cluster(run_dir, corpus, GROUPS, WINDOW_SIZE,
                                                    workload.stride)
        if assignment:
            rnd.agreement.append(checks.group_agreement(assignment, groups))
        return problems
    return [f"no check for command {command}"]


def measure(workload, seed: int, seconds: float, trace: bool, root: Path) -> list[Round]:
    """Rounds until `seconds` have passed; traced runs alternate plain and traced rounds."""
    work = root / ".perfbench" / "work" / workload.name
    rounds: list[Round] = []
    first: dict = {}
    corpora: dict = {}
    started = time.perf_counter()
    try:
        while True:
            traced = trace and len(rounds) % 2 == 1
            rnd = Round(_spawn(workload, seed, traced, work, root), traced)
            _check_round(workload, rnd, work, first, corpora)
            rounds.append(rnd)
            if time.perf_counter() - started >= seconds and (not trace or len(rounds) >= 2):
                return rounds
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _mean(values):
    """Mean over rounds. The host's CPU speed flips between two levels for
    seconds at a time; a median then jumps between them, a mean does not."""
    return statistics.fmean(values) if values else 0.0


def summarize(workload, rounds: list[Round], trace: bool, spec: dict) -> tuple[dict, list[str]]:
    """The result object for the metrics BENCHMARK.json lists, and the lines to print."""
    plain = [r.result for r in rounds if not r.traced]
    values = {
        "setup_s": _mean([r["setup_cpu_s"] for r in plain]),
        "run_s": _mean([r["run_cpu_s"] for r in plain]),
        "peak_rss_mb": _mean([r["peak_rss_mb"] for r in plain]),
    }
    if trace:
        traced = [r.result for r in rounds if r.traced]
        layers = [tracing.layer_metrics(r["spans"]) for r in traced]
        values.update({name: _mean([layer[name] for layer in layers]) for name in layers[0]})
        values["trace.overhead_s"] = _mean([r["run_cpu_s"] for r in traced]) - values["run_s"]

    attempted = workload.operations_per_round * len(rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    lines = [f"{workload.name}: {len(rounds)} rounds, {attempted} operations attempted, "
             f"{failed} failed"]
    listed = spec["end_to_end"] + (spec["per_layer"] if trace else [])
    lines += [f"  {m['name']:<34} {values[m['name']]:14.4f} {m['unit']}" for m in listed]
    lines.append("  run_s per round " + " ".join(f"{r['run_cpu_s']:.3f}" for r in plain))
    lines.append(f"  wall clock, not gated: run {_mean([r['run_wall_s'] for r in plain]):.4f} s, "
                 f"setup {_mean([r['setup_wall_s'] for r in plain]):.4f} s")
    if rounds[0].balanced:
        lines.append("  balanced_accuracy " + " ".join(f"{b:.4f}" for b in rounds[0].balanced))
    if rounds[0].agreement:
        lines.append("  latent-group ARI " + " ".join(f"{a:.4f}" for a in rounds[0].agreement))
    lines += [f"  CHECK FAILED {p}" for p in problems[:20]]
    lines += [f"  COMMAND FAILED {e.strip()}" for r in rounds for e in r.errors][:5]

    reported = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}, lines


# ------------------------------------------------------------------ compare


def _quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _load(path: Path) -> dict[str, list[dict]]:
    """Untraced records of a --record file, by workload."""
    records: dict[str, list[dict]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        if not rec["trace"]:
            records.setdefault(rec["workload"], []).append(rec)
    return records


def summary(path: Path, spec: dict) -> list[str]:
    """Median and quartile spread of each end-to-end metric, and the median balanced accuracy."""
    lines = []
    for workload, recs in sorted(_load(path).items()):
        parts = []
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in recs]
            parts.append(f"{metric['name']} {statistics.median(values):.4f} {metric['unit']} "
                         f"(spread {_quartile_spread(values):.3f})")
        balanced = [statistics.mean(r["balanced_accuracy"]) for r in recs
                    if r.get("balanced_accuracy")]
        if balanced:
            parts.append(f"balanced accuracy {statistics.median(balanced):.4f}")
        failed = sum(r["result"]["failed"] for r in recs)
        attempted = sum(r["result"]["attempted"] for r in recs)
        lines.append(f"{workload}: {len(recs)} runs, {failed}/{attempted} failed; "
                     + "; ".join(parts))
    return lines


def compare(path_a: Path, path_b: Path, spec: dict) -> tuple[bool, list[str]]:
    """Does set B stay within each end-to-end metric's bound of set A, per workload?"""
    sets = [{w: [r["result"] for r in recs] for w, recs in _load(p).items()}
            for p in (path_a, path_b)]
    ok, lines = True, []
    for workload in sorted(set(sets[0]) | set(sets[1])):
        a, b = sets[0].get(workload, []), sets[1].get(workload, [])
        if not a or not b:
            ok = False
            lines.append(f"{workload}: missing from one set ({len(a)} vs {len(b)} runs)")
            continue
        share = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in (a, b)]
        if share[0] != share[1]:
            ok = False
            lines.append(f"{workload}: failed share {share[0]} vs {share[1]}  DIFFERS")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            verdict = "within bound" if worse <= bound else "WORSE THAN BOUND"
            ok = ok and worse <= bound
            lines.append(f"{workload:<17} {name:<12} median {ma:10.4f} -> {mb:10.4f} "
                         f"{metric['unit']:<3} ({worse:+7.2%} worse, bound {bound:.0%}) "
                         f"spread {_quartile_spread(va):.3f}/{_quartile_spread(vb):.3f}  "
                         f"n={len(va)}/{len(vb)}  {verdict}")
    return ok, lines


# --------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="append each result to this JSONL file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two --record files against BENCHMARK.json's bounds")
    parser.add_argument("--summary", type=Path, help="medians and spreads of a --record file")
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        print("run from the repository root: BENCHMARK.json not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.compare:
        ok, lines = compare(*args.compare, spec)
        print("\n".join(lines))
        return 0 if ok else 1
    if args.summary:
        print("\n".join(summary(args.summary, spec)))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (root / "src" / "hractivity" / "__init__.py").is_file():
        print("src/hractivity not found: run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        workload = WORKLOADS[name]
        rounds = measure(workload, args.seed, seconds, bool(args.trace), root)
        result, lines = summarize(workload, rounds, bool(args.trace), spec)
        print("\n".join(lines), flush=True)
        results[name] = result
        if args.record:
            args.record.parent.mkdir(parents=True, exist_ok=True)
            with open(args.record, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({"workload": name, "seed": args.seed,
                                         "trace": args.trace, "result": result,
                                         "balanced_accuracy": rounds[0].balanced}) + "\n")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{m}": v for w, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
