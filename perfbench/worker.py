"""One benchmark round, run as a fresh Python process.

Usage: python3 perfbench/worker.py JOB.json RESULT.json  (cwd: the round's work dir)

The job names the workload, the seed, whether to trace, and the ``src``
directory to import hractivity from. The result holds the set-up and run
CPU times, wall times, the process's peak resident memory, each command's
exit code and run directory, and the trace spans when tracing was on.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing
from workloads import GROUPS, WORKLOADS


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _call(cli, argv: list[str]) -> dict:
    """Run one CLI command; its stdout names the run directory."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception:  # a traceback escaping the CLI is a failed operation
        return {"argv": argv, "exit": None, "run_dir": None, "error": traceback.format_exc()}
    lines = out.getvalue().strip().splitlines()
    return {"argv": argv, "exit": code, "run_dir": lines[-1] if code == 0 and lines else None}


def _write_config(workload, cohort: int, generated: dict) -> str:
    path = f"c{cohort}.ini"
    Path(path).write_text(workload.config_text(f"{generated['run_dir']}/corpus"),
                          encoding="utf-8")
    return path


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import hractivity.cli as cli

    if src not in Path(cli.__file__).resolve().parents:
        print(f"hractivity imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if job["trace"] else None
    if tracer is not None:
        tracing.install(tracer)

    workload = WORKLOADS[job["workload"]]
    seeds = [workload.cohort_seed(job["seed"], i) for i in range(workload.cohorts)]
    gen_args = ["generate", "--subjects", str(workload.subjects), "--groups", str(GROUPS)]

    configs = {}

    def generate(i: int) -> dict:
        op = _call(cli, ["--seed", str(seeds[i]), "--out", f"c{i}", *gen_args])
        if op["exit"] == 0:
            configs[i] = _write_config(workload, i, op)
        return op

    setup = [generate(i) for i in range(workload.cohorts)] if workload.generate_in_setup else []
    for i, op in enumerate(setup):
        op.update(cohort=i, command="generate")
    setup_cpu = _cpu_s()
    ready_wall = time.perf_counter()

    commands = []
    for i in range(workload.cohorts):
        for name in workload.commands:
            if name == "generate":
                op = generate(i)
            elif i in configs:
                op = _call(cli, ["--config", configs[i], "--seed", str(seeds[i]),
                                 "--out", f"c{i}", "--workers", "1", name])
            else:  # its corpus was never written
                op = {"argv": [name], "exit": None, "run_dir": None, "error": "skipped: no corpus"}
            op.update(cohort=i, command=name)
            commands.append(op)
    run_cpu = _cpu_s() - setup_cpu
    run_wall = time.perf_counter() - ready_wall

    result = {
        "setup_cpu_s": setup_cpu,
        "ready_wall": ready_wall,
        "run_cpu_s": run_cpu,
        "run_wall_s": run_wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup": setup,
        "commands": commands,
        "spans": tracer.spans if tracer is not None else None,
    }
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
