"""The benchmark's tracer finds its targets where hractivity looks them up.

``perfbench/tracing.py`` patches each traced name in the module whose code
calls it, so a call that stops going through that lookup (or a renamed
target) silently drops its spans from the per-layer metrics. The tracer is
installed in a subprocess, because its patches would outlive the test.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json, sys
perfbench, src, out = sys.argv[1:]
sys.path[:0] = [perfbench, src]
import tracing
from hractivity.cli import main

tracer = tracing.Tracer()
tracing.install(tracer)  # raises if a target no longer resolves


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        assert main([str(a) for a in argv]) == 0, argv
    return printed.getvalue().strip().splitlines()[-1]


corpus = run("--seed", 5, "--out", out + "/gen", "generate", "--subjects", 6, "--groups", 2)
spans = {}
for name, command, extra in (("cluster", "cluster", ""),
                             ("per_window", "eval", "routing = per_window"),
                             ("per_subject", "eval", "routing = per_subject")):
    ini = f"{out}/{name}.ini"
    with open(ini, "w", encoding="utf-8") as fh:
        fh.write(f"[corpus]\\nsource = {corpus}/corpus\\ndevice_filter = synthetic\\n"
                 f"[windows]\\nwindow_size = 50\\nstride = 10\\n"
                 f"[clustering]\\nk = 2\\n{extra}\\n[run]\\nout = {out}/runs\\n")
    first = len(tracer.spans)
    run("--config", ini, "--seed", 5, command)
    spans[name] = sorted({span[0] for span in tracer.spans[first:]})
print(json.dumps(spans))
"""


def test_cluster_and_routed_eval_reach_the_traced_names(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src"),
         str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    spans = json.loads(done.stdout)
    clustering = {"clustering.fit_cluster_model", "clustering.kmeans_fit",
                  "clustering.window_space_matrix"}
    assert clustering <= set(spans["cluster"])
    assert "evaluation.build_dataset" not in spans["cluster"]
    # a routing or a routed fit that bypassed the patched lookup would read
    # as fewer assignments or fits
    # both runs cut windows under standardization.mode = data and compute
    # features.kind = stat_temporal, the defaults
    routed = clustering | {"evaluation.build_dataset", "clustering.assign_many",
                           "evaluation.fit_classifier", "preprocess.segment",
                           "preprocess.standardize_series", "features.feature_matrix",
                           "features.statistical_matrix", "features.temporal_matrix"}
    assert routed <= set(spans["per_window"])
    assert routed <= set(spans["per_subject"])
