"""The byte-identity gate: fixed CLI runs hash to the checked-in digests.

``scripts/artifact_digests.py`` runs generate, ingest, cluster, every eval
protocol, sweep, importance, timeline and train on one generated cohort and
prints each run's id and artifact digests. Its output must equal
``scripts/artifact_digests.json`` byte for byte, with one fold worker or two.
Both runs turn an ``EncodingWarning`` into an error, so a text file opened
without an explicit encoding (and so in the locale's) fails the gate.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CHECKED_IN = ROOT / "scripts" / "artifact_digests.json"


def digest_mismatches(got: dict, expected: dict) -> list[str]:
    """One line per run or artifact whose id or digest differs."""
    lines = []
    for run in sorted(set(got) | set(expected)):
        if run not in got or run not in expected:
            lines.append(f"run {run}: only in the {'checked-in' if run in expected else 'new'} file")
            continue
        if got[run]["run_id"] != expected[run]["run_id"]:
            lines.append(f"run {run}: run id {expected[run]['run_id']} -> {got[run]['run_id']}")
        new, old = got[run]["artifacts"], expected[run]["artifacts"]
        for name in sorted(set(new) | set(old)):
            if new.get(name) != old.get(name):
                lines.append(f"run {run}, artifact {name}: {old.get(name)} -> {new.get(name)}")
    return lines


@pytest.mark.parametrize("workers", [1, 2])
def test_artifact_digests_match_the_checked_in_file(tmp_path, workers):
    output = tmp_path / "digests.json"
    subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         str(ROOT / "scripts" / "artifact_digests.py"), "--src", str(ROOT / "src"),
         "--workers", str(workers), "--output", str(output)],
        check=True, cwd=tmp_path, timeout=600,
    )
    text = output.read_text(encoding="utf-8")
    expected = CHECKED_IN.read_text(encoding="utf-8")
    mismatches = digest_mismatches(json.loads(text), json.loads(expected))
    assert not mismatches, "\n".join(mismatches)
    assert text == expected  # same digests; the layout must match too
