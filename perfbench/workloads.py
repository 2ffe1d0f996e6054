"""The benchmark's workloads: which cohorts a round writes and which commands it runs.

A round is one fresh Python process. Set-up imports hractivity and, for the
``eval`` workloads, writes every cohort with the ``generate`` command; the
timed part then runs the workload's commands on each cohort, one after
another, with one worker. Cohort seeds derive from the benchmark seed, so
the same seed always gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Protocol segment durations in seconds (Rest, Breathe, Activity, RestAC,
#: Type) and the sampling period of every generated cohort.
SEGMENT_DURATIONS_S = (240, 60, 300, 120, 60)
SAMPLE_PERIOD_S = 1
LABELS = ("Rest", "Breathe", "Activity", "RestAC", "Type")

#: Every workload generates this many latent groups and clusters with k = GROUPS.
GROUPS = 3
WINDOW_SIZE = 50

_CORPUS = """\
[corpus]
source = {source}
device_filter = synthetic
"""

_WINDOWS = """\
[windows]
window_size = {window_size}
stride = {stride}
"""


@dataclass(frozen=True)
class Workload:
    name: str
    # Independent cohorts per round, their run times added up: SMO time
    # depends on the noise drawn for a cohort, and a longer round evens out
    # the host's changes of speed.
    cohorts: int
    subjects: int  # per cohort
    stride: int
    commands: tuple[str, ...]  # run on each cohort in this order
    config: str  # INI text after the [corpus] section; may use {k}

    def cohort_seed(self, seed: int, cohort: int) -> int:
        return seed * 100 + cohort

    def config_text(self, source: str) -> str:
        return (_CORPUS.format(source=source)
                + self.config.format(k=GROUPS)
                + _WINDOWS.format(window_size=WINDOW_SIZE, stride=self.stride))

    @property
    def generate_in_setup(self) -> bool:
        """Set-up writes the cohorts unless `generate` is one of the timed commands."""
        return "generate" not in self.commands

    @property
    def operations_per_round(self) -> int:
        return self.cohorts * len(self.commands)


_SVM = """\
[features]
kind = stat_temporal
[model]
kind = svm
inputs = features
kernel = rbf
"""

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="loso-svm", cohorts=3, subjects=8, stride=10, commands=("eval",),
            config="[standardization]\nmode = data\n" + _SVM,
        ),
        Workload(
            name="routed-svm", cohorts=3, subjects=7, stride=10, commands=("eval",),
            config="[standardization]\nmode = feature\n" + _SVM + """\
[clustering]
routing = per_window
space = statistical_window
k = {k}
""",
        ),
        Workload(
            name="loso-net", cohorts=3, subjects=8, stride=10, commands=("eval",),
            config="""\
[standardization]
mode = data
[features]
kind = stat_temporal
[model]
kind = net
arch = model1
epochs = 3
""",
        ),
        Workload(
            name="corpus-roundtrip", cohorts=1, subjects=60, stride=1,
            commands=("generate", "ingest", "cluster"),
            config="""\
resample_period_s = 1.0
[standardization]
mode = none
[clustering]
space = statistical_window
k = {k}
""",
        ),
    )
}
