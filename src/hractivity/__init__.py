"""Heart-rate activity classification toolkit.

Library + CLI for turning annotated heart-rate time series into activity
predictions: ingestion/resampling, windowing, handcrafted features, subject
clustering with cluster-routed classifiers, small 1-D conv nets, and a
deterministic evaluation harness.
"""

from .config import ExperimentConfig, load_config, run_id_for
from .errors import ConfigError, DataError, HrActivityError, InternalError
from .series import ActivityLabel, GapRecord, SubjectSeries

__all__ = [
    "ActivityLabel",
    "ConfigError",
    "DataError",
    "ExperimentConfig",
    "GapRecord",
    "HrActivityError",
    "InternalError",
    "SubjectSeries",
    "load_config",
    "run_id_for",
]
