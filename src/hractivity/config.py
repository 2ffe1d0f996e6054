"""Experiment configuration for the command-line front end.

One flat INI-style file with typed sections drives every command.  All keys
have defaults except the seed, which must come from the file or the --seed
flag.  Flags override file values.  The canonical text rendering (every key,
sorted, one per line) is what run ids are hashed from, so two configs that
differ only in formatting or key order share a run id.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .clustering import ClusterSpace
from .errors import ConfigError
from .evaluation import NetSpec, RoutingMode, SplitKind, SplitPlan, SvmSpec
from .features import FeatureSetKind, MfccConfig
from .ingest import CsvSchema
from .neuralnet import ArchitectureId
from .preprocess import StandardizationMode, WindowConfig
from .svm import KernelKind, KernelSpec
from .synthetic import SyntheticCohortSpec


@dataclass(frozen=True)
class ExperimentConfig:
    # [corpus]
    source: str = "synthetic"          # "synthetic" or a CSV file/directory path
    device_filter: str = "Apple Watch"  # empty string disables the filter
    resample_period_s: float = 0.0      # 0 disables resampling

    # [synthetic]
    subjects: int = 30
    groups: int = 2
    noise_std: float = 1.5
    lag_tau_s: float = 20.0
    sample_period_s: float = 1.0

    # [windows]
    window_size: int = 50
    stride: int = 10
    window_sizes: tuple[int, ...] = (50, 80, 120, 240)
    strides: tuple[int, ...] = (10, 20, 40, 60, 80, 100, 120)

    # [standardization]
    standardization: StandardizationMode = StandardizationMode.DATA

    # [features]
    feature_kind: FeatureSetKind | None = FeatureSetKind.STAT_TEMPORAL
    on_standardized_input: bool = False
    n_mel_bands: int = 10

    # [model]
    model_kind: str = "svm"            # "svm" | "net"
    svm_inputs: str = "features"       # "windows" | "features" | "both"
    kernel: KernelKind = KernelKind.RBF
    c: float = 1.0
    gamma: float | None = None         # None: resolved from data at fit time
    tol: float = 1e-3
    arch: ArchitectureId = ArchitectureId.BASELINE
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-3
    dropout_p: float = 0.3

    # [clustering]
    space: ClusterSpace = ClusterSpace.STATISTICAL_WINDOW
    k: int = 3
    routing: RoutingMode | None = None
    restarts: int = 10

    # [split]
    split_kind: SplitKind = SplitKind.LEAVE_SUBJECT_OUT
    test_fraction: float = 0.3
    train_cluster: int = 0
    test_cluster: int = 1

    # [importance]
    repeats: int = 5
    top: int = 0                       # 0 keeps every input dimension

    # [timeline]
    timeline_subject: str = ""         # empty: first subject in id order

    # [run]
    seed: int = -1                     # -1 marks "not provided"
    out: str = "runs"
    workers: int = 1

    def require_seed(self) -> int:
        if self.seed < 0:
            raise ConfigError("run.seed is mandatory (set it in [run] or pass --seed)")
        return self.seed


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError("empty list")
    return tuple(int(p) for p in parts)


def _enum_parser(enum_cls):
    def parse(text: str):
        for member in enum_cls:
            if member.value == text.strip().lower():
                return member
        allowed = ", ".join(m.value for m in enum_cls)
        raise ValueError(f"expected one of: {allowed}")
    return parse


def _optional(parser, none_words=("none", "")):
    def parse(text: str):
        if text.strip().lower() in none_words:
            return None
        return parser(text)
    return parse


def _choice(*allowed: str):
    def parse(text: str):
        value = text.strip().lower()
        if value not in allowed:
            raise ValueError(f"expected one of: {', '.join(allowed)}")
        return value
    return parse


# (section, key) -> (field name, parser).  The table is the single source of
# truth for what a config file may contain; unknown keys are rejected.
_KEYS: dict[tuple[str, str], tuple[str, object]] = {
    ("corpus", "source"): ("source", str.strip),
    ("corpus", "device_filter"): ("device_filter", lambda s: s.strip()),
    ("corpus", "resample_period_s"): ("resample_period_s", float),
    ("synthetic", "subjects"): ("subjects", int),
    ("synthetic", "groups"): ("groups", int),
    ("synthetic", "noise_std"): ("noise_std", float),
    ("synthetic", "lag_tau_s"): ("lag_tau_s", float),
    ("synthetic", "sample_period_s"): ("sample_period_s", float),
    ("windows", "window_size"): ("window_size", int),
    ("windows", "stride"): ("stride", int),
    ("windows", "window_sizes"): ("window_sizes", _parse_int_tuple),
    ("windows", "strides"): ("strides", _parse_int_tuple),
    ("standardization", "mode"): ("standardization", _enum_parser(StandardizationMode)),
    ("features", "kind"): ("feature_kind", _optional(_enum_parser(FeatureSetKind))),
    ("features", "on_standardized_input"): ("on_standardized_input", _parse_bool),
    ("features", "n_mel_bands"): ("n_mel_bands", int),
    ("model", "kind"): ("model_kind", _choice("svm", "net")),
    ("model", "inputs"): ("svm_inputs", _choice("windows", "features", "both")),
    ("model", "kernel"): ("kernel", _enum_parser(KernelKind)),
    ("model", "c"): ("c", float),
    ("model", "gamma"): ("gamma", _optional(float, ("auto", "none", ""))),
    ("model", "tol"): ("tol", float),
    ("model", "arch"): ("arch", _enum_parser(ArchitectureId)),
    ("model", "epochs"): ("epochs", int),
    ("model", "batch_size"): ("batch_size", int),
    ("model", "learning_rate"): ("learning_rate", float),
    ("model", "dropout_p"): ("dropout_p", float),
    ("clustering", "space"): ("space", _enum_parser(ClusterSpace)),
    ("clustering", "k"): ("k", int),
    ("clustering", "routing"): ("routing", _optional(_enum_parser(RoutingMode))),
    ("clustering", "restarts"): ("restarts", int),
    ("split", "kind"): ("split_kind", _enum_parser(SplitKind)),
    ("split", "test_fraction"): ("test_fraction", float),
    ("split", "train_cluster"): ("train_cluster", int),
    ("split", "test_cluster"): ("test_cluster", int),
    ("importance", "repeats"): ("repeats", int),
    ("importance", "top"): ("top", int),
    ("timeline", "subject"): ("timeline_subject", lambda s: s.strip()),
    ("run", "seed"): ("seed", int),
    ("run", "out"): ("out", str.strip),
    ("run", "workers"): ("workers", int),
}

_FIELD_TO_KEY = {field: key for key, (field, _) in _KEYS.items()}


def load_config(path: str | Path | None, overrides: dict[str, object] | None = None) -> ExperimentConfig:
    """Build a config from an optional INI file plus field overrides.

    Override keys are dataclass field names; None values are skipped so CLI
    flags that were not passed fall through to the file or the default.
    """
    values: dict[str, object] = {}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, encoding="utf-8") as handle:
                parser.read_file(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from exc
        for section in parser.sections():
            for key, raw in parser.items(section):
                spec = _KEYS.get((section, key))
                if spec is None:
                    raise ConfigError(f"unknown config key [{section}] {key}")
                field_name, parse = spec
                try:
                    values[field_name] = parse(raw)
                except ValueError as exc:
                    raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
    for field_name, value in (overrides or {}).items():
        if value is not None:
            values[field_name] = value

    cfg = ExperimentConfig(**values)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    checks = [
        (cfg.window_size >= 1, "windows.window_size must be positive"),
        (cfg.stride >= 1, "windows.stride must be positive"),
        (all(w >= 1 for w in cfg.window_sizes), "windows.window_sizes must be positive"),
        (all(s >= 1 for s in cfg.strides), "windows.strides must be positive"),
        (cfg.c > 0, "model.c must be positive"),
        (cfg.tol > 0, "model.tol must be positive"),
        (cfg.gamma is None or cfg.gamma > 0, "model.gamma must be positive or auto"),
        (cfg.epochs >= 1, "model.epochs must be positive"),
        (cfg.batch_size >= 1, "model.batch_size must be positive"),
        (cfg.learning_rate > 0, "model.learning_rate must be positive"),
        (0.0 <= cfg.dropout_p < 1.0, "model.dropout_p must lie in [0, 1)"),
        (cfg.k >= 1, "clustering.k must be positive"),
        (cfg.restarts >= 1, "clustering.restarts must be positive"),
        (0.0 < cfg.test_fraction < 1.0, "split.test_fraction must lie in (0, 1)"),
        (cfg.train_cluster >= 0, "split.train_cluster must be non-negative"),
        (cfg.test_cluster >= 0, "split.test_cluster must be non-negative"),
        (cfg.repeats >= 1, "importance.repeats must be positive"),
        (cfg.top >= 0, "importance.top must be non-negative"),
        (cfg.workers >= 1, "run.workers must be positive"),
        (math.isfinite(cfg.resample_period_s) and cfg.resample_period_s >= 0,
         "corpus.resample_period_s must be a finite number >= 0"),
        (cfg.subjects >= 1, "synthetic.subjects must be positive"),
        (cfg.groups >= 1, "synthetic.groups must be positive"),
    ]
    for ok, message in checks:
        if not ok:
            raise ConfigError(message)


def _render(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return " ".join(str(v) for v in value)
    if hasattr(value, "value"):  # enum
        return str(value.value)
    return str(value)


# Execution plumbing: where artifacts land and how many processes compute
# them.  Neither changes any output byte, so they stay out of the canonical
# text, the run id, and the manifest echo.
_PLUMBING_FIELDS = ("out", "workers")


def config_items(cfg: ExperimentConfig) -> list[tuple[str, str]]:
    """Every experiment key as ("section.key", rendered value), sorted by key."""
    items = []
    for f in fields(cfg):
        if f.name in _PLUMBING_FIELDS:
            continue
        section, key = _FIELD_TO_KEY[f.name]
        items.append((f"{section}.{key}", _render(getattr(cfg, f.name))))
    return sorted(items)


def canonical_config_text(cfg: ExperimentConfig) -> str:
    return "\n".join(f"{key} = {value}" for key, value in config_items(cfg)) + "\n"


def run_id_for(cfg: ExperimentConfig, command: str) -> str:
    digest = hashlib.sha256()
    digest.update(canonical_config_text(cfg).encode("utf-8"))
    digest.update(command.encode("utf-8"))
    return digest.hexdigest()[:12]


# ---------------------------------------------------------- derived objects

def cohort_spec(cfg: ExperimentConfig) -> SyntheticCohortSpec:
    return SyntheticCohortSpec(
        n_subjects=cfg.subjects,
        n_groups=cfg.groups,
        seed=cfg.require_seed(),
        period_s=cfg.sample_period_s,
        lag_tau_s=cfg.lag_tau_s,
        noise_std=cfg.noise_std,
    )


def csv_schema(cfg: ExperimentConfig) -> CsvSchema:
    return CsvSchema(device_filter=cfg.device_filter or None)


def window_config(cfg: ExperimentConfig) -> WindowConfig:
    return WindowConfig(window_size=cfg.window_size, stride=cfg.stride)


def model_spec(cfg: ExperimentConfig):
    if cfg.model_kind == "svm":
        return SvmSpec(inputs=cfg.svm_inputs,
                       kernel=KernelSpec(kind=cfg.kernel, gamma=cfg.gamma),
                       c=cfg.c, tol=cfg.tol)
    return NetSpec(arch=cfg.arch, epochs=cfg.epochs, batch_size=cfg.batch_size,
                   learning_rate=cfg.learning_rate, dropout_p=cfg.dropout_p)


def split_plan(cfg: ExperimentConfig) -> SplitPlan:
    if cfg.split_kind is SplitKind.CROSS_CLUSTER:
        return SplitPlan(kind=cfg.split_kind, seed=cfg.require_seed(),
                         test_fraction=cfg.test_fraction,
                         train_cluster=cfg.train_cluster, test_cluster=cfg.test_cluster)
    return SplitPlan(kind=cfg.split_kind, seed=cfg.require_seed(),
                     test_fraction=cfg.test_fraction)


def mfcc_config(cfg: ExperimentConfig) -> MfccConfig:
    return MfccConfig(n_mel_bands=cfg.n_mel_bands)
