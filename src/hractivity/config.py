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
from .features import MAX_FILTERBANK_WEIGHTS, MAX_MEL_BANDS, N_MFCC, FeatureSetKind, MfccConfig
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


def _at_least(floor: int):
    """Rule: an integer no smaller than ``floor``; a tuple key checks every entry."""
    def check(value):
        if not all(v >= floor for v in (value if isinstance(value, tuple) else (value,))):
            return f"must be at least {floor}"
    return check


def _mel_band_count(value):
    """Rule for features.n_mel_bands: N_MFCC to MAX_MEL_BANDS bands."""
    if value < N_MFCC:
        return f"must be at least {N_MFCC}"
    if value > MAX_MEL_BANDS:
        return (f"= {value} is more than MAX_MEL_BANDS = {MAX_MEL_BANDS}; the filterbank "
                f"is further bounded by MAX_FILTERBANK_WEIGHTS = {MAX_FILTERBANK_WEIGHTS}")


def _finite(low: float, high: float = math.inf, *, strict: bool = False):
    """Rule: a finite float in [low, high), (low, high) if strict; None (gamma = auto) passes."""
    bound = (f"{'>' if strict else '>='} {low:g}" if high == math.inf
             else f"in {'(' if strict else '['}{low:g}, {high:g})")
    def check(value):
        if value is not None and not (math.isfinite(value) and value < high
                                      and (value > low if strict else value >= low)):
            return f"must be a finite number {bound}"
    return check


# (section, key) -> (field name, parser, rule).  The table is the single source
# of truth for what a config file may contain and which values each key takes,
# in the ranges of the code that consumes them.  A rule returns None for a good
# value, else the message; load_config applies every rule after the overrides.
_KEYS: dict[tuple[str, str], tuple[str, object, object]] = {
    ("corpus", "source"): ("source", str.strip, None),
    ("corpus", "device_filter"): ("device_filter", lambda s: s.strip(), None),
    ("corpus", "resample_period_s"): ("resample_period_s", float, _finite(0.0)),
    ("synthetic", "subjects"): ("subjects", int, _at_least(1)),
    ("synthetic", "groups"): ("groups", int, _at_least(1)),
    ("synthetic", "noise_std"): ("noise_std", float, _finite(0.0)),
    ("synthetic", "lag_tau_s"): ("lag_tau_s", float, _finite(0.0)),
    ("synthetic", "sample_period_s"): ("sample_period_s", float, _finite(0.0, strict=True)),
    ("windows", "window_size"): ("window_size", int, _at_least(2)),
    ("windows", "stride"): ("stride", int, _at_least(1)),
    ("windows", "window_sizes"): ("window_sizes", _parse_int_tuple, _at_least(2)),
    ("windows", "strides"): ("strides", _parse_int_tuple, _at_least(1)),
    ("standardization", "mode"): ("standardization", _enum_parser(StandardizationMode), None),
    ("features", "kind"): ("feature_kind", _optional(_enum_parser(FeatureSetKind)), None),
    ("features", "n_mel_bands"): ("n_mel_bands", int, _mel_band_count),
    ("model", "kind"): ("model_kind", _choice("svm", "net"), None),
    ("model", "inputs"): ("svm_inputs", _choice("windows", "features", "both"), None),
    ("model", "kernel"): ("kernel", _enum_parser(KernelKind), None),
    ("model", "c"): ("c", float, _finite(0.0, strict=True)),
    ("model", "gamma"): ("gamma", _optional(float, ("auto", "none", "")),
                         _finite(0.0, strict=True)),
    ("model", "tol"): ("tol", float, _finite(0.0, strict=True)),
    ("model", "arch"): ("arch", _enum_parser(ArchitectureId), None),
    ("model", "epochs"): ("epochs", int, _at_least(1)),
    ("model", "batch_size"): ("batch_size", int, _at_least(1)),
    ("model", "learning_rate"): ("learning_rate", float, _finite(0.0, strict=True)),
    ("model", "dropout_p"): ("dropout_p", float, _finite(0.0, 1.0)),
    ("clustering", "space"): ("space", _enum_parser(ClusterSpace), None),
    ("clustering", "k"): ("k", int, _at_least(1)),
    ("clustering", "routing"): ("routing", _optional(_enum_parser(RoutingMode)), None),
    ("clustering", "restarts"): ("restarts", int, _at_least(1)),
    ("split", "kind"): ("split_kind", _enum_parser(SplitKind), None),
    ("split", "test_fraction"): ("test_fraction", float, _finite(0.0, 1.0, strict=True)),
    ("split", "train_cluster"): ("train_cluster", int, _at_least(0)),
    ("split", "test_cluster"): ("test_cluster", int, _at_least(0)),
    ("importance", "repeats"): ("repeats", int, _at_least(5)),
    ("importance", "top"): ("top", int, _at_least(0)),
    ("timeline", "subject"): ("timeline_subject", lambda s: s.strip(), None),
    ("run", "seed"): ("seed", int, None),
    ("run", "out"): ("out", str.strip, None),
    ("run", "workers"): ("workers", int, _at_least(1)),
}

_FIELD_TO_KEY = {field: key for key, (field, _, _) in _KEYS.items()}


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
                    raise ConfigError(f"unknown config key {section}.{key}")
                field_name, parse, _ = spec
                try:
                    values[field_name] = parse(raw)
                except ValueError as exc:
                    raise ConfigError(f"{section}.{key} has a bad value: {exc}") from exc
    for field_name, value in (overrides or {}).items():
        if value is not None:
            values[field_name] = value

    cfg = ExperimentConfig(**values)
    for (section, key), (field_name, _, rule) in _KEYS.items():
        if rule is not None and (message := rule(getattr(cfg, field_name))):
            raise ConfigError(f"{section}.{key} {message}")
    return cfg


def check_protocol(cfg: ExperimentConfig, command: str) -> None:
    """Refuse [split]/[clustering] settings that ``command`` would ignore."""
    kind = f"split.kind = {cfg.split_kind.value}"
    if command == "sweep":
        if cfg.routing is not None:
            raise ConfigError("sweep does not route windows to clusters: "
                              "unset clustering.routing")
        if cfg.split_kind not in (SplitKind.LEAVE_SUBJECT_OUT, SplitKind.RANDOM_WINDOW):
            raise ConfigError(f"sweep runs leave_subject_out or random_window splits, "
                              f"not {kind}")
    if command == "eval":
        if cfg.routing is not None and cfg.split_kind is not SplitKind.LEAVE_SUBJECT_OUT:
            raise ConfigError(f"clustering.routing = {cfg.routing.value} runs "
                              f"leave-subject-out folds and cannot be combined with {kind}")
        if cfg.routing is not None and cfg.space is ClusterSpace.MEAN_BPM_PROFILE:
            raise ConfigError(f"clustering.routing = {cfg.routing.value} routes single "
                              f"windows and needs a per-window clustering.space, "
                              f"not {cfg.space.value}")
        if cfg.split_kind is SplitKind.CROSS_CLUSTER:
            if max(cfg.train_cluster, cfg.test_cluster) >= cfg.k:
                raise ConfigError(f"split.train_cluster = {cfg.train_cluster} and "
                                  f"split.test_cluster = {cfg.test_cluster} must both be "
                                  f"below clustering.k = {cfg.k}")
            if cfg.train_cluster == cfg.test_cluster:
                raise ConfigError(f"split.train_cluster and split.test_cluster are both "
                                  f"{cfg.train_cluster}: a cross-cluster split would test "
                                  f"on its own training subjects")


def _render(value) -> str:
    if value is None:
        return "none"
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
    return SplitPlan(kind=cfg.split_kind, test_fraction=cfg.test_fraction)


def mfcc_config(cfg: ExperimentConfig) -> MfccConfig:
    return MfccConfig(n_mel_bands=cfg.n_mel_bands)
