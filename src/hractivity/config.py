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
from dataclasses import dataclass, field, fields
from pathlib import Path

from .clustering import ClusterSpace
from .errors import ConfigError
from .evaluation import DatasetSpec, NetSpec, RoutingMode, SplitKind, SplitPlan, SvmSpec
from .features import (MAX_FILTERBANK_WEIGHTS, MAX_MEL_BANDS, N_MEL_BANDS, N_MFCC,
                       FeatureSetKind, feature_names)
from .ingest import DEFAULT_DEVICE
from .neuralnet import CONV_KERNEL, ArchitectureId, NetConfig, flatten_dim
from .preprocess import StandardizationMode, WindowConfig
from .svm import KernelKind, KernelSpec
from .synthetic import DEVICE as SYNTHETIC_DEVICE, SyntheticCohortSpec


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
    """Rule: an integer no smaller than ``floor``; a tuple key checks every
    entry, and None (not provided) passes."""
    def check(value):
        values = value if isinstance(value, tuple) else (value,)
        if value is not None and not all(v >= floor for v in values):
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


def _key(default, name: str, parse, rule=None):
    """A field declared with its config key ``section.key``, the parser of the
    key's text and its range rule (None, or a check returning a message)."""
    section, key = name.split(".")
    return field(default=default,
                 metadata={"key": (section, key), "parse": parse, "rule": rule})


def _not_empty(value):
    """Rule for corpus.source: an empty source would read the working directory."""
    if not value:
        return "is empty: set it to synthetic or to a CSV file or directory"


@dataclass(frozen=True)
class ExperimentConfig:
    source: str = _key("synthetic", "corpus.source", str.strip, _not_empty)  # or a CSV path
    device_filter: str = _key(DEFAULT_DEVICE, "corpus.device_filter", str.strip)  # "": off
    resample_period_s: float = _key(0.0, "corpus.resample_period_s", float,
                                    _finite(0.0))  # 0 disables resampling

    subjects: int = _key(30, "synthetic.subjects", int, _at_least(1))
    groups: int = _key(2, "synthetic.groups", int, _at_least(1))
    noise_std: float = _key(1.5, "synthetic.noise_std", float, _finite(0.0))
    lag_tau_s: float = _key(20.0, "synthetic.lag_tau_s", float, _finite(0.0))
    sample_period_s: float = _key(1.0, "synthetic.sample_period_s", float,
                                  _finite(0.0, strict=True))

    window_size: int = _key(50, "windows.window_size", int, _at_least(2))
    stride: int = _key(10, "windows.stride", int, _at_least(1))
    window_sizes: tuple[int, ...] = _key((50, 80, 120, 240), "windows.window_sizes",
                                         _parse_int_tuple, _at_least(2))
    strides: tuple[int, ...] = _key((10, 20, 40, 60, 80, 100, 120), "windows.strides",
                                    _parse_int_tuple, _at_least(1))

    standardization: StandardizationMode = _key(StandardizationMode.DATA, "standardization.mode",
                                                _enum_parser(StandardizationMode))

    feature_kind: FeatureSetKind | None = _key(FeatureSetKind.STAT_TEMPORAL, "features.kind",
                                               _optional(_enum_parser(FeatureSetKind)))
    n_mel_bands: int = _key(N_MEL_BANDS, "features.n_mel_bands", int, _mel_band_count)

    model_kind: str = _key("svm", "model.kind", _choice("svm", "net"))
    svm_inputs: str = _key("features", "model.inputs", _choice("windows", "features", "both"))
    kernel: KernelKind = _key(KernelKind.RBF, "model.kernel", _enum_parser(KernelKind))
    c: float = _key(1.0, "model.c", float, _finite(0.0, strict=True))
    gamma: float | None = _key(None, "model.gamma", _optional(float, ("auto", "none", "")),
                               _finite(0.0, strict=True))  # None: resolved at fit time
    tol: float = _key(1e-3, "model.tol", float, _finite(0.0, strict=True))
    arch: ArchitectureId = _key(ArchitectureId.BASELINE, "model.arch",
                                _enum_parser(ArchitectureId))
    epochs: int = _key(50, "model.epochs", int, _at_least(1))
    batch_size: int = _key(32, "model.batch_size", int, _at_least(1))
    learning_rate: float = _key(1e-3, "model.learning_rate", float, _finite(0.0, strict=True))
    dropout_p: float = _key(0.3, "model.dropout_p", float, _finite(0.0, 1.0))

    space: ClusterSpace = _key(ClusterSpace.STATISTICAL_WINDOW, "clustering.space",
                               _enum_parser(ClusterSpace))
    k: int = _key(3, "clustering.k", int, _at_least(1))
    routing: RoutingMode | None = _key(None, "clustering.routing",
                                       _optional(_enum_parser(RoutingMode)))
    restarts: int = _key(10, "clustering.restarts", int, _at_least(1))

    split_kind: SplitKind = _key(SplitKind.LEAVE_SUBJECT_OUT, "split.kind",
                                 _enum_parser(SplitKind))
    test_fraction: float = _key(0.3, "split.test_fraction", float,
                                _finite(0.0, 1.0, strict=True))
    train_cluster: int = _key(0, "split.train_cluster", int, _at_least(0))
    test_cluster: int = _key(1, "split.test_cluster", int, _at_least(0))

    repeats: int = _key(5, "importance.repeats", int, _at_least(5))
    top: int = _key(0, "importance.top", int, _at_least(0))  # 0 keeps every input dimension

    timeline_subject: str = _key("", "timeline.subject", str.strip)  # "": first subject id

    seed: int | None = _key(None, "run.seed", _optional(int), _at_least(0))  # None: not provided
    out: str = _key("runs", "run.out", str.strip)
    workers: int = _key(1, "run.workers", int, _at_least(1))


# (section, key) -> (field name, parser, rule), in field order: what a config
# file may contain and which values each key takes, in the ranges of the code
# that consumes them.  load_config applies every rule after the overrides.
_KEYS: dict[tuple[str, str], tuple[str, object, object]] = {
    f.metadata["key"]: (f.name, f.metadata["parse"], f.metadata["rule"])
    for f in fields(ExperimentConfig)}


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
    """Refuse, before any corpus is read, a setting that ``command`` cannot run
    or would ignore; the only check between ``load_config`` and a command.

    Only the settings below are refused.  Other keys a command does not read
    (``clustering.k`` under ``ingest``, say) stay ignored, so one config file
    can serve several commands."""
    if cfg.seed is None:
        raise ConfigError("run.seed is mandatory (set it in [run] or pass --seed)")
    if cfg.source == "synthetic" and command == "ingest":
        raise ConfigError("ingest needs corpus.source to point at CSV files")
    if cfg.source == "synthetic" and cfg.resample_period_s > 0 and command != "generate":
        raise ConfigError(f"corpus.resample_period_s = {cfg.resample_period_s!r} resamples CSV "
                          f"series, and corpus.source = synthetic generates its own")
    if (cfg.source == "synthetic" and command != "generate"
            and cfg.device_filter not in ("", DEFAULT_DEVICE, SYNTHETIC_DEVICE)):
        raise ConfigError(f"corpus.device_filter = {cfg.device_filter} keeps one device's CSV "
                          f"series, and corpus.source = synthetic generates series of device "
                          f"{SYNTHETIC_DEVICE}")
    kind = f"split.kind = {cfg.split_kind.value}"
    if cfg.routing is not None and command != "eval":
        raise ConfigError(f"{command} routes no windows to clusters: unset clustering.routing")
    if cfg.split_kind is not SplitKind.LEAVE_SUBJECT_OUT and command not in ("eval", "sweep"):
        raise ConfigError(f"{command} runs no split: unset {kind}")
    if command == "sweep" and cfg.split_kind not in (SplitKind.LEAVE_SUBJECT_OUT,
                                                     SplitKind.RANDOM_WINDOW):
        raise ConfigError(f"sweep runs leave_subject_out or random_window splits, not {kind}")
    fits = command in ("eval", "sweep", "train", "importance", "timeline")
    if fits and cfg.feature_kind is None:
        if cfg.model_kind == "svm" and cfg.svm_inputs != "windows":
            raise ConfigError(f"model.inputs = {cfg.svm_inputs} reads features, "
                              f"but features.kind = none")
        if cfg.model_kind == "net" and cfg.arch is not ArchitectureId.BASELINE:
            raise ConfigError(f"model.arch = {cfg.arch.value} reads features, "
                              f"but features.kind = none")
    if fits and cfg.model_kind == "net":
        hc_dim = len(feature_names(cfg.feature_kind)) if cfg.feature_kind else 0
        key, sizes = (("windows.window_sizes", cfg.window_sizes) if command == "sweep"
                      else ("windows.window_size", (cfg.window_size,)))
        for w in sizes:
            if w < CONV_KERNEL or flatten_dim(cfg.arch, NetConfig(w, hc_dim)) <= 0:
                raise ConfigError(f"{key} = {w} is too short for the conv net of "
                                  f"model.arch = {cfg.arch.value}")
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
    return sorted((".".join(f.metadata["key"]), _render(getattr(cfg, f.name)))
                  for f in fields(cfg) if f.name not in _PLUMBING_FIELDS)


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
        seed=cfg.seed,
        period_s=cfg.sample_period_s,
        lag_tau_s=cfg.lag_tau_s,
        noise_std=cfg.noise_std,
    )


def dataset_spec(cfg: ExperimentConfig) -> DatasetSpec:
    return DatasetSpec(WindowConfig(cfg.window_size, cfg.stride), cfg.standardization,
                       cfg.feature_kind, cfg.n_mel_bands)


def model_spec(cfg: ExperimentConfig):
    if cfg.model_kind == "svm":
        return SvmSpec(inputs=cfg.svm_inputs,
                       kernel=KernelSpec(kind=cfg.kernel, gamma=cfg.gamma),
                       c=cfg.c, tol=cfg.tol)
    return NetSpec(arch=cfg.arch, epochs=cfg.epochs, batch_size=cfg.batch_size,
                   learning_rate=cfg.learning_rate, dropout_p=cfg.dropout_p)


def split_plan(cfg: ExperimentConfig) -> SplitPlan:
    return SplitPlan(kind=cfg.split_kind, test_fraction=cfg.test_fraction)
