"""The config table: each field declares its key, and every numeric key is
parsed and range-checked by its entry.

Examples are derandomized and no example database is kept, so every run
tries the same inputs. Only ``load_config`` and ``check_protocol`` run: no
corpus, no run.
"""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hractivity.config import _KEYS, ExperimentConfig, _render, check_protocol, load_config
from hractivity.errors import ConfigError
from hractivity.features import feature_names
from hractivity.neuralnet import ArchitectureId, NetConfig, build

# chosen by the field's declared type, not by whether the table gives it a rule
NUMBER_TYPES = {f.name for f in fields(ExperimentConfig)
                if f.type in ("int", "int | None", "float", "float | None",
                              "tuple[int, ...]")}
NUMERIC_KEYS = sorted(key for key, (field_name, _, _) in _KEYS.items()
                      if field_name in NUMBER_TYPES)
NON_FINITE = ("nan", "inf", "-inf")
VALUES = NON_FINITE + ("-1", "0", "1e-300", "1e300", str(2**70))

# every key a config file may hold, in the order load_config checks their rules
KEY_ORDER = """
corpus.source corpus.device_filter corpus.resample_period_s
synthetic.subjects synthetic.groups synthetic.noise_std synthetic.lag_tau_s
synthetic.sample_period_s
windows.window_size windows.stride windows.window_sizes windows.strides
standardization.mode features.kind features.n_mel_bands
model.kind model.inputs model.kernel model.c model.gamma model.tol model.arch model.epochs
model.batch_size model.learning_rate model.dropout_p
clustering.space clustering.k clustering.routing clustering.restarts
split.kind split.test_fraction split.train_cluster split.test_cluster
importance.repeats importance.top timeline.subject run.seed run.out run.workers
""".split()


def test_each_field_declares_one_key_of_its_own():
    declared = [f.metadata["key"] for f in fields(ExperimentConfig)]
    assert all(len(key) == 2 and all(isinstance(part, str) for part in key)
               for key in declared)
    assert len(set(declared)) == len(declared) == 40
    assert [".".join(key) for key in declared] == KEY_ORDER
    assert list(_KEYS) == declared
    assert [name for name, _, _ in _KEYS.values()] == [f.name for f in fields(ExperimentConfig)]


@pytest.mark.parametrize("section,key", list(_KEYS), ids=[f"{s}.{k}" for s, k in _KEYS])
def test_default_reads_back_through_its_key(section, key):
    # a parser or rule declared on the wrong field would misread the default
    field_name, parse, rule = _KEYS[section, key]
    default = getattr(ExperimentConfig(), field_name)
    assert parse(_render(default)) == default
    assert rule is None or rule(default) is None


@pytest.mark.parametrize("section,key", NUMERIC_KEYS, ids=[f"{s}.{k}" for s, k in NUMERIC_KEYS])
@settings(derandomize=True, database=None, deadline=None)
@given(text=st.sampled_from(VALUES))
def test_numeric_key_is_parsed_and_checked_by_the_table(tmp_path_factory, section, key, text):
    path = tmp_path_factory.mktemp("config") / "exp.ini"
    path.write_text(f"[{section}]\n{key} = {text}\n", encoding="utf-8")
    try:
        cfg = load_config(path)
    except ConfigError as exc:  # any other exception fails the test
        assert str(exc).startswith(f"{section}.{key} "), exc
        return
    assert text not in NON_FINITE
    field_name, parse, _ = _KEYS[section, key]
    assert getattr(cfg, field_name) == parse(text)


@pytest.mark.parametrize("arch", list(ArchitectureId), ids=[a.value for a in ArchitectureId])
@pytest.mark.parametrize("window_size", [4, 5, 6])
def test_net_window_check_agrees_with_the_net_build(arch, window_size):
    # Model2 convolves the window with its features appended, so it alone runs at 5
    cfg = load_config(None, {"seed": 1, "model_kind": "net", "arch": arch,
                             "window_size": window_size})
    hc_dim = 0 if arch is ArchitectureId.BASELINE else len(feature_names(cfg.feature_kind))
    try:
        build(arch, NetConfig(window_size, hc_dim))
        builds = True
    except ConfigError:
        builds = False
    try:
        check_protocol(cfg, "eval")
        refusal = None
    except ConfigError as exc:
        refusal = str(exc)
    assert (refusal is None) == builds, refusal
    assert refusal is None or refusal.startswith(f"windows.window_size = {window_size} "), refusal


@pytest.mark.parametrize("device_filter", ["", "Apple Watch", "synthetic", "Fitbit"])
@pytest.mark.parametrize("command", ["eval", "cluster", "generate"])
def test_a_synthetic_source_takes_only_the_filters_that_keep_its_series(command, device_filter):
    cfg = load_config(None, {"seed": 1, "device_filter": device_filter})
    if device_filter == "Fitbit" and command != "generate":  # generate reads no [corpus] key
        with pytest.raises(ConfigError, match="^corpus.device_filter = Fitbit "):
            check_protocol(cfg, command)
    else:
        check_protocol(cfg, command)
