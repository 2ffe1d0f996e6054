"""The config table: every numeric key is parsed and range-checked by its entry.

Examples are derandomized and no example database is kept, so every run
tries the same inputs. Only ``load_config`` runs: no corpus, no run.
"""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hractivity.config import _KEYS, ExperimentConfig, load_config
from hractivity.errors import ConfigError

# chosen by the field's declared type, not by whether the table gives it a rule
NUMBER_TYPES = {f.name for f in fields(ExperimentConfig)
                if f.type in ("int", "float", "float | None", "tuple[int, ...]")}
NUMERIC_KEYS = sorted(key for key, (field_name, _, _) in _KEYS.items()
                      if field_name in NUMBER_TYPES)
NON_FINITE = ("nan", "inf", "-inf")
VALUES = NON_FINITE + ("-1", "0", "1e-300", "1e300", str(2**70))


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
