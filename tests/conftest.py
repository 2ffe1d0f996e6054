"""Test-session setup shared by every test module.

Hypothesis's own cache (the constants it collects from source files) goes to
a temporary directory, so no test run writes ``.hypothesis/``. It is set on
import, because Hypothesis's pytest plugin collects the constants while
collecting the tests, before any fixture runs; the directory is removed at
interpreter exit.
"""

import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from hractivity.features import MAX_FILTERBANK_WEIGHTS

HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(HYPOTHESIS_HOME.name)


@pytest.fixture()
def refuse_huge_linspace(monkeypatch):
    """Make np.linspace fail on any grid longer than a refused filterbank."""
    linspace = np.linspace

    def guarded(start, stop, num=50, *args, **kwargs):
        assert num <= MAX_FILTERBANK_WEIGHTS, f"np.linspace asked for {num} points"
        return linspace(start, stop, num, *args, **kwargs)

    monkeypatch.setattr(np, "linspace", guarded)
