"""Test-session setup shared by every test module.

Hypothesis's own cache (the constants it collects from source files) goes to
a temporary directory, so no test run writes ``.hypothesis/``. It is set on
import, because Hypothesis's pytest plugin collects the constants while
collecting the tests, before any fixture runs; the directory is removed at
interpreter exit.
"""

import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(HYPOTHESIS_HOME.name)
