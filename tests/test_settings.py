"""The test settings let every failing test be reported."""

import importlib.util
import subprocess
import sys

import pytest

# Applies the filters given as arguments as pytest applies its configured
# ones, then imports what hypothesis's pytest plugin imports to report a
# failing example.
IMPORT_UNDER_FILTERS = """
import sys
from _pytest.config import apply_warning_filters
apply_warning_filters(sys.argv[1:], [])
import hypothesis.extra._patching
"""


def test_hypothesis_failure_report_imports_under_the_warning_filters(pytestconfig):
    # a warning raised there as an error aborted the whole run with
    # INTERNALERROR at the first failing hypothesis test, so no later test
    # ran and no failure was listed
    if importlib.util.find_spec("libcst") is None:
        pytest.skip("hypothesis reports failures without patches when libcst is absent")
    filters = pytestconfig.getini("filterwarnings")
    run = subprocess.run(
        [sys.executable, "-c", IMPORT_UNDER_FILTERS, *filters],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
