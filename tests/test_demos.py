"""Smoke test: every demo script runs to completion and reports no failed
check."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(name: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(DEMOS / name)],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )


@pytest.mark.parametrize(
    "name", ["classical_surfaces.py", "generalized_tangent.py", "identity_suite.py"]
)
def test_demo_runs_without_failure(name):
    out = run_demo(name)
    assert out.returncode == 0, out.stderr
    assert out.stdout
    assert "FAIL" not in out.stdout
