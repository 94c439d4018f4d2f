"""The suite's own pytest configuration: warnings are errors, and a failing
Hypothesis test still fails as one test instead of ending the whole run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
import warnings

import pytest
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails_on_a_large_integer(x):
    assert x < 5


def test_other_warnings_stay_errors():
    with pytest.raises(DeprecationWarning):
        warnings.warn("still an error", DeprecationWarning)
'''


def test_failing_hypothesis_test_is_one_failure(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_property.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out
    assert "INTERNALERROR" not in out
