"""The test suite's own settings: a failing test is reported, not fatal."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

_TESTS = """\
import warnings

from hypothesis import given, settings, strategies as st


@settings(max_examples=5, derandomize=True, database=None)
@given(st.integers())
def test_fails_under_hypothesis(x):
    assert x < 0


def test_warns():
    warnings.warn("still an error", DeprecationWarning)


def test_passes():
    pass
"""


def test_failing_hypothesis_test_is_reported_and_the_session_goes_on(tmp_path):
    # Hypothesis reports a failing @given test through a hook that imports
    # libcst, whose mypy_extensions import warns; under "error" alone that
    # warning was an INTERNALERROR that ended the session.  Every other
    # warning still fails its test.
    (tmp_path / "test_sample.py").write_text(_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("2 failed, 1 passed")
    assert "FAILED test_sample.py::test_fails_under_hypothesis" in proc.stdout
    assert "FAILED test_sample.py::test_warns" in proc.stdout
