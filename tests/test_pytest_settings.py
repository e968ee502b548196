"""pyproject.toml's pytest settings: every warning is an error, yet a
failing Hypothesis test is reported as a failure and the session goes on."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
"""


def test_a_failing_given_test_is_reported_and_the_session_goes_on(tmp_path):
    # The Hypothesis plugin's report hook raises a third-party
    # DeprecationWarning; as an error it ended the session (INTERNALERROR)
    # before the failure was reported and before the next test ran.
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    argv = [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider"]
    result = subprocess.run(
        [*argv, "test_probe.py"], cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
