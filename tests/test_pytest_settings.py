"""pyproject.toml's pytest settings: every warning is an error, yet a
failing Hypothesis test is reported as a failure and the session goes on.
And conftest.py's Hypothesis settings: a test draws the same examples
whatever modules were imported before it."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

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


# Literals no tiltcert module holds, each outside Hypothesis's own small-int range.
DISTINCTIVE = "VALUES = (" + ", ".join(str(k * 40_009 - 987_653) for k in range(48)) + ")\n"


def _draws():
    drawn = []

    @settings(derandomize=True, database=None, max_examples=200)
    @given(st.integers(-(10**6), 10**6))
    def probe(n):
        drawn.append(n)

    probe()
    return drawn


def test_draws_do_not_depend_on_the_imported_modules(tmp_path, monkeypatch):
    # Hypothesis mines literals from the modules in sys.modules and draws
    # some examples from them; conftest.py keeps that pool empty.
    before = _draws()
    path = tmp_path / "distinctive_literals.py"
    path.write_text(DISTINCTIVE, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("distinctive_literals", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setitem(sys.modules, spec.name, module)
    assert _draws() == before
