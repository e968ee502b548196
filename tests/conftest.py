"""Shared test configuration.

Hypothesis runs derandomized and without its example database, so every
run draws the same examples.  Hypothesis also draws, now and then, a
"local constant": a literal it mines from every module in sys.modules
outside site-packages and the test files.  That pool grows with whatever
the run has imported so far, so a test's examples would depend on which
tests ran before it and on the literals in src/.  The pool is kept empty
here, through a private Hypothesis name; the assert makes an upgrade that
renames it fail loudly, and tests/test_pytest_settings.py checks the
effect.  Hypothesis's remaining cache goes to the system temporary
directory, so a test run writes no .hypothesis/ into the checkout.
"""

import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir
from hypothesis.internal.conjecture import providers

assert hasattr(providers, "_get_local_constants") and hasattr(providers, "_local_constants")
providers._get_local_constants = lambda: providers._local_constants

settings.register_profile("tiltcert", derandomize=True, database=None)
settings.load_profile("tiltcert")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "tiltcert-hypothesis")
