"""Shared test configuration.

Hypothesis runs derandomized and without its example database, so every
run draws the same examples.  Its remaining cache (the source constants it
mines from local modules) goes to the system temporary directory, so a
test run writes no .hypothesis/ into the checkout.
"""

import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("tiltcert", derandomize=True, database=None)
settings.load_profile("tiltcert")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "tiltcert-hypothesis")
