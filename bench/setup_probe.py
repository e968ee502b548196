"""Set-up as a user pays it: a fresh interpreter imports tiltcert and builds
one workload's inputs.  `run.py` times this script from outside.

    python3 bench/setup_probe.py WORKLOAD SEED   (with src/ on PYTHONPATH)
"""

import sys
from pathlib import Path

import tiltcert  # noqa: F401  (the import is what is being timed)

import workloads

BENCH = Path(__file__).resolve().parent

if __name__ == "__main__":
    workloads.build(sys.argv[1], int(sys.argv[2]), str(BENCH.parent), str(BENCH))
