"""Exact-rational certificates for tilt-stability computations on the
smooth quadric threefold: twisted Chern characters, slope and central-charge
closed forms, subobject analysis for the skyscraper sheaf in an exceptional
heart, and a sound polynomial sign-certification engine, all over Q.

The package root exports the library entry points; every other name is
imported from its module (tiltcert.kernel, tiltcert.certify, ...).
"""

from .chern import catalog_lookup
from .suite import verify_all
from .tilt import TiltParams, central_charge, nu

__version__ = "0.1.0"

__all__ = [
    "TiltParams",
    "catalog_lookup",
    "central_charge",
    "nu",
    "verify_all",
    "__version__",
]
