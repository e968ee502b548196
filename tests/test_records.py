"""The immutable value types are checked named tuples: the constructor
converts and checks its arguments, _replace goes through it again, and
no field can be set."""

from fractions import Fraction

import pytest

from tiltcert.certify import Factor, FactoredClaim, Region, default_region, side_pieces
from tiltcert.chern import CATALOG, ChernCharacter
from tiltcert.kernel import BivariatePoly, RationalInterval
from tiltcert.tilt import TiltParams

A = BivariatePoly.alpha()
FACTOR = Factor(A, ">0", "interval-subdivision")

# (record, fields that break its constructor's check, the error raised).
BAD_REPLACEMENTS = [
    (RationalInterval(0, 1), {"lo": 2}, ValueError),
    (default_region(), {"beta": RationalInterval(0, 0)}, ValueError),
    (default_region(), {"side": "alpha<=beta"}, ValueError),
    (TiltParams(1, 0), {"alpha": 0}, ValueError),
    (FACTOR, {"target": "!=0"}, ValueError),
    (FACTOR, {"strategy": "affine-vertex", "expr": A * A}, ValueError),
    (FactoredClaim((FACTOR,), ">0"), {"overall_sign": "<0"}, ValueError),
    (FactoredClaim((FACTOR,), ">0"), {"factors": ()}, ValueError),
    (ChernCharacter(1, 0, 0, 0), {"ch3": 0.5}, TypeError),
]


@pytest.mark.parametrize(
    "record, fields, error",
    BAD_REPLACEMENTS,
    ids=[f"{type(r).__name__}-{'-'.join(f)}" for r, f, _ in BAD_REPLACEMENTS],
)
def test_replace_reruns_the_checks(record, fields, error):
    with pytest.raises(error):
        record._replace(**fields)


@pytest.mark.parametrize("flags", [(True,), (True, False, True), ("no", 0), (1, 0)], ids=repr)
@pytest.mark.parametrize("field", ["beta_open", "alpha_open"])
def test_region_refuses_malformed_openness_flags(field, flags):
    # Two bools per axis: contains and describe index both ends, and a
    # truthy non-bool such as "no" would silently read as open.
    region = default_region()
    with pytest.raises(ValueError):
        Region(region.beta, region.alpha, **{field: flags})
    with pytest.raises(ValueError):
        region._replace(**{field: flags})


def test_replace_converts():
    assert type(ChernCharacter(1, 0, 0, 0)._replace(ch0=2).ch0) is Fraction
    assert type(RationalInterval(0, 1)._replace(hi=2).hi) is Fraction
    assert type(TiltParams(1, 0)._replace(s=1).s) is Fraction
    region = default_region()._replace(alpha_open=[False, True])
    assert region.alpha_open == (False, True) and hash(region) == hash(region._replace())
    claim = FactoredClaim([FACTOR], ">0")._replace(factors=[FACTOR, FACTOR])
    assert claim.factors == (FACTOR, FACTOR)
    # A piece's face table is derived: _replace rebuilds it from the region.
    (piece,) = side_pieces(default_region())
    assert piece.faces[0] == (False,) * 3
    closed = piece._replace(region=region._replace(alpha_open=(False, False)))
    assert closed.faces[0] == (True,) * 3 and closed._replace() == closed


def test_keyword_and_default_constructors():
    # The bench and the public API build records these ways.
    beta, alpha = RationalInterval(-1, 0), RationalInterval(0, 1)
    region = Region(beta=beta, alpha=alpha, alpha_open=(True, True))
    assert region == Region(beta, alpha, (False, False), (True, True), None)
    assert TiltParams(1, 0) == TiltParams(1, 0, s=Fraction(1, 6))
    assert side_pieces(region)[0].lift is None


RECORDS = [
    RationalInterval(0, 1),
    default_region(),
    FACTOR,
    FactoredClaim((FACTOR,), ">0"),
    side_pieces(default_region())[0],
    ChernCharacter(1, 0, 0, 0),
    CATALOG[0],
    TiltParams(1, 0),
]


def test_in_tests_interval_containment():
    # Containment, not tuple membership: 1/2 is not an endpoint.
    interval = RationalInterval(0, 1)
    assert Fraction(1, 2) in interval and 0 in interval and 1 in interval
    assert 2 not in interval and Fraction(-1, 3) not in interval


@pytest.mark.parametrize("record", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_no_field_can_be_set(record):
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1
