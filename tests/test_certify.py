"""Sign-certification engine: soundness, strictness at boundaries, witnesses."""

import hashlib
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tiltcert.certify import (
    Factor,
    FactoredClaim,
    Region,
    SIDE_LEFT,
    SIDE_RIGHT,
    _cut,
    _violates,
    _witness_search,
    certify_sign,
    default_region,
    polytope_vertices,
    side_pieces,
    sign_parts,
)
from tiltcert.kernel import (
    BivariatePoly,
    RationalInterval,
    bernstein_coefficients,
    format_rational,
    poly_eval,
    split_grid,
    substitute,
)
from tiltcert.suite import verify_all

F = Fraction
A = BivariatePoly.alpha()
B = BivariatePoly.beta()
ONE = BivariatePoly.constant(1)


def C(x):
    return BivariatePoly.constant(F(x))


def violates(value, sign):
    return {
        ">0": value <= 0,
        ">=0": value < 0,
        "<0": value >= 0,
        "<=0": value > 0,
    }[sign]


def test_region_membership():
    region = default_region()
    assert region.contains(F(1, 6), F(-1, 4))
    assert region.contains(F(1, 6), F(-1, 2))  # closed beta-lo
    assert region.contains(F(1, 6), F(0))      # closed beta-hi
    assert not region.contains(F(0), F(-1, 4))   # open alpha-lo
    assert not region.contains(F(1, 3), F(-1, 4))  # open alpha-hi
    left = default_region(SIDE_LEFT)
    assert left.contains(F(1, 6), F(-1, 4))
    assert not left.contains(F(1, 6), F(-1, 8))
    right = default_region(SIDE_RIGHT)
    assert right.contains(F(1, 6), F(-1, 8))
    assert not right.contains(F(1, 6), F(-1, 4))
    # boundary of the side line belongs to both
    assert left.contains(F(1, 4), F(-1, 4))
    assert right.contains(F(1, 4), F(-1, 4))


def test_region_describe_marks_open_ends_and_the_side():
    # Report and corpus text: "(" or ")" on an open end, the side last.
    assert default_region().describe() == "beta in [-1/2, 0], alpha in (0, 1/3)"
    region = Region(
        beta=RationalInterval(F(-1), F(1)),
        alpha=RationalInterval(F(0), F(1, 2)),
        beta_open=(True, False),
        alpha_open=(False, True),
        side=SIDE_RIGHT,
    )
    assert region.describe() == "beta in (-1, 1], alpha in [0, 1/2), alpha>=-beta"


def test_region_validation():
    with pytest.raises(ValueError):
        Region(
            beta=RationalInterval(F(0), F(0)),
            alpha=RationalInterval(F(0), F(1)),
        )
    with pytest.raises(ValueError):
        default_region("alpha=beta")


def test_factor_validation():
    with pytest.raises(ValueError):
        Factor(A, "!=0", "affine-vertex")
    with pytest.raises(ValueError):
        Factor(A, ">0", "newton")
    with pytest.raises(ValueError):
        Factor(A**2, ">0", "affine-vertex")  # not affine
    Factor(A**2, ">0", "interval-subdivision")  # fine


def test_claim_sign_composition():
    f_pos = Factor(A, ">0", "region-atom")
    f_neg = Factor(B, "<=0", "region-atom")
    FactoredClaim((f_pos, f_neg), "<=0")
    with pytest.raises(ValueError):
        FactoredClaim((f_pos, f_neg), "<0")  # nonstrict factor
    with pytest.raises(ValueError):
        FactoredClaim((f_pos, f_neg), ">=0")  # wrong polarity
    with pytest.raises(ValueError):
        FactoredClaim((), ">0")
    claim = FactoredClaim((f_pos, f_neg), "<=0")
    assert poly_eval(claim.product(), F(1, 4), F(-1, 2)) == F(-1, 8)


# The values each target admits, as signs: the truth table that target
# decoding, factor composition and violation tests must all agree with.
ADMITS = {">0": {1}, ">=0": {0, 1}, "<0": {-1}, "<=0": {-1, 0}}


def test_violates_matches_truth_table():
    expected = {
        ">0": (True, True, False),
        ">=0": (True, False, False),
        "<0": (False, True, True),
        "<=0": (False, False, True),
    }
    for sign, row in expected.items():
        orient, strict = sign_parts(sign)
        assert tuple(_violates(orient * value, strict) for value in (-1, 0, 1)) == row
        assert row == tuple(value not in ADMITS[sign] for value in (-1, 0, 1))


def test_claim_acceptance_matches_truth_table():
    # A claim is accepted exactly when every sign its factors' product can
    # take is admitted by the overall sign.
    targets = tuple(ADMITS)
    combos = [(t,) for t in targets]
    combos += [c + (t,) for c in combos for t in targets]
    combos += [c + (t,) for c in combos if len(c) == 2 for t in targets]
    assert len(combos) == 4 + 16 + 64
    accepted = 0
    for combo in combos:
        products = {1}
        for target in combo:
            products = {p * v for p in products for v in ADMITS[target]}
        factors = tuple(Factor(A, target, "region-atom") for target in combo)
        for overall in targets:
            if products <= ADMITS[overall]:
                FactoredClaim(factors, overall)
                accepted += 1
            else:
                with pytest.raises(ValueError):
                    FactoredClaim(factors, overall)
    # Each combination admits its implied sign, and a strict one its
    # non-strict weakening too.
    assert accepted == 84 + sum(all(t in (">0", "<0") for t in c) for c in combos)


def test_affine_vertex_certified():
    # The strategy selects no code: the product is bisected like any other.
    # The Bernstein coefficients of an affine polynomial are its corner
    # values, the least being 1/6 at the vertex (alpha, beta) = (1/3, -1/2),
    # so the root box decides it.
    claim = FactoredClaim((Factor(ONE + B - A, ">0", "affine-vertex"),), ">0")
    cert = certify_sign(claim, default_region())
    assert cert.status == "certified"
    assert cert.boxes == 1 and cert.depth == 0
    assert poly_eval(claim.product(), F(1, 3), F(-1, 2)) == F(1, 6)


def test_bernstein_certifies_at_root():
    # 2b^2 + 2b <= 0 on beta in [-1/2, 0], so the product is at most
    # -1 - 2a^2; the root box's Bernstein coefficients are all negative.
    claim = FactoredClaim(
        (Factor(2 * B**2 + 2 * B - 1 - 2 * A**2, "<0", "interval-subdivision"),),
        "<0",
    )
    cert = certify_sign(claim, default_region())
    assert cert.status == "certified"
    assert cert.boxes == 1 and cert.depth == 0


def test_bernstein_certifies_tangent_zero_at_root():
    # b^2 + b - a^2 < 0 holds on the region but touches 0 at the excluded
    # corner (alpha, beta) = (0, 0); monomial hulls alone can never certify
    # this, Bernstein coefficients settle it without any splitting.
    claim = FactoredClaim(
        (Factor(B**2 + B - A**2, "<0", "interval-subdivision"),), "<0"
    )
    cert = certify_sign(claim, default_region())
    assert cert.status == "certified"
    assert cert.boxes == 1 and cert.depth == 0


def test_false_claim_fails_with_witness():
    claim = FactoredClaim(
        (Factor(B**2 - A**2, ">0", "interval-subdivision"),), ">0"
    )
    region = default_region()
    cert = certify_sign(claim, region)
    assert cert.status == "failed"
    alpha, beta = cert.witness
    assert region.contains(alpha, beta)
    assert violates(poly_eval(claim.product(), alpha, beta), ">0")


def test_zero_polynomial_claims():
    zero = BivariatePoly()
    nonstrict = FactoredClaim(
        (Factor(zero, "<=0", "interval-subdivision"),), "<=0"
    )
    cert = certify_sign(nonstrict, default_region())
    assert cert.status == "certified"
    strict = FactoredClaim((Factor(zero, "<0", "interval-subdivision"),), "<0")
    cert = certify_sign(strict, default_region())
    assert cert.status == "failed"
    alpha, beta = cert.witness
    assert poly_eval(zero, alpha, beta) == 0


def test_strict_atom_on_open_bound():
    # alpha > 0: the zeros of alpha on the root box fill its alpha = 0
    # edge, whose centre (0, -1/4) lies on the open alpha-lo facet, so the
    # zero-face rule certifies the root box without a split.
    claim = FactoredClaim((Factor(A, ">0", "region-atom"),), ">0")
    cert = certify_sign(claim, default_region())
    assert cert.status == "certified"
    assert cert.boxes == 1 and cert.depth == 0
    assert not default_region().contains(F(0), F(-1, 4))
    # -beta >= 0: zero at closed beta-hi is fine nonstrictly ...
    claim = FactoredClaim((Factor(-B, ">=0", "region-atom"),), ">=0")
    assert certify_sign(claim, default_region()).status == "certified"
    # ... but -beta > 0 is refuted at the closed facet beta = 0.
    claim = FactoredClaim((Factor(-B, ">0", "region-atom"),), ">0")
    cert = certify_sign(claim, default_region())
    assert cert.status == "failed"
    alpha, beta = cert.witness
    assert beta == 0 and violates(poly_eval(-B, alpha, beta), ">0")


def test_strict_vertex_zero_on_closed_facet_fails():
    claim = FactoredClaim((Factor(B + F(1, 2), ">0", "affine-vertex"),), ">0")
    cert = certify_sign(claim, default_region())
    assert cert.status == "failed"
    assert cert.witness[1] == F(-1, 2)


def test_side_constraint_vertex_logic():
    # On alpha <= -beta the expression beta - alpha is < 0: its only zero in
    # the closed polytope is the corner (0, 0), excluded by the open alpha
    # bound working jointly with the side line.
    claim = FactoredClaim((Factor(B - A, "<0", "region-atom"),), "<0")
    cert = certify_sign(claim, default_region(SIDE_LEFT))
    assert cert.status == "certified"
    # On the other side it reaches 0 only at (0,0) as well, but a nonstrict
    # bound needs no exclusions.
    claim = FactoredClaim((Factor(B - A, "<=0", "region-atom"),), "<=0")
    assert certify_sign(claim, default_region(SIDE_RIGHT)).status == "certified"
    # alpha + beta changes sign across the region: fails without a side ...
    claim = FactoredClaim((Factor(A + B, ">=0", "affine-vertex"),), ">=0")
    cert = certify_sign(claim, default_region())
    assert cert.status == "failed"
    # ... and is an atom of the right side.
    claim = FactoredClaim((Factor(A + B, ">=0", "region-atom"),), ">=0")
    assert certify_sign(claim, default_region(SIDE_RIGHT)).status == "certified"


def test_interval_side_dependence_certifies_on_pieces():
    # beta^2 - alpha^2 >= 0 holds exactly on the left subregion (and its
    # negation on the right), with equality along the side line.  The side
    # pieces never straddle the line, so both certify; the strict versions
    # fail on the line itself.
    for side, core in ((SIDE_LEFT, B**2 - A**2), (SIDE_RIGHT, A**2 - B**2)):
        weak = FactoredClaim((Factor(core, ">=0", "interval-subdivision"),), ">=0")
        strict = FactoredClaim((Factor(core, ">0", "interval-subdivision"),), ">0")
        for depth in (2, 12):
            assert certify_sign(weak, default_region(side), max_depth=depth).status == "certified"
            cert = certify_sign(strict, default_region(side), max_depth=depth)
            assert cert.status == "failed"
            assert cert.witness == (F(1, 6), F(-1, 6))
    # the same inequality weakened to hold on the full region does certify
    weaker = FactoredClaim(
        (Factor(F(1, 4) - (A + B) ** 2, ">=0", "interval-subdivision"),), ">=0"
    )
    cert = certify_sign(weaker, default_region())
    assert cert.status == "certified"


def test_one_point_side_region():
    # The side line meets the box only at its corner (2/5, -2/5), so the
    # region is that one point, where (a + b)(1 + a^2) is exactly 0.
    region = Region(
        beta=RationalInterval(F(-2, 5), F(3, 5)),
        alpha=RationalInterval(F(2, 5), F(17, 5)),
        beta_open=(False, True),
        side=SIDE_LEFT,
    )
    expr = (A + B) * (ONE + A**2)
    strict = FactoredClaim((Factor(expr, ">0", "interval-subdivision"),), ">0")
    cert = certify_sign(strict, region)
    assert cert.status == "failed"
    assert cert.witness == (F(2, 5), F(-2, 5))
    weak = FactoredClaim((Factor(expr, ">=0", "interval-subdivision"),), ">=0")
    assert certify_sign(weak, region).status == "certified"


def test_zero_affine_factor_follows_the_face_rule():
    # The zero polynomial vanishes on the whole polytope, the face spanned by
    # all its vertices: a strict sign fails on a full region, and holds
    # vacuously on a one-point region whose point is excluded.
    zero = FactoredClaim((Factor(BivariatePoly(), ">0", "affine-vertex"),), ">0")
    assert certify_sign(zero, default_region()).status == "failed"
    empty = Region(
        beta=RationalInterval(F(-2, 5), F(3, 5)),
        alpha=RationalInterval(F(2, 5), F(17, 5)),
        beta_open=(True, False),
        side=SIDE_LEFT,
    )
    assert polytope_vertices(empty) == ((F(2, 5), F(-2, 5)),)
    assert certify_sign(zero, empty).status == "certified"


def test_collapsed_edge_takes_its_point_openness():
    # On alpha >= -beta the alpha = 0 edge of the default box shrinks to the
    # point (0, 0), the only zero of a^2 + b^2: the claim stands or falls
    # with the openness of alpha-lo.
    claim = FactoredClaim((Factor(A**2 + B**2, ">0", "interval-subdivision"),), ">0")
    closed = replace(default_region(SIDE_RIGHT), alpha_open=(False, True))
    cert = certify_sign(claim, closed)
    assert cert.status == "failed"
    assert cert.witness == (0, 0)
    assert certify_sign(claim, default_region(SIDE_RIGHT)).status == "certified"


def test_acute_corner_on_an_open_bound():
    # The side line leaves the box through its corner (0, 0), where beta-hi
    # is open although both piece edges meeting there are closed: the one
    # zero of a^2 + b^2 lies outside the region.
    region = Region(
        beta=RationalInterval(F(-1), F(0)),
        alpha=RationalInterval(F(0), F(1)),
        beta_open=(False, True),
        side=SIDE_LEFT,
    )
    claim = FactoredClaim((Factor(A**2 + B**2, ">0", "interval-subdivision"),), ">0")
    assert certify_sign(claim, region).status == "certified"
    closed = replace(region, beta_open=(False, False))
    cert = certify_sign(claim, closed)
    assert cert.status == "failed" and cert.witness == (0, 0)


def test_side_pieces_of_the_default_regions():
    # No side: the region itself.  alpha <= -beta: the box under beta = -1/3
    # and the triangle above it.  alpha >= -beta: the triangle alone, whose
    # alpha = 0 edge collapses to the point (0, 0).
    (plain,) = side_pieces(default_region())
    assert (plain.alpha, plain.t, plain.lift) == (
        default_region().alpha,
        default_region().beta,
        None,
    )
    box, slant = side_pieces(default_region(SIDE_LEFT))
    assert box.t == RationalInterval(F(-1, 2), F(-1, 3)) and box.lift is None
    assert slant.alpha == RationalInterval(0, F(1, 3))
    assert slant.lift == -F(1, 3) + B * (F(1, 3) - A)
    (slant,) = side_pieces(default_region(SIDE_RIGHT))
    assert slant.lift == -A + B * A
    assert slant.point(F(0), F(1, 2)) == (0, 0)


def test_axis_cuts_decide_even_powers_across_zero():
    # beta in [-7/8, 1/2] straddles 0, where the Bernstein coefficients of
    # b^2 on the whole interval reach -7/16.  Cut at beta = 0, each piece
    # decides the claim on its root box.
    region = Region(
        beta=RationalInterval(F(-7, 8), F(1, 2)),
        alpha=RationalInterval(F(1, 6), F(1, 2)),
    )
    assert [p.t for p in side_pieces(region)] == [
        RationalInterval(F(-7, 8), 0),
        RationalInterval(0, F(1, 2)),
    ]
    for depth in (2, 8, 16):
        weak = FactoredClaim((Factor(B**2, ">=0", "interval-subdivision"),), ">=0")
        cert = certify_sign(weak, region, max_depth=depth)
        assert (cert.status, cert.boxes, cert.depth) == ("certified", 2, 0)
        # The strict claim fails at the corner (1/6, 0) of the first piece.
        strict = FactoredClaim((Factor(B**2, ">0", "interval-subdivision"),), ">0")
        cert = certify_sign(strict, region, max_depth=depth)
        assert (cert.status, cert.witness, cert.boxes) == ("failed", (F(1, 6), 0), 1)
    # On a side-cut region the plain box above beta = -1/6 is cut at
    # beta = 0 too, and the slanted piece's t is never cut.
    region = Region(
        beta=RationalInterval(F(-1, 4), F(1, 4)),
        alpha=RationalInterval(F(1, 6), F(1, 4)),
        beta_open=(True, True),
        alpha_open=(True, False),
        side=SIDE_RIGHT,
    )
    assert [(p.t, p.lift is None) for p in side_pieces(region)] == [
        (RationalInterval(F(-1, 6), 0), True),
        (RationalInterval(0, F(1, 4)), True),
        (RationalInterval(0, 1), False),
    ]
    claim = FactoredClaim(
        (Factor(A**2 * B**2 * (B + 1), ">=0", "interval-subdivision"),), ">=0"
    )
    for depth in (2, 8, 16):
        cert = certify_sign(claim, region, max_depth=depth)
        assert (cert.status, cert.boxes, cert.depth) == ("certified", 3, 0)


def test_max_depth_zero_is_inconclusive():
    claim = FactoredClaim(
        (Factor(B**2 + B - A**2, "<0", "interval-subdivision"),), "<0"
    )
    cert = certify_sign(claim, default_region(), max_depth=0)
    assert cert.status == "inconclusive"
    assert any("subdivision disabled" in note for note in cert.notes)


def test_one_verify_all_builds_each_region_once():
    # The default region and its two sides: every other certify_sign call
    # of the suite hits the cache.
    side_pieces.cache_clear()
    polytope_vertices.cache_clear()
    verify_all()
    for cached in (side_pieces, polytope_vertices):
        assert cached.cache_info().misses <= 3
        assert isinstance(cached.cache_info().maxsize, int)


def test_equal_regions_share_one_cache_entry():
    side_pieces.cache_clear()
    first = side_pieces(default_region(SIDE_LEFT))
    second = side_pieces(replace(default_region(), side=SIDE_LEFT))
    assert second is first
    info = side_pieces.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    # Openness flags given as lists are stored as tuples, so the region
    # still keys the cache.
    listed = Region(default_region().beta, default_region().alpha, [False, False], [True, True])
    assert side_pieces(listed) is side_pieces(default_region())


def test_determinism():
    claims = [
        FactoredClaim((Factor(B**2 - A**2, ">0", "interval-subdivision"),), ">0"),
        FactoredClaim((Factor(B**2 + B - A**2, "<0", "interval-subdivision"),), "<0"),
        FactoredClaim(
            (Factor(B**2 - A**2, ">=0", "interval-subdivision"),), ">=0"
        ),
    ]
    for region in (default_region(), default_region(SIDE_LEFT)):
        for claim in claims:
            first = certify_sign(claim, region, max_depth=10)
            second = certify_sign(claim, region, max_depth=10)
            assert first.status == second.status
            assert first.witness == second.witness
            assert first.boxes == second.boxes
            assert first.depth == second.depth


def test_certified_monotone_in_depth():
    # (beta + 1/4)^2 + 1/100 > 0 everywhere, but the middle Bernstein
    # coefficient on the root box is 1/100 - 1/16 < 0, so certification
    # genuinely requires splitting: inconclusive below depth 2, certified
    # at depth 2, and certified (with the identical box count) beyond.
    claim = FactoredClaim(
        (Factor((B + F(1, 4)) ** 2 + F(1, 100), ">0", "interval-subdivision"),),
        ">0",
    )
    for depth in (0, 1):
        shallow = certify_sign(claim, default_region(), max_depth=depth)
        assert shallow.status == "inconclusive"
    for depth in (2, 3, 8, 16):
        cert = certify_sign(claim, default_region(), max_depth=depth)
        assert cert.status == "certified"
        assert cert.depth == 2 and cert.boxes == 7


def _random_claim(rng):
    factors = []
    for _ in range(rng.randrange(1, 4)):
        kind = rng.randrange(3)
        if kind == 0:
            expr = (
                C(F(rng.randrange(-2, 3), rng.randrange(1, 4)))
                + F(rng.randrange(-2, 3)) * A
                + F(rng.randrange(-2, 3)) * B
            )
            strategy = "affine-vertex"
        elif kind == 1:
            expr = rng.choice((A, B, A + B, B - A, -B, ONE + B))
            strategy = "region-atom"
        else:
            coeffs = {}
            for _ in range(rng.randrange(1, 5)):
                coeffs[(rng.randrange(0, 3), rng.randrange(0, 3))] = F(
                    rng.randrange(-4, 5), rng.randrange(1, 4)
                )
            expr = BivariatePoly(coeffs)
            strategy = "interval-subdivision"
        factors.append(Factor(expr, rng.choice((">0", ">=0", "<0", "<=0")), strategy))
    polarity = 1
    strict = True
    for f in factors:
        if f.target in ("<0", "<=0"):
            polarity = -polarity
        if f.target in (">=0", "<=0"):
            strict = False
    implied = {1: ">0" if strict else ">=0", -1: "<0" if strict else "<=0"}[polarity]
    weaker = {">0": ">=0", "<0": "<=0"}
    overall = implied
    if implied in weaker and rng.random() < 0.3:
        overall = weaker[implied]
    return FactoredClaim(tuple(factors), overall)


def test_witness_found_before_any_subdivision():
    # The bisection stops at the first box that yields a violating point.
    # With alpha closed, the root box's Bernstein corner (0, -1/2) breaks
    # alpha - 1/4 > 0, so no box is split.
    claim = FactoredClaim(
        (Factor(A - F(1, 4), ">0", "affine-vertex"),), ">0"
    )
    closed = replace(default_region(), alpha_open=(False, False))
    cert = certify_sign(claim, closed)
    assert (cert.status, cert.witness) == ("failed", (0, F(-1, 2)))
    assert cert.boxes == 1 and cert.depth == 0
    # On the open strip that corner is excluded: the root box splits once,
    # and a corner of its low half ends the bisection.
    region = default_region()
    cert = certify_sign(claim, region)
    assert cert.status == "failed"
    assert cert.boxes == 2 and cert.depth == 1
    alpha, beta = cert.witness
    assert region.contains(alpha, beta)
    assert alpha - F(1, 4) <= 0


def test_tiny_violation_sliver_fails_inside_the_sliver():
    # alpha - 1/100 > 0 is false only on the thin sliver 0 < alpha <= 1/100,
    # which no witness grid point hits; the bisection reaches it and stops
    # at a point of it, never at a bogus certificate.
    claim = FactoredClaim(
        (Factor(A - F(1, 100), ">0", "affine-vertex"),), ">0"
    )
    region = default_region()
    cert = certify_sign(claim, region)
    assert cert.status == "failed"
    alpha, beta = cert.witness
    assert 0 < alpha <= F(1, 100)
    assert region.contains(alpha, beta)
    assert violates(poly_eval(claim.product(), alpha, beta), ">0")


def test_false_only_at_irrational_points_is_inconclusive():
    # (alpha^2 - 1/50)^2 > 0 fails only on alpha = 1/sqrt(50): no rational
    # point violates it, so no depth may certify or refute it.
    expr = (A**2 - F(1, 50)) ** 2
    claim = FactoredClaim((Factor(expr, ">0", "interval-subdivision"),), ">0")
    for region in (default_region(), default_region(SIDE_LEFT)):
        for depth in (8, 16):
            cert = certify_sign(claim, region, max_depth=depth)
            assert cert.status == "inconclusive"
            assert cert.witness is None


# --- golden outcomes ---------------------------------------------------------

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _golden_cases():
    rng = random.Random(0x5EED)
    regions = (default_region(), default_region(SIDE_LEFT), default_region(SIDE_RIGHT))
    for trial in range(240):
        yield _random_claim(rng), regions[trial % 3], 8
    for side, core in ((SIDE_LEFT, B**2 - A**2), (SIDE_RIGHT, A**2 - B**2)):
        for target in (">=0", ">0"):
            claim = FactoredClaim((Factor(core, target, "interval-subdivision"),), target)
            for depth in (2, 6, 10):
                yield claim, default_region(side), depth
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import corpus
    finally:
        sys.path.remove(str(BENCH_DIR))
    yield from corpus.subdivide_corpus(1)


def _outcome_line(cert):
    witness = "-"
    if cert.witness is not None:
        witness = ",".join(format_rational(x) for x in cert.witness)
    return f"{cert.status} {witness} {cert.boxes} {cert.depth}\n"


def test_golden_outcomes():
    # Pins status, witness, boxes and depth over a fixed claim set, so that
    # any change to the certifier's arithmetic that moves a decision shows.
    # A claim is its product: certifying the product as one factor gives the
    # same outcome.
    digest = hashlib.sha256()
    count = 0
    for claim, region, depth in _golden_cases():
        line = _outcome_line(certify_sign(claim, region, max_depth=depth))
        product_cert = certify_sign(_product_claim(claim), region, max_depth=depth)
        assert _outcome_line(product_cert) == line
        digest.update(line.encode())
        count += 1
    assert count == 240 + 12 + 27
    assert digest.hexdigest() == (
        "ea64731dd16f837401217b186e42ce47ebbdf93731fcd0bf0ddbf47f67dde17e"
    )


def test_golden_outcomes_without_side():
    # The golden claims on regions without a side cut, pinned on their own:
    # how side-cut regions are certified must not move any of these.
    digest = hashlib.sha256()
    count = 0
    for claim, region, depth in _golden_cases():
        if region.side is None:
            digest.update(_outcome_line(certify_sign(claim, region, max_depth=depth)).encode())
            count += 1
    assert count == 80 + 9
    assert digest.hexdigest() == (
        "8a45a189f6ec2278ea168f61957d94e2a5c527c772a9a272e3fcd381775c1faf"
    )


def _product_claim(claim):
    """The claim as one interval-subdivision factor: its product."""
    sign = claim.overall_sign
    return FactoredClaim((Factor(claim.product(), sign, "interval-subdivision"),), sign)


def test_golden_product_outcomes():
    # Pins status and witness of every golden claim certified as its
    # product, the one polynomial the claim is about.  Boxes and depth are
    # left out: they follow the bisection's stopping rule, not the claim.
    digest = hashlib.sha256()
    count = 0
    for claim, region, depth in _golden_cases():
        cert = certify_sign(_product_claim(claim), region, max_depth=depth)
        status, witness, _, _ = _outcome_line(cert).split()
        digest.update(f"{status} {witness}\n".encode())
        count += 1
    assert count == 240 + 12 + 27
    assert digest.hexdigest() == (
        "8634f11334c2a207abe09ad64d51090f29fb8265a2acb9ddcd5925564a65773e"
    )


# --- witness search against a Fraction reference -----------------------------


def _witness(product, sign, region, candidates):
    """_witness_search for product meeting sign, oriented as certify_sign does."""
    orient, strict = sign_parts(sign)
    return _witness_search(orient * product, strict, region, candidates)


def _witness_search_reference(product, overall_sign, region, candidates):
    # The witness search as a plain Fraction scan: candidates, polytope
    # vertices, then the 4, 8, 16 and 32 grids point by point, each point
    # tested with Region.contains and evaluated once.
    seen = set()
    grids = (
        (
            region.alpha.lo + region.alpha.width * F(i, g),
            region.beta.lo + region.beta.width * F(j, g),
        )
        for g in (4, 8, 16, 32)
        for i in range(g + 1)
        for j in range(g + 1)
    )
    for point in (*candidates, *polytope_vertices(region), *grids):
        if point in seen or not region.contains(*point):
            continue
        seen.add(point)
        if violates(poly_eval(product, *point), overall_sign):
            return point
    return None


# Endpoints with non-dyadic denominators, so grid points and the side line
# never line up by accident of a power-of-two box.
endpoints = st.builds(F, st.integers(-6, 6), st.sampled_from((1, 2, 3, 5, 7)))
widths = st.builds(F, st.integers(1, 6), st.sampled_from((1, 2, 3, 5, 7)))


@st.composite
def regions(draw):
    beta = RationalInterval(lo := draw(endpoints), lo + draw(widths))
    alpha = RationalInterval(lo := draw(endpoints), lo + draw(widths))
    # Most draws slide the alpha interval so that one box corner lies on
    # alpha = -beta: the side line then leaves the box through that corner,
    # or meets the region only there.
    corner = draw(st.sampled_from((None, 0, 1, 2, 3)))
    if corner is not None:
        shift = -(alpha.lo, alpha.hi)[corner % 2] - (beta.lo, beta.hi)[corner // 2]
        alpha = RationalInterval(alpha.lo + shift, alpha.hi + shift)
    return Region(
        beta=beta,
        alpha=alpha,
        beta_open=(draw(st.booleans()), draw(st.booleans())),
        alpha_open=(draw(st.booleans()), draw(st.booleans())),
        side=draw(st.sampled_from((None, SIDE_LEFT, SIDE_RIGHT))),
    )


def _preimage(piece, alpha, beta):
    """(alpha, t) with piece.point(alpha, t) == (alpha, beta), or None."""
    if piece.lift is None:
        return alpha, beta
    lo, hi = (poly_eval(piece.lift, alpha, t) for t in (0, 1))
    if lo == hi:
        return (alpha, F(1, 2)) if beta == lo else None
    return alpha, (beta - lo) / (hi - lo)


@settings(max_examples=150, deadline=None)
@given(regions())
def test_side_pieces_cover_the_region_exactly(region):
    pieces = side_pieces(region)
    # Each piece lies in the closed region: the lift of its box is the hull
    # of its lifted corners.
    closure = replace(region, alpha_open=(False, False), beta_open=(False, False))
    for piece in pieces:
        assert piece.alpha.width > 0 and piece.t.width > 0
        # Each box coordinate keeps one sign.
        assert not piece.alpha.lo < 0 < piece.alpha.hi
        assert not piece.t.lo < 0 < piece.t.hi
        for a in (piece.alpha.lo, piece.alpha.hi):
            for t in (piece.t.lo, piece.t.hi):
                assert closure.contains(*piece.point(a, t))
    # Test points: a grid of the box, the side line, the polytope vertices,
    # and the corners and edge midpoints of every piece, which lie on the
    # cuts between pieces and on collapsed edges.
    g = 6
    points = set(polytope_vertices(region))
    for i in range(g + 1):
        alpha = region.alpha.lo + region.alpha.width * F(i, g)
        points.add((alpha, -alpha))
        points.update((alpha, region.beta.lo + region.beta.width * F(j, g)) for j in range(g + 1))
    for piece in pieces:
        ts = (piece.t.lo, (piece.t.lo + piece.t.hi) / 2, piece.t.hi)
        for a in (piece.alpha.lo, (piece.alpha.lo + piece.alpha.hi) / 2, piece.alpha.hi):
            points.update(piece.point(a, t) for t in ts)
    if not pieces:
        # Then the region is one polytope vertex at most, which the
        # certifier checks on its own.
        vertices = polytope_vertices(region)
        assert len(vertices) <= 1
        assert all(point in vertices for point in points if region.contains(*point))
        return
    for alpha, beta in points:
        preimages = [(piece, _preimage(piece, alpha, beta)) for piece in pieces]
        covered = any(
            pre is not None
            and piece.alpha.contains(pre[0])
            and piece.t.contains(pre[1])
            and piece.contains(*pre)
            for piece, pre in preimages
        )
        assert covered == region.contains(alpha, beta)


@st.composite
def witness_cases(draw):
    claim = _random_claim(draw(st.randoms(use_true_random=False)))
    region = draw(regions())
    # Candidates: coarse grid points (which the grid stage meets again)
    # and points off every grid, some of them outside the region.
    candidates = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            g = draw(st.sampled_from((4, 8)))
            i, j = draw(st.integers(0, g)), draw(st.integers(0, g))
            candidates.append(
                (
                    region.alpha.lo + region.alpha.width * F(i, g),
                    region.beta.lo + region.beta.width * F(j, g),
                )
            )
        else:
            candidates.append((draw(endpoints), draw(endpoints)))
    return claim, region, candidates


def _one_factor_case(expr, sign, beta, alpha, beta_open=(False, False), side=None):
    claim = FactoredClaim((Factor(expr, sign, "interval-subdivision"),), sign)
    region = Region(RationalInterval(*beta), RationalInterval(*alpha), beta_open, side=side)
    return claim, region, []


@settings(max_examples=100, deadline=None)
@given(witness_cases())
# The side line meets the box only at the corner (0, 0), where a^2 is 0:
# every other grid row has no point on the allowed side (no witness).
@example(_one_factor_case(A**2, "<=0", (0, 1), (0, 1), side=SIDE_LEFT))
@example(_one_factor_case(A**2, "<=0", (-1, 0), (-1, 0), side=SIDE_RIGHT))
# Both beta ends open: the vertices are out, and the witness is the 16-grid
# point just below the open upper end.
@example(_one_factor_case(B**2 - F(1, 9), "<0", (F(-1, 3), F(2, 5)), (F(1, 7), F(2, 3)), (True, True)))
# Zero only at (1/32, 7/32) and (3/32, 5/32), odd indices of the 32-grid
# over the unit box: no coarser grid sees them, and the lower alpha wins.
@example(
    _one_factor_case(
        ((32 * A - 3) ** 2 + (32 * B - 5) ** 2) * ((32 * A - 1) ** 2 + (32 * B - 7) ** 2),
        ">0",
        (0, 1),
        (0, 1),
    )
)
# Zero at (1/32, 1/32), in 32-grid row 1, and at (1/4, 1/4), in row 8: the
# 4-grid reads the second before the 32-grid reads the first.
@example(
    _one_factor_case(
        ((32 * A - 1) ** 2 + (32 * B - 1) ** 2) * ((4 * A - 1) ** 2 + (4 * B - 1) ** 2),
        ">0",
        (0, 1),
        (0, 1),
    )
)
# Zero at (1/4, 1/32) and (1/4, 1/4), both in 32-grid row 8: within the
# row, the 4-grid point wins over the lower beta index.
@example(
    _one_factor_case(
        ((32 * A - 8) ** 2 + (32 * B - 1) ** 2) * ((4 * A - 1) ** 2 + (4 * B - 1) ** 2),
        ">0",
        (0, 1),
        (0, 1),
    )
)
def test_witness_search_matches_fraction_reference(case):
    claim, region, candidates = case
    product = claim.product()
    expected = _witness_search_reference(product, claim.overall_sign, region, candidates)
    assert _witness(product, claim.overall_sign, region, candidates) == expected


# --- affine zero sets against the tight-bound reference ----------------------


def _affine_reference(factor, region):
    # The vertex rule for affine factors as a set of tight bounds: a strict
    # target with a zero minimum certifies iff some open-flagged bound is
    # tight at every zero vertex.  Returns (ok, candidates).
    verts = polytope_vertices(region)
    orient = 1 if factor.target in (">0", ">=0") else -1
    strict = factor.target in (">0", "<0")
    values = [orient * poly_eval(factor.expr, *v) for v in verts]
    candidates = [
        v for v, x in zip(verts, values) if (x < 0 or (strict and x == 0)) and region.contains(*v)
    ]
    if not verts or min(values) > 0 or (min(values) == 0 and not strict):
        return True, candidates
    if min(values) < 0 or factor.expr.is_zero():
        return False, candidates

    def tight(a, b):
        bounds = {
            "alpha-lo": (a == region.alpha.lo, region.alpha_open[0]),
            "alpha-hi": (a == region.alpha.hi, region.alpha_open[1]),
            "beta-lo": (b == region.beta.lo, region.beta_open[0]),
            "beta-hi": (b == region.beta.hi, region.beta_open[1]),
            "side": (region.side is not None and a + b == 0, False),
        }
        return {name for name, (hit, is_open) in bounds.items() if hit and is_open}

    shared = set.intersection(*(tight(*v) for v, x in zip(verts, values) if x == 0))
    return bool(shared), candidates


@st.composite
def planted_affine(draw):
    # An affine expression through a drawn polytope vertex in a drawn
    # direction, or through two distinct vertices: the latter vanishes on a
    # box edge, the side line or a diagonal of the polytope.
    region = draw(regions())
    vertices = polytope_vertices(region)
    assume(vertices)
    a0, b0 = draw(st.sampled_from(vertices))
    others = [v for v in vertices if v != (a0, b0)]
    if others and draw(st.booleans()):
        a1, b1 = draw(st.sampled_from(others))
        du, dv = b1 - b0, a0 - a1
    else:
        du, dv = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        assume(du or dv)
    scale = draw(st.sampled_from((1, -1, F(1, 3), -3)))
    return region, scale * (du * (A - a0) + dv * (B - b0))


@settings(max_examples=150, deadline=None)
@given(planted_affine())
def test_affine_zero_set_matches_tight_bound_reference(case):
    # The bisection certifies an affine claim exactly when the vertex rule
    # does.  Where the reference finds a witness the claim fails too, maybe
    # at another point; it may also fail where the reference's vertices and
    # grids find no witness.
    region, expr = case
    for target in (">0", ">=0", "<0", "<=0"):
        factor = Factor(expr, target, "affine-vertex")
        cert = certify_sign(FactoredClaim((factor,), target), region)
        ok, candidates = _affine_reference(factor, region)
        witness = None if ok else _witness(expr, target, region, candidates)
        status = "certified" if ok else "failed" if witness else "inconclusive"
        assert cert.status == status or (status, cert.status) == ("inconclusive", "failed")
        if cert.status == "failed":
            assert region.contains(*cert.witness)
            assert violates(poly_eval(expr, *cert.witness), target)


# --- three-valued soundness against an exact grid ----------------------------


def _assert_sound(claim, region, cert):
    # certified: the claimed sign holds at every exact grid point of the
    # region and at its polytope vertices.  failed: the witness lies in the
    # region and violates it.
    product = claim.product()
    if cert.status == "certified":
        grid = 24
        points = set(polytope_vertices(region))
        for i in range(grid + 1):
            alpha = region.alpha.lo + F(i, grid) * region.alpha.width
            for j in range(grid + 1):
                points.add((alpha, region.beta.lo + F(j, grid) * region.beta.width))
        for alpha, beta in points:
            if region.contains(alpha, beta):
                assert not violates(poly_eval(product, alpha, beta), claim.overall_sign)
    elif cert.status == "failed":
        assert region.contains(*cert.witness)
        assert violates(poly_eval(product, *cert.witness), claim.overall_sign)
    else:
        assert cert.status == "inconclusive" and cert.witness is None


@settings(max_examples=80, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.one_of(
        st.sampled_from([default_region(side) for side in (None, SIDE_LEFT, SIDE_RIGHT)]),
        regions(),
    ),
)
def test_randomized_soundness(rng, region):
    claim = _random_claim(rng)
    _assert_sound(claim, region, certify_sign(claim, region, max_depth=8))


@settings(max_examples=80, deadline=None)
@given(regions(), st.data())
def test_soundness_with_a_zero_on_the_boundary(region, data):
    # Claims that vanish at a vertex of the region's polytope, or on the box
    # lines through it: the zeros that one-point regions, collapsed edges
    # and the zero-face test have to judge, and random claims almost never
    # have.
    vertices = polytope_vertices(region)
    assume(vertices)
    a0, b0 = data.draw(st.sampled_from(vertices))
    expr = data.draw(
        st.sampled_from(((A - a0) ** 2 + (B - b0) ** 2, (A - a0) ** 2, (B - b0) ** 2))
    )
    target = data.draw(st.sampled_from((">0", ">=0")))
    claim = FactoredClaim((Factor(expr, target, "interval-subdivision"),), target)
    _assert_sound(claim, region, certify_sign(claim, region, max_depth=8))


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), regions(), st.integers(0, 8), st.data())
def test_orientation_symmetry(rng, region, max_depth, data):
    # p > 0 and -p < 0 are one claim, and so are p >= 0 and -p <= 0: they
    # get the same status, witness, boxes and depth.  A third of the
    # products carry a squared affine factor, so zero faces come up too.
    p = _random_claim(rng).product()
    if data.draw(st.integers(0, 2)) == 0:
        a0, b0, k = data.draw(endpoints), data.draw(endpoints), data.draw(st.integers(-1, 1))
        p = p * (A - a0 + k * (B - b0)) ** 2
    for target, mirror in ((">0", "<0"), (">=0", "<=0")):
        certs = (
            certify_sign(_subdivision_claim(p, target), region, max_depth),
            certify_sign(_subdivision_claim(-p, mirror), region, max_depth),
        )
        first, second = ((c.status, c.witness, c.boxes, c.depth) for c in certs)
        assert first == second


# --- integer cells and alternating splits against intervals and width ratios --


def _halves(interval):
    """Midpoint halving, as the interval bisection loop did it."""
    mid = (interval.lo + interval.hi) / 2
    return RationalInterval(interval.lo, mid), RationalInterval(mid, interval.hi)


def _interval_certify_box(poly, strict, piece, box_alpha, box_beta, candidates, grid):
    """_certify_box on a box given by its rational intervals, as it was
    before boxes became integer cells."""
    if grid is None:
        grid = bernstein_coefficients(poly, box_alpha, box_beta)[1]
    m, n = len(grid) - 1, len(grid[0]) - 1
    low = min(map(min, grid))
    if low > 0 or (not strict and low >= 0):
        return "certified", grid
    if low < 0:
        corners = (
            (grid[0][0], box_alpha.lo, box_beta.lo),
            (grid[m][0], box_alpha.hi, box_beta.lo),
            (grid[0][n], box_alpha.lo, box_beta.hi),
            (grid[m][n], box_alpha.hi, box_beta.hi),
        )
        for value, a, b in corners:
            if _violates(value, strict) and piece.contains(a, b):
                candidates.append((a, b))
                return "violated", grid
        return "split", grid
    # The nine faces in _certify_box's order: corners, the two alpha-end
    # edges, the two t-end edges, the cell; each with its centre.
    a_lo, a_hi, b_lo, b_hi = box_alpha.lo, box_alpha.hi, box_beta.lo, box_beta.hi
    a_mid, b_mid = (a_lo + a_hi) / 2, (b_lo + b_hi) / 2
    faces = (
        ((a_lo, b_lo), [(0, 0)]),
        ((a_hi, b_lo), [(m, 0)]),
        ((a_lo, b_hi), [(0, n)]),
        ((a_hi, b_hi), [(m, n)]),
        ((a_lo, b_mid), [(0, j) for j in range(n + 1)]),
        ((a_hi, b_mid), [(m, j) for j in range(n + 1)]),
        ((a_mid, b_lo), [(i, 0) for i in range(m + 1)]),
        ((a_mid, b_hi), [(i, n) for i in range(m + 1)]),
        ((a_mid, b_mid), [(i, j) for i in range(m + 1) for j in range(n + 1)]),
    )
    for center, indices in faces:
        if all(grid[i][j] == 0 for i, j in indices) and piece.contains(*center):
            candidates.append(center)
            return "violated", grid
    return "certified", grid


def _width_ratio_certify(claim, region, max_depth):
    """certify_sign as (status, witness, boxes, depth), bisecting rational
    intervals by their midpoints, with the split axis chosen by width
    ratios: alpha when the box's alpha width, relative to its piece's, is
    at least its t width, relative to its piece's."""
    orient, strict = sign_parts(claim.overall_sign)
    poly = orient * claim.product()
    candidates, boxes, deepest = [], 0, 0
    ok = max_depth >= 1
    pieces = side_pieces(region) if ok else ()
    if ok and not pieces:
        for point in polytope_vertices(region):
            if _violates(poly_eval(poly, *point), strict) and region.contains(*point):
                candidates.append(point)
        ok = not candidates
    for piece in pieces:
        piece_poly = poly if piece.lift is None else substitute(poly, piece.lift)
        found = []
        stack = [(piece.alpha, piece.t, 0, None)]
        while stack:
            box_alpha, box_t, depth, grid = stack.pop()
            boxes += 1
            deepest = max(deepest, depth)
            verdict, grid = _interval_certify_box(
                piece_poly, strict, piece, box_alpha, box_t, found, grid
            )
            if verdict == "certified":
                continue
            if verdict == "violated" or depth >= max_depth:
                ok = False
                break
            rel_alpha = box_alpha.width / piece.alpha.width
            rel_t = box_t.width / piece.t.width
            axis = 0 if rel_alpha >= rel_t else 1
            lo_grid, hi_grid = split_grid(grid, axis)
            if axis == 0:
                lo_half, hi_half = _halves(box_alpha)
                lo_box, hi_box = (lo_half, box_t), (hi_half, box_t)
            else:
                lo_half, hi_half = _halves(box_t)
                lo_box, hi_box = (box_alpha, lo_half), (box_alpha, hi_half)
            stack.append((*hi_box, depth + 1, hi_grid))
            stack.append((*lo_box, depth + 1, lo_grid))
        candidates.extend(piece.point(*p) for p in found)
        if not ok:
            break
    if ok:
        return "certified", None, boxes, deepest
    witness = _witness_search(poly, strict, region, candidates)
    return ("inconclusive" if witness is None else "failed"), witness, boxes, deepest


@settings(max_examples=60, deadline=None)
@given(
    st.builds(lambda lo, width: RationalInterval(lo, lo + width), endpoints, widths),
    st.integers(0, 12).flatmap(lambda n: st.lists(st.booleans(), min_size=n, max_size=n)),
)
def test_cells_are_the_intervals_that_midpoint_halving_reaches(interval, path):
    level, k, box = len(path), 0, interval
    for high in path:
        k = 2 * k + high
        box = _halves(box)[high]
    assert (_cut(interval, k, level), _cut(interval, k + 1, level)) == (box.lo, box.hi)
    assert _cut(interval, 2 * k + 1, level + 1) == (box.lo + box.hi) / 2
    # The cells of one level tile the interval, and its ends are its own.
    cuts = [_cut(interval, c, level) for c in range(2**level + 1)]
    assert cuts[0] is interval.lo and cuts[-1] is interval.hi
    assert all(x < y for x, y in zip(cuts, cuts[1:]))


def _subdivision_claim(expr, sign):
    return FactoredClaim((Factor(expr, sign, "interval-subdivision"),), sign)


coefficients = st.builds(F, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def bisection_cases(draw):
    region = draw(regions())
    if draw(st.booleans()):
        # An alpha range across 0, where side_pieces cuts every piece.
        region = replace(region, alpha=RationalInterval(-draw(widths), draw(widths)))
    if draw(st.booleans()):
        # Random terms of bidegree up to (4, 4).
        exponents = st.tuples(st.integers(0, 4), st.integers(0, 4))
        expr = BivariatePoly(draw(st.dictionaries(exponents, coefficients, min_size=1, max_size=6)))
    else:
        # A paraboloid with its minimum inside the box: it certifies only
        # after deep bisection, or fails in a small disc around the minimum.
        fractions = st.builds(F, st.integers(1, 10), st.just(11))
        a0 = region.alpha.lo + region.alpha.width * draw(fractions)
        b0 = region.beta.lo + region.beta.width * draw(fractions)
        bowl = (A - a0) ** 2 + (B - b0) ** 2 + draw(st.sampled_from((F(-1, 50), 0, F(1, 50))))
        expr = bowl ** draw(st.sampled_from((1, 2)))
    sign = draw(st.sampled_from((">0", ">=0", "<0", "<=0")))
    return _subdivision_claim(expr, sign), region, draw(st.integers(0, 10))


@settings(max_examples=120, deadline=None)
@given(bisection_cases())
# Degree 0 along alpha, then along beta (and t): the two corners at the ends
# of that axis share one grid entry but are different points.
@example((_subdivision_claim(B + F(1, 3), ">=0"), default_region(), 4))
@example((_subdivision_claim(A - F(1, 6), ">0"), default_region(SIDE_LEFT), 4))
# Fails, but its first violating corners lie on the open edge alpha = 0.
@example((_subdivision_claim(A + B + F(1, 4), ">0"), default_region(), 6))
def test_alternating_splits_match_the_width_ratio_rule(case):
    # A box at depth d has had ceil(d/2) alpha and floor(d/2) t splits, so
    # the width-ratio rule picks alpha exactly when d is even, and the
    # integer cells are the boxes that halving intervals reaches.
    claim, region, max_depth = case
    cert = certify_sign(claim, region, max_depth)
    expected = _width_ratio_certify(claim, region, max_depth)
    assert (cert.status, cert.witness, cert.boxes, cert.depth) == expected


@st.composite
def one_corner_cases(draw):
    """A claim on a side-cut region with no side pieces, and the one point
    the region holds, or None.  The side line meets the box only in its
    low corner (alpha<=-beta) or its high corner (alpha>=-beta), or, with
    a positive gap, misses the half-plane's side of the box altogether."""
    side = draw(st.sampled_from((SIDE_LEFT, SIDE_RIGHT)))
    end = 0 if side == SIDE_LEFT else 1
    gap = draw(st.sampled_from((0, 0, 0, F(1, 3), F(2))))
    b = draw(endpoints)
    a = -b + (gap if end == 0 else -gap)
    b_ends = (b, b + draw(widths)) if end == 0 else (b - draw(widths), b)
    a_ends = (a, a + draw(widths)) if end == 0 else (a - draw(widths), a)
    region = Region(
        beta=RationalInterval(*b_ends),
        alpha=RationalInterval(*a_ends),
        beta_open=(draw(st.booleans()), draw(st.booleans())),
        alpha_open=(draw(st.booleans()), draw(st.booleans())),
        side=side,
    )
    closed = not (region.beta_open[end] or region.alpha_open[end])
    point = (a, b) if gap == 0 and closed else None
    # The value at the corner takes each sign; the other terms vanish there.
    expr = (
        C(draw(st.sampled_from((-1, 0, 1))))
        + draw(coefficients) * (A - a)
        + draw(coefficients) * (B - b) ** 2
    )
    sign = draw(st.sampled_from((">0", ">=0", "<0", "<=0")))
    return _subdivision_claim(expr, sign), region, point


@settings(max_examples=150, deadline=None)
@given(one_corner_cases(), st.integers(0, 10))
# The point (2/5, -2/5), where a^2 + b^2 > 0: certified at depth 0 too.
@example(
    (
        _subdivision_claim(A**2 + B**2, ">0"),
        Region(
            RationalInterval(F(-2, 5), F(3, 5)), RationalInterval(F(2, 5), F(17, 5)), side=SIDE_LEFT
        ),
        (F(2, 5), F(-2, 5)),
    ),
    0,
)
def test_one_corner_regions_are_their_corner(case, max_depth):
    # A region without side pieces is one polytope vertex or empty: it
    # fails at that corner when the corner breaks the sign, and is
    # certified otherwise, with no box tried either way, at every depth
    # budget (the witness search reads the corner without a bisection).
    claim, region, point = case
    assert side_pieces(region) == ()
    cert = certify_sign(claim, region, max_depth)
    if point is not None and violates(poly_eval(claim.product(), *point), claim.overall_sign):
        expected = ("failed", point, 0, 0)
    else:
        expected = ("certified", None, 0, 0)
    assert (cert.status, cert.witness, cert.boxes, cert.depth) == expected
    assert cert.notes == []
    assert [p for p in polytope_vertices(region) if region.contains(*p)] == (
        [] if point is None else [point]
    )
