"""Sign-certification engine: soundness, strictness at boundaries, witnesses."""

import hashlib
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tiltcert.certify import (
    Factor,
    FactoredClaim,
    Region,
    SIDE_LEFT,
    SIDE_RIGHT,
    _witness_search,
    certify_sign,
    default_region,
    polytope_vertices,
    side_pieces,
)
from tiltcert.kernel import BivariatePoly, RationalInterval, format_rational, poly_eval

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


def test_affine_vertex_certified():
    claim = FactoredClaim((Factor(ONE + B - A, ">0", "affine-vertex"),), ">0")
    cert = certify_sign(claim, default_region())
    assert cert.status == "certified"
    assert cert.boxes == 0 and cert.depth == 0
    assert cert.factors[0].evidence["kind"] == "affine-vertex"
    # minimum over the polytope is 1/6 at (alpha, beta) = (1/3, -1/2)
    vertices = cert.factors[0].evidence["vertices"]
    values = [Fraction(v["value"]) for v in vertices]
    assert min(values) == F(1, 6)
    assert {"alpha": "1/3", "beta": "-1/2", "value": "1/6"} in vertices


def test_interval_hull_certifies_at_root():
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
    # alpha > 0: zero vertices lie on the open alpha-lo facet only.
    claim = FactoredClaim((Factor(A, ">0", "region-atom"),), ">0")
    assert certify_sign(claim, default_region()).status == "certified"
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


def test_max_depth_zero_is_inconclusive():
    claim = FactoredClaim(
        (Factor(B**2 + B - A**2, "<0", "interval-subdivision"),), "<0"
    )
    cert = certify_sign(claim, default_region(), max_depth=0)
    assert cert.status == "inconclusive"
    assert any("subdivision disabled" in note for note in cert.notes)
    assert cert.factors[0].evidence.get("note", "").startswith("subdivision disabled")


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
    # A claim refuted by the deterministic witness search never spends boxes.
    claim = FactoredClaim(
        (Factor(A - F(1, 4), ">0", "affine-vertex"),), ">0"
    )
    cert = certify_sign(claim, default_region())
    assert cert.status == "failed"
    assert cert.boxes == 0
    alpha, beta = cert.witness
    region = default_region()
    assert region.contains(alpha, beta)
    assert alpha - F(1, 4) <= 0


def test_tiny_violation_sliver_is_inconclusive_not_misjudged():
    # alpha - 1/100 > 0 is false (violated only on a thin sliver the witness
    # grids never sample), and true on too little of the box to certify: the
    # sound outcome is inconclusive, never a bogus certificate.
    claim = FactoredClaim(
        (Factor(A - F(1, 100), ">0", "affine-vertex"),), ">0"
    )
    cert = certify_sign(claim, default_region())
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
    digest = hashlib.sha256()
    count = 0
    for claim, region, depth in _golden_cases():
        digest.update(_outcome_line(certify_sign(claim, region, max_depth=depth)).encode())
        count += 1
    assert count == 240 + 12 + 27
    assert digest.hexdigest() == (
        "7876802078cd5e6776e50987c08f2992c5c85aec0d52964ea6964d553412318b"
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
        "1870e494fac12b86b6bc8da1c0c5e1b7d8d5da07602853ff3900889cdd4d903c"
    )


# --- witness search against a Fraction reference -----------------------------


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
        for a in (piece.alpha.lo, piece.alpha.midpoint, piece.alpha.hi):
            points.update(piece.point(a, t) for t in (piece.t.lo, piece.t.midpoint, piece.t.hi))
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


@settings(max_examples=100, deadline=None)
@given(witness_cases())
def test_witness_search_matches_fraction_reference(case):
    claim, region, candidates = case
    product = claim.product()
    expected = _witness_search_reference(product, claim.overall_sign, region, candidates)
    assert _witness_search(product, claim.overall_sign, region, candidates) == expected


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
