"""Exact-arithmetic substrate: rationals, intervals, bivariate polynomials."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiltcert.kernel import (
    BivariatePoly,
    RationalInterval,
    bernstein_coefficients,
    format_rational,
    grid_form,
    integer_grid,
    parse_rational,
    poly_equal,
    poly_eval,
    poly_format,
    poly_interval_eval,
    poly_parse,
    split_grid,
    substitute,
)

A = BivariatePoly.alpha()
B = BivariatePoly.beta()


def test_parse_rational_round_trip():
    for text in ("0", "1", "-1", "1/3", "-7/12", "22/7"):
        q = parse_rational(text)
        assert isinstance(q, Fraction)
        assert format_rational(q) == text


def test_parse_rational_rejects_junk():
    for text in ("", "1.5", "1/0", "a", "1/ 2", "+ 1", "--2", "1//2"):
        with pytest.raises(ValueError):
            parse_rational(text)


def test_parse_rational_normalizes():
    assert parse_rational("2/4") == Fraction(1, 2)
    assert parse_rational("+3") == 3


def test_interval_basic():
    iv = RationalInterval(Fraction(-1, 2), Fraction(1, 3))
    assert iv.width == Fraction(5, 6)
    assert iv.midpoint == Fraction(-1, 12)
    assert iv.contains(Fraction(0))
    assert not iv.contains(Fraction(1))
    with pytest.raises(ValueError):
        RationalInterval(Fraction(1), Fraction(0))


def test_interval_power_even_clamps_at_zero():
    iv = RationalInterval(Fraction(-2), Fraction(1))
    sq = iv.power(2)
    assert sq.lo == 0 and sq.hi == 4
    cube = iv.power(3)
    assert cube.lo == -8 and cube.hi == 1


def test_interval_split():
    left, right = RationalInterval(Fraction(0), Fraction(1)).split()
    assert left.hi == right.lo == Fraction(1, 2)


def test_poly_eval_frozen_values():
    p = A**2 - B**2
    assert poly_eval(p, Fraction(1, 4), Fraction(-1, 2)) == Fraction(-3, 16)
    q = (1 - B) ** 2 - A**2
    assert poly_eval(q, Fraction(1, 3), Fraction(-1, 2)) == Fraction(77, 36)


def test_poly_arithmetic_matches_pointwise():
    rng = random.Random(20260814)
    for _ in range(60):
        coeffs = {}
        for _ in range(rng.randrange(1, 6)):
            coeffs[(rng.randrange(0, 4), rng.randrange(0, 4))] = Fraction(
                rng.randrange(-9, 10), rng.randrange(1, 7)
            )
        p = BivariatePoly(coeffs)
        q = A * Fraction(rng.randrange(-3, 4)) + B - Fraction(rng.randrange(-3, 4))
        a = Fraction(rng.randrange(-20, 21), 7)
        b = Fraction(rng.randrange(-20, 21), 9)
        assert poly_eval(p + q, a, b) == poly_eval(p, a, b) + poly_eval(q, a, b)
        assert poly_eval(p - q, a, b) == poly_eval(p, a, b) - poly_eval(q, a, b)
        assert poly_eval(p * q, a, b) == poly_eval(p, a, b) * poly_eval(q, a, b)
        assert poly_eval(p**2, a, b) == poly_eval(p, a, b) ** 2


def test_poly_ring_identities():
    p = 2 * A * B - B**3 + Fraction(1, 2)
    q = A - B
    r = A**2 + 3
    assert poly_equal(p * (q + r), p * q + p * r)
    assert poly_equal((p + q) * (p - q), p**2 - q**2)
    assert poly_equal(p * q, q * p)
    assert poly_equal(p - p, BivariatePoly())


def test_poly_interval_eval_frozen():
    p = 1 + 3 * B**2 - 3 * A**2
    box_a = RationalInterval(Fraction(0), Fraction(1, 3))
    box_b = RationalInterval(Fraction(-1, 2), Fraction(0))
    hull = poly_interval_eval(p, box_a, box_b)
    assert hull.lo == Fraction(2, 3) and hull.hi == Fraction(7, 4)
    q = 2 * B**2 + 2 * B - 1 - 2 * A**2
    hull = poly_interval_eval(q, box_a, box_b)
    assert hull.lo == Fraction(-20, 9) and hull.hi == Fraction(-1, 2)


def test_poly_interval_eval_sound():
    rng = random.Random(97)
    for _ in range(40):
        coeffs = {}
        for _ in range(rng.randrange(1, 6)):
            coeffs[(rng.randrange(0, 4), rng.randrange(0, 4))] = Fraction(
                rng.randrange(-6, 7), rng.randrange(1, 5)
            )
        p = BivariatePoly(coeffs)
        alo = Fraction(rng.randrange(-4, 3), 4)
        blo = Fraction(rng.randrange(-4, 3), 4)
        box_a = RationalInterval(alo, alo + Fraction(rng.randrange(1, 5), 4))
        box_b = RationalInterval(blo, blo + Fraction(rng.randrange(1, 5), 4))
        hull = poly_interval_eval(p, box_a, box_b)
        for _ in range(12):
            a = box_a.lo + Fraction(rng.randrange(0, 33), 32) * box_a.width
            b = box_b.lo + Fraction(rng.randrange(0, 33), 32) * box_b.width
            value = poly_eval(p, a, b)
            assert hull.lo <= value <= hull.hi


def test_poly_parse_rejects_malformed():
    for text in ("", "a+", "+a", "a--b", "1/0*a"):
        with pytest.raises(ValueError):
            poly_parse(text)


def test_poly_format_canonical_examples():
    assert poly_format(A**2 - B**2) == "a^2 - b^2"
    assert poly_format(Fraction(1, 3) * A * B - 2) == "1/3*a*b - 2"
    assert poly_format(BivariatePoly()) == "0"


def test_bernstein_corner_coefficients_are_corner_values():
    p = (1 + B) ** 2 - A**2 + Fraction(1, 3) * A * B
    box_a = RationalInterval(Fraction(0), Fraction(1, 3))
    box_b = RationalInterval(Fraction(-1, 2), Fraction(0))
    m, n, coeffs = bernstein_coefficients(p, box_a, box_b)
    corners = {
        (0, 0): (box_a.lo, box_b.lo),
        (m, 0): (box_a.hi, box_b.lo),
        (0, n): (box_a.lo, box_b.hi),
        (m, n): (box_a.hi, box_b.hi),
    }
    for (i, j), (a, b) in corners.items():
        assert coeffs[i][j] == poly_eval(p, a, b)


def test_bernstein_sharper_than_monomial_hull():
    # The Bernstein enclosure of b^2 + b - a^2 on the working box reaches
    # only to 0 from below, where the monomial hull sticks out to +1/4.
    p = B**2 + B - A**2
    box_a = RationalInterval(Fraction(0), Fraction(1, 3))
    box_b = RationalInterval(Fraction(-1, 2), Fraction(0))
    hull = poly_interval_eval(p, box_a, box_b)
    assert hull.hi == Fraction(1, 4)
    _, _, grid = bernstein_coefficients(p, box_a, box_b)
    assert max(c for row in grid for c in row) == 0


# --- integer kernel against Fraction references ------------------------------

small_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), small_rationals, min_size=1, max_size=8
).map(BivariatePoly)
unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=48)
intervals = st.builds(
    lambda lo, width: RationalInterval(lo, lo + width),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 8)),
    st.builds(Fraction, st.integers(1, 12), st.integers(1, 8)),
)


def _bernstein_reference(p, box_alpha, box_beta):
    # Power-basis construction: rebase to the unit square through
    # BivariatePoly products, then change basis term by term.
    u = BivariatePoly.alpha() * box_alpha.width + box_alpha.lo
    v = BivariatePoly.beta() * box_beta.width + box_beta.lo
    m, n = p.degree_alpha(), p.degree_beta()
    q = BivariatePoly()
    for (i, j), c in p.terms.items():
        q = q + u**i * v**j * c
    return [
        [
            sum(
                Fraction(comb(i, k), comb(m, k))
                * Fraction(comb(j, l), comb(n, l))
                * q.terms.get((k, l), Fraction(0))
                for k in range(i + 1)
                for l in range(j + 1)
            )
            for j in range(n + 1)
        ]
        for i in range(m + 1)
    ]


def _power_hull_reference(iv, k):
    ends = [iv.lo**k, iv.hi**k]
    if iv.lo < 0 < iv.hi:
        ends.append(Fraction(0) ** k)
    return RationalInterval(min(ends), max(ends))


def _hull_reference(p, box_alpha, box_beta):
    # Sum over terms of the interval product c * [a^i hull] * [b^j hull].
    lo = hi = Fraction(0)
    for (i, j), c in p.terms.items():
        a, b = _power_hull_reference(box_alpha, i), _power_hull_reference(box_beta, j)
        products = [x * y * c for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
        lo += min(products)
        hi += max(products)
    return RationalInterval(lo, hi)


def _assert_positive_multiple(grid, coeffs):
    flat_grid = [x for row in grid for x in row]
    flat = [c for row in coeffs for c in row]
    assert len(flat_grid) == len(flat)
    assert all((x == 0) == (c == 0) for x, c in zip(flat_grid, flat))
    ratios = {Fraction(x) / c for x, c in zip(flat_grid, flat) if c != 0}
    assert len(ratios) <= 1 and all(r > 0 for r in ratios)


@settings(max_examples=60, deadline=None)
@given(polys, intervals, intervals)
def test_bernstein_coefficients_match_power_basis_reference(p, box_a, box_b):
    m, n, coeffs = bernstein_coefficients(p, box_a, box_b)
    assert (m, n) == (p.degree_alpha(), p.degree_beta())
    assert coeffs == _bernstein_reference(p, box_a, box_b)


@settings(max_examples=40, deadline=None)
@given(
    polys,
    intervals,
    intervals,
    st.permutations([0] * 4 + [1] * 4),
    st.lists(st.booleans(), min_size=8, max_size=8),
)
def test_split_grid_halves_are_multiples_of_bernstein(p, box_a, box_b, axes, highs):
    # Four splits along each axis, down one random half at a time.
    grid = integer_grid(bernstein_coefficients(p, box_a, box_b)[2])
    for axis, high in zip(axes, highs):
        halves = split_grid(grid, axis)
        boxes = box_a.split() if axis == 0 else box_b.split()
        for half_grid, half in zip(halves, boxes):
            sub = (half, box_b) if axis == 0 else (box_a, half)
            _assert_positive_multiple(half_grid, bernstein_coefficients(p, *sub)[2])
        grid = halves[high]
        if axis == 0:
            box_a = boxes[high]
        else:
            box_b = boxes[high]


@settings(max_examples=60, deadline=None)
@given(
    polys,
    intervals,
    intervals,
    st.lists(st.tuples(unit_fractions, unit_fractions), min_size=1, max_size=10),
)
def test_bernstein_encloses_range(p, box_a, box_b, offsets):
    flat = [c for row in bernstein_coefficients(p, box_a, box_b)[2] for c in row]
    lo, hi = min(flat), max(flat)
    for s, t in offsets:
        value = poly_eval(p, box_a.lo + s * box_a.width, box_b.lo + t * box_b.width)
        assert lo <= value <= hi


@settings(max_examples=100, deadline=None)
@given(polys, intervals, intervals)
def test_poly_interval_eval_matches_interval_product_reference(p, box_a, box_b):
    assert poly_interval_eval(p, box_a, box_b) == _hull_reference(p, box_a, box_b)


maps = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), small_rationals, max_size=4
).map(BivariatePoly)


@settings(max_examples=60, deadline=None)
@given(polys, maps, small_rationals, small_rationals)
def test_substitute_composes_in_the_beta_slot(p, q, a, t):
    assert poly_eval(substitute(p, q), a, t) == poly_eval(p, a, poly_eval(q, a, t))


@settings(max_examples=15, deadline=None)
@given(polys, intervals, intervals)
def test_grid_form_sign_matches_poly_eval(p, box_a, box_b):
    for g in (4, 8, 16, 32):
        value = grid_form(p, box_a, box_b, g)
        for i in range(g + 1):
            a = box_a.lo + box_a.width * Fraction(i, g)
            for j in range(g + 1):
                exact = poly_eval(p, a, box_b.lo + box_b.width * Fraction(j, g))
                scaled = value(i, j)
                assert (scaled > 0) - (scaled < 0) == (exact > 0) - (exact < 0)


@settings(max_examples=300, deadline=None)
@given(polys)
@example(A**2 - B**2)
@example(BivariatePoly())
@example(BivariatePoly.constant(Fraction(-7, 3)))
@example(Fraction(1, 3) * A * B - 2)
@example(B**3 - B + Fraction(5, 6))
def test_poly_format_parse_round_trip(p):
    text = poly_format(p)
    assert poly_parse(text) == p
    assert poly_format(poly_parse(text)) == text
