"""Exact-arithmetic substrate: rationals, intervals, bivariate polynomials."""

import random
from fractions import Fraction

import pytest

from tiltcert.kernel import (
    BivariatePoly,
    RationalInterval,
    bernstein_coefficients,
    format_rational,
    parse_rational,
    poly_equal,
    poly_eval,
    poly_format,
    poly_interval_eval,
    poly_parse,
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


def test_poly_format_parse_round_trip():
    rng = random.Random(5150)
    samples = [
        A**2 - B**2,
        BivariatePoly(),
        BivariatePoly.constant(Fraction(-7, 3)),
        Fraction(1, 3) * A * B - 2,
        B**3 - B + Fraction(5, 6),
    ]
    for _ in range(30):
        coeffs = {}
        for _ in range(rng.randrange(1, 5)):
            coeffs[(rng.randrange(0, 3), rng.randrange(0, 3))] = Fraction(
                rng.randrange(-8, 9), rng.randrange(1, 6)
            )
        samples.append(BivariatePoly(coeffs))
    for p in samples:
        text = poly_format(p)
        assert poly_equal(poly_parse(text), p)
        assert poly_format(poly_parse(text)) == text


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


def test_bernstein_encloses_range():
    rng = random.Random(424242)
    for _ in range(25):
        coeffs = {}
        for _ in range(rng.randrange(1, 6)):
            coeffs[(rng.randrange(0, 4), rng.randrange(0, 4))] = Fraction(
                rng.randrange(-6, 7), rng.randrange(1, 5)
            )
        p = BivariatePoly(coeffs)
        box_a = RationalInterval(Fraction(0), Fraction(1, 2))
        box_b = RationalInterval(Fraction(-1, 2), Fraction(1, 4))
        _, _, grid = bernstein_coefficients(p, box_a, box_b)
        flat = [c for row in grid for c in row]
        lo, hi = min(flat), max(flat)
        for _ in range(10):
            a = box_a.lo + Fraction(rng.randrange(0, 17), 16) * box_a.width
            b = box_b.lo + Fraction(rng.randrange(0, 17), 16) * box_b.width
            value = poly_eval(p, a, b)
            assert lo <= value <= hi


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
