"""Exact-arithmetic substrate: rationals, intervals, bivariate polynomials."""

import operator
import random
from fractions import Fraction
from math import comb, gcd, lcm

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiltcert import kernel
from tiltcert.kernel import (
    BivariatePoly,
    RationalInterval,
    bernstein_coefficients,
    format_rational,
    grid_axis,
    grid_form,
    parse_rational,
    poly_eval,
    poly_format,
    split_grid,
    substitute,
)
from tiltcert.suite import verify_all
from tiltcert.svg import decimal6

A = BivariatePoly.alpha()
B = BivariatePoly.beta()
SA, SB = sympy.symbols("a b")


def test_parse_rational_round_trip():
    for text in ("0", "1", "-1", "1/3", "-7/12", "22/7"):
        q = parse_rational(text)
        assert isinstance(q, Fraction)
        assert format_rational(q) == text


def test_parse_rational_rejects_junk():
    # A trailing newline, non-ASCII digits and digit separators are junk too.
    for text in ("", "1.5", "1/0", "a", "1/ 2", "+ 1", "--2", "1//2",
                 "1/2\n", "\n1", "\u0661/\u0662", "\uff11", "1_000"):
        with pytest.raises(ValueError):
            parse_rational(text)


def test_parse_rational_normalizes():
    assert parse_rational("2/4") == Fraction(1, 2)
    assert parse_rational("+3") == 3


def test_interval_basic():
    iv = RationalInterval(Fraction(-1, 2), Fraction(1, 3))
    assert iv.width == Fraction(5, 6)
    assert iv.contains(Fraction(0))
    assert not iv.contains(Fraction(1))
    with pytest.raises(ValueError):
        RationalInterval(Fraction(1), Fraction(0))


def test_interval_split():
    unit = RationalInterval(Fraction(0), Fraction(1))
    mid = (unit.lo + unit.hi) / 2
    left, right = RationalInterval(unit.lo, mid), RationalInterval(mid, unit.hi)
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
    assert p * (q + r) == p * q + p * r
    assert (p + q) * (p - q) == p**2 - q**2
    assert p * q == q * p
    assert p - p == BivariatePoly()


def test_poly_operators_refuse_what_they_cannot_mean():
    # Q[a, b] has no a^-1.  On either side of ==, +, - and *, an int or a
    # Fraction is the equal constant polynomial; a float, a string or None
    # is no polynomial, so == answers False and arithmetic raises.
    with pytest.raises(ValueError, match="negative exponent"):
        A**-1
    p = A * A - 3 * B + Fraction(1, 2)
    ops = (operator.eq, operator.add, operator.sub, operator.mul)
    for c in (0, -2, Fraction(3, 7)):
        k = BivariatePoly.constant(c)
        assert (k == c) is True and (c == k) is True
        for op in ops:
            assert op(p, c) == op(p, k)
            assert op(c, p) == op(k, p)
    for bad in (0.5, "a", None):
        assert (p == bad) is False and (bad == p) is False
        for op in ops[1:]:
            with pytest.raises(TypeError):
                op(p, bad)
            with pytest.raises(TypeError):
                op(bad, p)


def test_float_values_are_refused():
    # Fraction(0.1) would store 3602879701896397/36028797018963968.
    with pytest.raises(TypeError):
        BivariatePoly({(0, 0): 0.1})
    with pytest.raises(TypeError):
        BivariatePoly.constant(0.5)
    # int(1.5) would store a; exponents are ints, and a bool is not one.
    for key in ((1.5, 0), (0, Fraction(1)), (True, 0)):
        for c in (1, 0):
            with pytest.raises(TypeError):
                BivariatePoly({key: c})
    with pytest.raises(ValueError, match="negative exponent"):
        BivariatePoly({(-1, 0): 1})
    with pytest.raises(TypeError):
        A + 0.5
    with pytest.raises(TypeError):
        0.5 * A
    with pytest.raises(TypeError):
        RationalInterval(0.1, 1)
    with pytest.raises(TypeError):
        RationalInterval(0, 0.5)
    with pytest.raises(TypeError):
        poly_eval(A, 0.5, 0)
    with pytest.raises(TypeError):
        format_rational(0.5)
    with pytest.raises(TypeError):
        decimal6(0.5)
    iv = RationalInterval(0, Fraction(1, 2))
    assert type(iv.lo) is Fraction and type(iv.hi) is Fraction


def test_poly_format_canonical_examples():
    assert poly_format(A**2 - B**2) == "a^2 - b^2"
    assert poly_format(Fraction(1, 3) * A * B - 2) == "1/3*a*b - 2"
    assert poly_format(BivariatePoly()) == "0"
    assert str(A**2 - B**2) == "a^2 - b^2"


def test_bernstein_corner_coefficients_are_corner_values():
    p = (1 + B) ** 2 - A**2 + Fraction(1, 3) * A * B
    box_a = RationalInterval(Fraction(0), Fraction(1, 3))
    box_b = RationalInterval(Fraction(-1, 2), Fraction(0))
    den, grid = bernstein_coefficients(p, box_a, box_b)
    grid = _rows(grid, p.degree_beta() + 1)
    m, n = len(grid) - 1, len(grid[0]) - 1
    corners = {
        (0, 0): (box_a.lo, box_b.lo),
        (m, 0): (box_a.hi, box_b.lo),
        (0, n): (box_a.lo, box_b.hi),
        (m, n): (box_a.hi, box_b.hi),
    }
    for (i, j), (a, b) in corners.items():
        assert Fraction(grid[i][j], den) == poly_eval(p, a, b)


def test_bernstein_sharper_than_monomial_hull():
    # The Bernstein enclosure of b^2 + b - a^2 on the working box reaches
    # only to 0 from below, where the monomial hull sticks out to +1/4.
    p = B**2 + B - A**2
    box_a = RationalInterval(Fraction(0), Fraction(1, 3))
    box_b = RationalInterval(Fraction(-1, 2), Fraction(0))
    assert _hull_reference(p, box_a, box_b).hi == Fraction(1, 4)
    _, grid = bernstein_coefficients(p, box_a, box_b)
    grid = _rows(grid, p.degree_beta() + 1)
    assert max(c for row in grid for c in row) == 0


def test_bernstein_coefficients_refuse_a_zero_width_box():
    p = B**2 + B - A**2
    point = RationalInterval(Fraction(1, 3), Fraction(1, 3))
    box = RationalInterval(Fraction(0), Fraction(1, 3))
    with pytest.raises(ValueError):
        bernstein_coefficients(p, point, box)
    with pytest.raises(ValueError):
        bernstein_coefficients(p, box, point)


def test_root_boxes_share_basis_change_matrices():
    # Each root box looks up one matrix per axis, keyed by (degree, box).
    # The default suite's root boxes use only 8 such pairs, so all but 8
    # lookups reuse a cached matrix.
    kernel._bernstein_matrix.cache_clear()
    verify_all()
    info = kernel._bernstein_matrix.cache_info()
    assert info.misses <= 8 and info.hits >= 50


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
    # The monomial interval hull, which the design tests compare Bernstein
    # with: the sum over terms of the interval product c * [a^i hull] * [b^j hull].
    lo = hi = Fraction(0)
    for (i, j), c in p.terms.items():
        a, b = _power_hull_reference(box_alpha, i), _power_hull_reference(box_beta, j)
        products = [x * y * c for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
        lo += min(products)
        hi += max(products)
    return RationalInterval(lo, hi)


def _rows(grid, w):
    """The rows of a flat row-major grid with w entries a row."""
    return [grid[k : k + w] for k in range(0, len(grid), w)]


def _assert_positive_multiple(grid, coeffs):
    flat_grid = [x for row in grid for x in row]
    flat = [c for row in coeffs for c in row]
    assert len(flat_grid) == len(flat)
    assert all((x == 0) == (c == 0) for x, c in zip(flat_grid, flat))
    ratios = {Fraction(x) / c for x, c in zip(flat_grid, flat) if c != 0}
    assert len(ratios) <= 1 and all(r > 0 for r in ratios)


# Bidegrees up to (8, 8), the zero polynomial among them, on boxes whose
# low ends are negative, zero or positive.
wide_polys = st.dictionaries(
    st.tuples(st.integers(0, 8), st.integers(0, 8)), small_rationals, max_size=10
).map(BivariatePoly)
signed_intervals = st.builds(
    lambda lo, width: RationalInterval(lo, lo + width),
    st.one_of(
        st.builds(Fraction, st.integers(-12, -1), st.integers(1, 8)),
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(1, 12), st.integers(1, 8)),
    ),
    st.builds(Fraction, st.integers(1, 12), st.integers(1, 8)),
)


@settings(max_examples=100, deadline=None)
@given(wide_polys, signed_intervals, signed_intervals)
@example(BivariatePoly(), RationalInterval(-1, 1), RationalInterval(0, 1))
@example(BivariatePoly.constant(Fraction(-7, 3)), RationalInterval(1, 2), RationalInterval(-3, 0))
@example(BivariatePoly.constant(6), RationalInterval(0, Fraction(1, 3)), RationalInterval(2, 5))
@example(B**4 - 2, RationalInterval(Fraction(1, 3), 2), RationalInterval(-1, Fraction(1, 2)))
@example(
    A**4 * B - 3 * A**2 + B**2 - Fraction(1, 7),
    RationalInterval(Fraction(-1, 2), Fraction(1, 3)),
    RationalInterval(-2, Fraction(3, 4)),
)
def test_bernstein_coefficients_match_power_basis_reference(p, box_a, box_b):
    # The grid is the primitive integer form of the exact coefficients.
    den, grid = bernstein_coefficients(p, box_a, box_b)
    grid = _rows(grid, p.degree_beta() + 1)
    assert den > 0
    assert gcd(den, *(x for row in grid for x in row)) == 1
    assert (len(grid) - 1, len(grid[0]) - 1) == (p.degree_alpha(), p.degree_beta())
    assert [[Fraction(x, den) for x in row] for row in grid] == _bernstein_reference(
        p, box_a, box_b
    )


# Intervals that keep one sign: [lo, lo + w] or [-lo - w, -lo] with lo >= 0.
one_sign_intervals = st.builds(
    lambda lo, width, negative: (
        RationalInterval(-lo - width, -lo) if negative else RationalInterval(lo, lo + width)
    ),
    st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(1, 12), st.integers(1, 8))),
    st.builds(Fraction, st.integers(1, 12), st.integers(1, 8)),
    st.booleans(),
)


@settings(max_examples=100, deadline=None)
@given(wide_polys, one_sign_intervals, one_sign_intervals)
@example(A**2 * B**3 - 3 * A * B + 1, RationalInterval(0, 2), RationalInterval(-2, 0))
@example(B**2 - A**4 * B, RationalInterval(-1, 0), RationalInterval(0, Fraction(1, 3)))
def test_bernstein_lies_inside_the_hull_on_one_sign_boxes(p, box_a, box_b):
    # On such a box a monomial's Bernstein coefficients are averages of
    # products of endpoint values, inside its range, so the Bernstein
    # enclosure never exceeds the monomial hull: the certifier needs no hull.
    den, grid = bernstein_coefficients(p, box_a, box_b)
    grid = _rows(grid, p.degree_beta() + 1)
    hull = _hull_reference(p, box_a, box_b)
    assert all(hull.contains(Fraction(x, den)) for row in grid for x in row)


def test_bernstein_dips_below_the_hull_across_zero():
    # b^2 on beta in [-1, 1]: Bernstein coefficients 1, -1, 1, while the
    # hull clamps the even power at 0.  Hence the certifier's cuts at 0.
    den, grid = bernstein_coefficients(B**2, RationalInterval(0, 1), RationalInterval(-1, 1))
    grid = _rows(grid, 3)
    assert [Fraction(x, den) for x in grid[0]] == [1, -1, 1]
    assert _hull_reference(B**2, RationalInterval(0, 1), RationalInterval(-1, 1)).lo == 0


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
    grid, w = bernstein_coefficients(p, box_a, box_b)[1], p.degree_beta() + 1
    for axis, high in zip(axes, highs):
        halves = split_grid(grid, w, axis)
        box = box_a if axis == 0 else box_b
        mid = (box.lo + box.hi) / 2
        boxes = RationalInterval(box.lo, mid), RationalInterval(mid, box.hi)
        for half_grid, half in zip(halves, boxes):
            sub = (half, box_b) if axis == 0 else (box_a, half)
            _assert_positive_multiple(
                _rows(half_grid, w), _rows(bernstein_coefficients(p, *sub)[1], w)
            )
        grid = halves[high]
        if axis == 0:
            box_a = boxes[high]
        else:
            box_b = boxes[high]


def _row_split_reference(rows, axis):
    # split_grid on a list of rows: the midpoint de Casteljau over whole
    # rows, on the transpose for axis 1.
    if axis:
        lo, hi = _row_split_reference(list(zip(*rows)), 0)
        return list(zip(*lo)), list(zip(*hi))
    lo, hi, level = [], [], rows
    for shift in reversed(range(len(rows))):
        lo.append([x << shift for x in level[0]])
        hi.append([x << shift for x in level[-1]])
        level = [[x + y for x, y in zip(u, v)] for u, v in zip(level, level[1:])]
    return lo, hi[::-1]


@st.composite
def flat_grids(draw):
    # (grid, w): a flat integer grid of bidegree up to (8, 8), w = n + 1 entries a row.
    rows, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    return draw(st.lists(st.integers(-(10**12), 10**12), min_size=rows * w, max_size=rows * w)), w


split_chains = st.lists(st.tuples(st.integers(0, 1), st.booleans()), min_size=4, max_size=4)


@settings(max_examples=100, deadline=None)
@given(flat_grids(), split_chains)
@example(([5, -3, 0, 7, -1], 5), [(1, False), (0, True), (1, True), (0, False)])
@example(([5, -3, 0, 7, -1], 1), [(0, True), (1, False), (0, False), (1, True)])
def test_split_grid_matches_the_row_reference(case, chain):
    # A chain of splits, down one half at a time: each flat half is the
    # row-major flattening of the row algorithm's half.  The examples are
    # one row (m = 0) and one column (w = 1).
    grid, w = case
    rows = _rows(grid, w)
    for axis, high in chain:
        halves = split_grid(grid, w, axis)
        reference = _row_split_reference(rows, axis)
        assert list(halves) == [[x for row in half for x in row] for half in reference]
        grid, rows = halves[high], reference[high]


@settings(max_examples=60, deadline=None)
@given(
    polys,
    intervals,
    intervals,
    st.lists(st.tuples(unit_fractions, unit_fractions), min_size=1, max_size=10),
)
def test_bernstein_encloses_range(p, box_a, box_b, offsets):
    den, grid = bernstein_coefficients(p, box_a, box_b)
    grid = _rows(grid, p.degree_beta() + 1)
    flat = [Fraction(x, den) for row in grid for x in row]
    lo, hi = min(flat), max(flat)
    for s, t in offsets:
        value = poly_eval(p, box_a.lo + s * box_a.width, box_b.lo + t * box_b.width)
        assert lo <= value <= hi


maps = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), small_rationals, max_size=4
).map(BivariatePoly)


@settings(max_examples=60, deadline=None)
@given(polys, maps, small_rationals, small_rationals)
def test_substitute_composes_in_the_beta_slot(p, q, a, t):
    assert poly_eval(substitute(p, q), a, t) == poly_eval(p, a, poly_eval(q, a, t))


def _grid_form_reference(p, box_alpha, box_beta, g):
    # Point by point: value(i, j) by Horner in alpha, then in beta, on
    # grid_form's integer scale; also returns that scale.
    m, n = p.degree_alpha(), p.degree_beta()
    a_nums, a_den = grid_axis(box_alpha, g)
    b_nums, b_den = grid_axis(box_beta, g)
    scale = lcm(*(c.denominator for c in p.terms.values()))
    coeffs = [[0] * (m + 1) for _ in range(n + 1)]
    for (k, l), c in p.terms.items():
        coeffs[l][k] = c.numerator * (scale // c.denominator) * a_den ** (m - k) * b_den ** (n - l)

    def horner(cs, x):
        acc = 0
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    def value(i, j):
        return horner([horner(col, a_nums[i]) for col in coeffs], b_nums[j])

    return value, scale * a_den**m * b_den**n


bidegree_6_polys = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), small_rationals, max_size=8
).map(BivariatePoly)


@settings(max_examples=60, deadline=None)
@given(bidegree_6_polys, intervals, intervals)
@example(BivariatePoly(), RationalInterval(-1, 1), RationalInterval(0, 1))
@example(BivariatePoly.constant(Fraction(-7, 3)), RationalInterval(-1, 1), RationalInterval(0, 1))
@example(
    A**6 * B**6 - Fraction(2, 3) * A**5 * B + Fraction(1, 7) * B**6 - 5,
    RationalInterval(Fraction(-7, 3), Fraction(-1, 5)),
    RationalInterval(Fraction(-5, 7), Fraction(2, 3)),
)
def test_grid_form_matches_per_point_reference(p, box_a, box_b):
    for g in (1, 2, 3, 4, 8, 16, 32):
        a_axis, b_axis, rows = grid_form(p, box_a, box_b, g)
        assert (a_axis, b_axis) == (grid_axis(box_a, g), grid_axis(box_b, g))
        value, scale = _grid_form_reference(p, box_a, box_b, g)
        assert len(rows) == g + 1
        for i, row in enumerate(rows):
            assert row == [value(i, j) for j in range(g + 1)]
            if g <= 4:
                a = box_a.lo + box_a.width * Fraction(i, g)
                for j in range(g + 1):
                    exact = poly_eval(p, a, box_b.lo + box_b.width * Fraction(j, g))
                    assert Fraction(row[j], scale) == exact


@settings(max_examples=100, deadline=None)
@given(signed_intervals)
@example(RationalInterval(Fraction(1, 3), Fraction(1, 3)))
@example(RationalInterval(Fraction(-7, 6), Fraction(5, 4)))
def test_grid_axis_is_exact(box):
    # g = 1 is the integer view of an interval's own ends that
    # bernstein_coefficients and the wall figure read.
    for g in (1, 2, 4, 32):
        nums, den = grid_axis(box, g)
        assert den > 0 and len(nums) == g + 1
        for k, x in enumerate(nums):
            assert Fraction(x, den) == box.lo + box.width * Fraction(k, g)


def _read_with_sympy(text):
    # The polynomial that poly_format's text denotes, as sympy reads it.
    expr = sympy.sympify(text.replace("^", "**"), locals={"a": SA, "b": SB})
    return BivariatePoly(
        {key: Fraction(int(c.p), int(c.q)) for key, c in sympy.Poly(expr, SA, SB).terms()}
    )


@settings(max_examples=300, deadline=None)
@given(polys)
@example(A**2 - B**2)
@example(BivariatePoly())
@example(BivariatePoly.constant(Fraction(-7, 3)))
@example(Fraction(1, 3) * A * B - 2)
@example(B**3 - B + Fraction(5, 6))
def test_poly_format_parse_round_trip(p):
    text = poly_format(p)
    assert _read_with_sympy(text) == p


# Coefficients as __init__ receives them from callers: ints, zeros, Fractions.
raw_values = st.one_of(st.integers(-3, 3), small_rationals)
mixed_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), raw_values, max_size=6
).map(BivariatePoly)


def _assert_normalized(p):
    assert all(type(c) is Fraction and c != 0 for c in p.terms.values())
    assert all(type(i) is int and type(j) is int for i, j in p.terms)
    assert _read_with_sympy(poly_format(p)) == p


@settings(max_examples=100, deadline=None)
@given(mixed_polys, mixed_polys, st.integers(-3, 3), maps)
def test_arithmetic_stores_only_nonzero_fractions(p, q, k, beta):
    for r in (p, p + q, p - q, p * q, p - p, p + k, k - p, k * p, -p, p**2,
              substitute(p, beta)):
        _assert_normalized(r)


def _schoolbook(p_terms, q_terms):
    # The product as two {(i, j): Fraction} dicts, term by term in Fraction
    # arithmetic, with the keys whose sum is 0 dropped.
    out = {}
    for (i1, j1), c1 in p_terms.items():
        for (i2, j2), c2 in q_terms.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {key: c for key, c in out.items() if c}


# Primes: the two operands' denominators share no factor.
COPRIME = BivariatePoly({(1, 0): Fraction(1, 2**61 - 1), (0, 0): Fraction(3, 10**9 + 7)})
COPRIME_TOO = BivariatePoly({(0, 1): Fraction(5, 998244353), (2, 0): Fraction(-7, 2**31 - 1)})


@settings(max_examples=200, deadline=None)
@given(mixed_polys, mixed_polys, raw_values)
@example(BivariatePoly(), A + B, Fraction(1, 3))
@example(A + B, A - B, 0)  # the a*b terms cancel, and k = 0 cancels every term
@example(COPRIME, COPRIME_TOO, Fraction(11, 1000003))
def test_integer_product_matches_the_fraction_schoolbook(p, q, k):
    k_terms = {(0, 0): Fraction(k)} if k else {}
    for product, expected in (
        (p * q, _schoolbook(p.terms, q.terms)),
        (k * p, _schoolbook(k_terms, p.terms)),
        (p * k, _schoolbook(p.terms, k_terms)),
    ):
        assert product.terms == expected
        assert all(type(c) is Fraction and c != 0 for c in product.terms.values())
