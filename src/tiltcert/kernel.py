"""Exact arithmetic substrate: rationals, rational intervals, bivariate polynomials.

Everything here is exact: no float enters a computation, and decimals are
written only at the rendering edge (svg.py).  RationalInterval is a
checked_namedtuple: its constructor, which _replace reuses, refuses floats
and empty intervals.  Polynomials live in Q[a, b], a = alpha and b = beta,
as a sparse map .terms, (i, j) -> Fraction with zeros dropped, never changed
after __init__; a product multiplies the two _integer_terms views as ints.

The certifier's inner loops run on Python ints.  Where only a sign, a zero
or the position of a maximum matters, a value is carried as an integer
positive multiple of itself: Bernstein grids (bernstein_coefficients
returns (den, grid) with grid / den the exact coefficients and
gcd(den, *grid) == 1; split_grid's halves are 2^d multiples) and grid
values (grid_form returns grid_axis's integer coordinates and the rows of
values there, summed from a corner block's forward differences).  A
Bernstein grid of bidegree (m, n) is one flat list, row-major with alpha
the row index: entry (i, j) is grid[i * w + j], w = n + 1.  A root box's
grid is two integer matrix products with a basis-change matrix per
(degree, box), cached with at most 64 kept.  grid_axis is the one integer
view of an interval; grid_axis(box, 1) is its ends over their common
denominator.
"""

import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import accumulate, repeat
from math import comb, factorial, gcd, lcm
from operator import add, lshift, mul

RAT_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(text):
    """Parse 'p' or 'p/q' (ASCII digits) into a Fraction.  Rejects floats, whitespace, empty."""
    if not isinstance(text, str) or not RAT_RE.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def as_fraction(x):
    """x as a Fraction, returned as is when it already is one.

    Floats are refused: they are never exact, and Fraction(0.1) would
    silently store the binary approximation of 0.1.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"not an exact value: {x!r}")
    return Fraction(x)


def format_rational(q):
    """'p' or 'p/q', in lowest terms: str of q as a Fraction."""
    return str(as_fraction(q))


def checked_namedtuple(typename, field_names):
    """A namedtuple base for a record whose __new__ checks its fields: its
    _make, and so _replace, builds through the subclass's constructor."""
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, fields: cls(*fields))
    return base


class RationalInterval(checked_namedtuple("RationalInterval", "lo hi")):
    """Closed interval [lo, hi] with exact rational endpoints.  str() writes
    '[lo, hi]'; text(open_ends) writes '(' or ')' at an end marked open."""

    __slots__ = ()

    def __new__(cls, lo, hi):
        lo, hi = as_fraction(lo), as_fraction(hi)
        if lo > hi:
            raise ValueError(f"empty interval: [{lo}, {hi}]")
        return super().__new__(cls, lo, hi)

    @property
    def width(self):
        return self.hi - self.lo

    def contains(self, x):
        return self.lo <= x <= self.hi

    __contains__ = contains

    def text(self, open_ends=(False, False)):
        left = "(" if open_ends[0] else "["
        right = ")" if open_ends[1] else "]"
        return f"{left}{format_rational(self.lo)}, {format_rational(self.hi)}{right}"

    __str__ = text


def _term_sort_key(key):
    i, j = key
    return (-(i + j), -i)


def _poly_operand(method):
    """method(self, other) with other read as a polynomial: an int or a
    Fraction is the constant polynomial, and anything else NotImplemented."""

    @wraps(method)
    def with_operand(self, other):
        # BivariatePoly first: isinstance against Fraction goes through ABCMeta.
        if not isinstance(other, BivariatePoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = BivariatePoly.constant(other)
        return method(self, other)

    return with_operand


class BivariatePoly:
    """Sparse polynomial in Q[a, b], a = alpha, b = beta."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for (i, j), c in (terms or {}).items():
            if type(i) is not int or type(j) is not int:
                raise TypeError(f"exponents must be ints in term {(i, j)}")
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in term {(i, j)}")
            # A Fraction as is: isinstance against Fraction goes through ABCMeta.
            c = c if type(c) is Fraction else as_fraction(c)
            if c:
                clean[(i, j)] = c
        self.terms = clean

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def alpha(cls):
        return cls({(1, 0): 1})

    @classmethod
    def beta(cls):
        return cls({(0, 1): 1})

    def is_zero(self):
        return not self.terms

    def degree_alpha(self):
        return max((i for i, _ in self.terms), default=0)

    def degree_beta(self):
        return max((j for _, j in self.terms), default=0)

    def total_degree(self):
        return max((i + j for i, j in self.terms), default=0)

    @_poly_operand
    def __eq__(self, other):
        return self.terms == other.terms

    @_poly_operand
    def __add__(self, other):
        merged = dict(self.terms)
        for key, c in other.terms.items():
            merged[key] = merged.get(key, 0) + c
        return BivariatePoly(merged)

    __radd__ = __add__

    def __neg__(self):
        return BivariatePoly({k: -c for k, c in self.terms.items()})

    @_poly_operand
    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    @_poly_operand
    def __mul__(self, other):
        (s1, t1), (s2, t2) = _integer_terms(self), _integer_terms(other)
        out = {}
        for (i1, j1), c1 in t1:
            for (i2, j2), c2 in t2:
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        return BivariatePoly({key: Fraction(c, s1 * s2) for key, c in out.items()})

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative exponent")
        out = self if n else BivariatePoly.constant(1)
        for _ in range(n - 1):
            out = out * self
        return out

    def __str__(self):
        return poly_format(self)

    def __repr__(self):
        return f"BivariatePoly({poly_format(self)!r})"


def poly_eval(p, alpha, beta):
    """Exact value of p at a rational point."""
    alpha, beta = as_fraction(alpha), as_fraction(beta)
    total = Fraction(0)
    for (i, j), c in p.terms.items():
        total += c * alpha**i * beta**j
    return total


def substitute(p, beta):
    """p(a, beta(a, b)): composition in the beta slot.

    Horner in beta on ints: with p = sum_j r_j(a) b^j / scale and
    beta = q / den, the sum of r_j * q^j * den^(n - j) over j is
    scale * den^n times the result.
    """
    n = p.degree_beta()
    scale, terms = _integer_terms(p)
    den, q = _integer_terms(beta)
    rows = [{} for _ in range(n + 1)]
    for (i, j), c in terms:
        rows[j][(i, 0)] = c * den ** (n - j)
    acc = {}
    for row in reversed(rows):
        for (i1, j1), c1 in acc.items():
            for (i2, j2), c2 in q:
                key = (i1 + i2, j1 + j2)
                row[key] = row.get(key, 0) + c1 * c2
        acc = row
    return BivariatePoly({key: Fraction(c, scale * den**n) for key, c in acc.items()})


def _integer_terms(p):
    # (scale, [((i, j), c * scale)]), scale the lcm of the denominators.
    scale = lcm(*(c.denominator for c in p.terms.values()))
    return scale, [(key, c.numerator * (scale // c.denominator)) for key, c in p.terms.items()]


def grid_axis(box, g):
    """Integer coordinates of the g + 1 grid points on an interval.

    Returns (nums, den): the point lo + width * k / g equals nums[k] / den,
    with den > 0 the same for every k.
    """
    den = lcm(box.lo.denominator, box.hi.denominator)
    lo, hi = (x.numerator * (den // x.denominator) for x in box)
    return [lo * (g - k) + hi * k for k in range(g + 1)], den * g


def grid_form(p, box_alpha, box_beta, g):
    """Integer form of p on the (g + 1) x (g + 1) grid over a box, by rows.

    Returns ((a_nums, a_den), (b_nums, b_den), rows): the grid's
    coordinates as grid_axis gives them, alpha_i = a_nums[i] / a_den and
    beta_j = b_nums[j] / b_den, and the g + 1 rows, row i the list of ints
    whose entry j is p(alpha_i, beta_j) times one positive constant, so
    signs are exact.  Horner evaluates only the (m + 1) x (n + 1) corner
    block, (m, n) p's bidegree; the rest are running sums of its forward
    differences, along alpha, then along each row.
    """
    m, n = p.degree_alpha(), p.degree_beta()
    a_nums, a_den = grid_axis(box_alpha, g)
    b_nums, b_den = grid_axis(box_beta, g)
    # coeffs[l][k]: the a^k b^l coefficient times scale * a_den^(m-k) * b_den^(n-l),
    # so that the value at (i, j), sum coeffs[l][k] * a_num^k * b_num^l, is homogeneous.
    coeffs = [[0] * (m + 1) for _ in range(n + 1)]
    for (k, l), c in _integer_terms(p)[1]:
        coeffs[l][k] = c * a_den ** (m - k) * b_den ** (n - l)
    block = []
    for x in a_nums[: m + 1]:
        in_beta = [_horner(c, x) for c in coeffs]
        block.append(_differences([_horner(in_beta, y) for y in b_nums[: n + 1]]))
    # starts[l][i]: the l-th forward difference along beta at (i, 0).
    starts = [_newton_run(_differences(d), g) for d in zip(*block)]
    return (a_nums, a_den), (b_nums, b_den), [_newton_run(d, g) for d in zip(*starts)]


def _horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _differences(values):
    if not values:
        return []
    return [values[0], *_differences([y - x for x, y in zip(values, values[1:])])]


def _newton_run(diffs, g):
    # Entries 0..g of a polynomial sequence from its differences at 0, the last
    # constant.  Entry j reads orders <= j, so a block cut at g + 1 is exact.
    run = [diffs[-1]] * (g + 1)
    for d in reversed(diffs[:-1]):
        run = list(accumulate(run[:g], initial=d))
    return run


def poly_format(p):
    """Canonical text form: graded-lex term order, alpha before beta.

    Examples: '0', 'a^2 - b^2', '1/3*a*b - 2'.
    """
    if not p.terms:
        return "0"
    parts = []
    for key in sorted(p.terms, key=_term_sort_key):
        i, j = key
        num, den = p.terms[key].numerator, p.terms[key].denominator
        mono = [x if e == 1 else f"{x}^{e}" for x, e in (("a", i), ("b", j)) if e]
        mag = f"{abs(num)}" if den == 1 else f"{abs(num)}/{den}"
        body = "*".join(mono if mag == "1" and mono else [mag, *mono])
        if not parts:
            parts.append(body if num > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if num > 0 else f"- {body}")
    return " ".join(parts)


def bernstein_coefficients(p, box_alpha, box_beta):
    """Tensor Bernstein coefficients of p on a box, on ints.

    Returns (den, grid): grid is a flat list of ints, row-major with alpha
    the row index, and grid[i * w + j] / den, 0 <= i <= m, 0 <= j <= n and
    w = n + 1, is the coefficient of p in the Bernstein basis of bidegree
    (m, n) = (degree in alpha, degree in beta) on the box.  den > 0 and
    gcd(den, *grid) == 1, so grid is the primitive integer positive
    multiple of the coefficients.  Key
    properties used by the certifier:
      * p on the box lies in [min grid, max grid] / den;
      * corner entries are den times the values of p at the box corners;
      * the entries of a face of the box are exactly the sub-grid of
        indices with i in {0}/{m} or j in {0}/{n}, and restrict p to it.
    Requires a non-degenerate box (positive widths).  grid is two integer
    products, a . power . b^T, with the axes' basis-change matrices, cached
    per (degree, box) with at most 64 kept.  The certifier calls this once
    per root box; boxes below it inherit their grids through split_grid.
    """
    if box_alpha.hi <= box_alpha.lo or box_beta.hi <= box_beta.lo:
        raise ValueError("bernstein_coefficients needs a full-dimensional box")
    m, n = map(max, zip((0, 0), *p.terms))  # both degrees, in one pass
    scale, terms = _integer_terms(p)
    terms = dict(terms)
    power = [[terms.get((i, j), 0) for j in range(n + 1)] for i in range(m + 1)]
    (a_ends, a_den), (b_ends, b_den) = grid_axis(box_alpha, 1), grid_axis(box_beta, 1)
    a, a_multiple = _bernstein_matrix(m, *a_ends, a_den)
    b, b_multiple = _bernstein_matrix(n, *b_ends, b_den)
    # Convert each alpha power's row along beta, then each column along alpha.
    columns = list(zip(*[[sum(map(mul, row, b_row)) for b_row in b] for row in power]))
    grid = [sum(map(mul, a_row, column)) for a_row in a for column in columns]
    den = scale * a_multiple * b_multiple
    g = gcd(den, *grid)
    return den // g, [x // g for x in grid]


@lru_cache(maxsize=64)
def _bernstein_matrix(d, lo, hi, den):
    # (matrix, d! den^d): matrix[k][e] is d! den^d times the k-th degree-d
    # Bernstein coefficient of x^e on [lo / den, hi / den].  With w = hi - lo,
    #   matrix[k][e] = den^(d - e) * sum_i C(k, i) i! (d - i)! C(e, i) lo^(e - i) w^i:
    # x = (lo + w u) / den, shift x^e by lo, and d! C(i, k) / C(d, k) = C(i, k) k! (d - k)!.
    w = hi - lo
    weights = [factorial(i) * factorial(d - i) * w**i for i in range(d + 1)]
    matrix = tuple(
        tuple(
            den ** (d - e) * sum(
                comb(k, i) * weights[i] * comb(e, i) * lo ** (e - i) for i in range(min(k, e) + 1)
            )
            for e in range(d + 1)
        )
        for k in range(d + 1)
    )
    return matrix, factorial(d) * den**d


def split_grid(grid, width, axis):
    """Integer Bernstein grids of the two halves of a box.

    grid is a positive multiple of the Bernstein coefficients of a
    polynomial on a box, flat and row-major with width = n + 1 as in
    bernstein_coefficients.  axis 0 halves alpha, axis 1 halves beta.  Each
    half comes back in that layout as a positive multiple of the
    coefficients on its half box: one midpoint de Casteljau with sums in
    place of averages, so the halves are 2^d times the grid's own multiple,
    d the degree along the split axis.  A level sums whole rows (axis 0) or
    neighbours, whose sums across row ends are never read (axis 1, read and
    written by stride-width slices).
    """
    step, stop = (1, width) if axis else (width, len(grid))
    at = [slice(k, None, width) if axis else slice(k, k + width) for k in range(0, stop, step)]
    # Level r of the de Casteljau triangle holds 2^r times the averages; its
    # first and last positions, times 2^(d - r), are the halves' r and d - r.
    lo, hi, level = grid[:], grid[:], grid
    for r, shift in enumerate(reversed(range(1, len(at)))):
        lo[at[r]] = map(lshift, level[at[0]], repeat(shift))
        hi[at[shift]] = map(lshift, level[at[shift]], repeat(shift))
        level = list(map(add, level, level[step:]))
    lo[at[-1]] = hi[at[0]] = level[at[0]]
    return lo, hi
