"""Exact arithmetic substrate: rationals, rational intervals, bivariate polynomials.

Everything here is exact.  No floats enter any computation path; decimal
strings are produced only at the rendering edge (see svg.py).  Polynomials
live in Q[a, b] where `a` is the tilt parameter alpha and `b` is beta, stored
as a sparse map (i, j) -> coefficient with zero coefficients dropped.

The certifier's inner loops run on Python ints.  Where only a sign, a zero
or the position of a maximum matters, a value is carried as an integer
positive multiple of itself: Bernstein grids (bernstein_coefficients
returns (den, grid) with grid / den the exact coefficients and
gcd(den, *grid) == 1; split_grid) and grid values (grid_form returns
grid_axis's integer coordinates and the rows of values there, summed from
a corner block's forward differences).
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

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
    q = as_fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class RationalInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", as_fraction(self.lo))
        object.__setattr__(self, "hi", as_fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval: [{self.lo}, {self.hi}]")

    @property
    def width(self):
        return self.hi - self.lo

    def contains(self, x):
        return self.lo <= x <= self.hi

    def __str__(self):
        return f"[{format_rational(self.lo)}, {format_rational(self.hi)}]"


def _term_sort_key(key):
    i, j = key
    return (-(i + j), -i)


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
            c = as_fraction(c)
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

    @staticmethod
    def _coerce(other):
        if isinstance(other, BivariatePoly):
            return other
        if isinstance(other, (int, Fraction)):
            return BivariatePoly.constant(other)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        merged = dict(self.terms)
        for key, c in other.terms.items():
            merged[key] = merged.get(key, 0) + c
        return BivariatePoly(merged)

    __radd__ = __add__

    def __neg__(self):
        return BivariatePoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        return BivariatePoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative exponent")
        out = BivariatePoly.constant(1)
        for _ in range(n):
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


def _integer_endpoints(box):
    # (lo, hi, den): ints with box == [lo / den, hi / den].
    den = lcm(box.lo.denominator, box.hi.denominator)
    return (
        box.lo.numerator * (den // box.lo.denominator),
        box.hi.numerator * (den // box.hi.denominator),
        den,
    )


def grid_axis(box, g):
    """Integer coordinates of the g + 1 grid points on an interval.

    Returns (nums, den): the point lo + width * k / g equals nums[k] / den,
    with den > 0 the same for every k.
    """
    lo, hi, den = _integer_endpoints(box)
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
        c = p.terms[key]
        mono = []
        if i == 1:
            mono.append("a")
        elif i > 1:
            mono.append(f"a^{i}")
        if j == 1:
            mono.append("b")
        elif j > 1:
            mono.append(f"b^{j}")
        mag = abs(c)
        if mono and mag == 1:
            body = "*".join(mono)
        elif mono:
            body = "*".join([format_rational(mag)] + mono)
        else:
            body = format_rational(mag)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def bernstein_coefficients(p, box_alpha, box_beta):
    """Tensor Bernstein coefficients of p on a box, on ints.

    Returns (den, grid): grid[i][j], 0 <= i <= m, 0 <= j <= n, are ints and
    grid[i][j] / den is the coefficient of p in the Bernstein basis of
    bidegree (m, n) = (degree in alpha, degree in beta) on the box (alpha
    direction first).  den > 0 and gcd(den, *grid) == 1, so grid is the
    primitive integer positive multiple of the coefficients.  Key
    properties used by the certifier:
      * p on the box lies in [min grid, max grid] / den;
      * corner entries are den times the values of p at the box corners;
      * the entries of a face of the box are exactly the sub-grid of
        indices with i in {0}/{m} or j in {0}/{n}, and restrict p to it.
    Requires a non-degenerate box (positive widths).  The certifier calls
    this once per root box; boxes below it inherit their grids through
    split_grid.
    """
    if box_alpha.hi <= box_alpha.lo or box_beta.hi <= box_beta.lo:
        raise ValueError("bernstein_coefficients needs a full-dimensional box")
    m, n = p.degree_alpha(), p.degree_beta()
    scale, terms = _integer_terms(p)
    power = [[0] * (n + 1) for _ in range(m + 1)]
    for (i, j), c in terms:
        power[i][j] = c
    # The basis change is a tensor product: convert along alpha for each
    # power of beta, then along beta for each alpha index.
    columns, a_multiple = _bernstein_1d(zip(*power), m, box_alpha)
    rows, b_multiple = _bernstein_1d(zip(*columns), n, box_beta)
    den = scale * a_multiple * b_multiple
    g = gcd(den, *(x for row in rows for x in row))
    return den // g, [[x // g for x in row] for row in rows]


def _bernstein_1d(rows, d, box):
    # Each row c of d + 1 power coefficients (c[e] of x^e) to d! den^d times
    # its Bernstein coefficients on box = [lo / den, hi / den]; also returns
    # d! den^d.  With x = (lo + w u) / den, w = hi - lo: scale c[e] by
    # den^(d - e), Taylor-shift by lo, weight the u^k entry by
    # w^k k! (d - k)!, then sum with binomials, since
    # d! C(i, k) / C(d, k) = C(i, k) k! (d - k)!.
    lo, hi, den = _integer_endpoints(box)
    w = hi - lo
    up, down, den_powers = [1] * (d + 1), [1] * (d + 1), [1] * (d + 1)
    for k in range(1, d + 1):
        up[k] = up[k - 1] * k * w  # k! w^k
        down[d - k] = down[d - k + 1] * k  # down[e] = (d - e)!
        den_powers[d - k] = den_powers[d - k + 1] * den  # den^(d - e)
    weights = [x * y for x, y in zip(up, down)]
    out = []
    for row in rows:
        c = [x * y for x, y in zip(row, den_powers)]
        for i in range(d):
            for k in range(d - 1, i - 1, -1):
                c[k] += lo * c[k + 1]
        c = [x * y for x, y in zip(c, weights)]
        for i in range(d):
            for k in range(d, i, -1):
                c[k] += c[k - 1]
        out.append(c)
    return out, down[0] * den_powers[0]


def split_grid(grid, axis):
    """Integer Bernstein grids of the two halves of a box.

    grid is a positive multiple of the Bernstein coefficients of a
    polynomial on a box, rows along alpha as in bernstein_coefficients.
    axis 0 halves alpha, axis 1 halves beta.  Each half comes back as a
    positive multiple of the coefficients on its half box: one midpoint de
    Casteljau over whole rows, with sums in place of averages, so the
    halves are 2^d times the grid's own multiple, d the degree along the
    split axis.  Axis 1 runs it on the transpose.
    """
    if axis:
        lo, hi = split_grid(list(zip(*grid)), 0)
        return list(zip(*lo)), list(zip(*hi))
    # Level r of the de Casteljau triangle holds 2^r times the averages;
    # its first and last rows are the halves' rows r and d - r.
    lo, hi, level = [], [], grid
    for shift in reversed(range(len(grid))):
        lo.append([x << shift for x in level[0]])
        hi.append([x << shift for x in level[-1]])
        level = [[x + y for x, y in zip(u, v)] for u, v in zip(level, level[1:])]
    return lo, hi[::-1]
