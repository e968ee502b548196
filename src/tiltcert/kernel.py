"""Exact arithmetic substrate: rationals, interval hulls, bivariate polynomials.

Everything here is exact.  No floats enter any computation path; decimal
strings are produced only at the rendering edge (see svg.py).  Polynomials
live in Q[a, b] where `a` is the tilt parameter alpha and `b` is beta, stored
as a sparse map (i, j) -> coefficient with zero coefficients dropped.

The certifier's inner loops run on Python ints.  Where only a sign, a zero
or the position of a maximum matters, a value is carried as an integer
positive multiple of itself: Bernstein grids (integer_grid, split_grid),
grid values (grid_form, at the integer grid coordinates of grid_axis), and
the hull sums of poly_interval_eval, which divide once at the end and so
return the exact rational hull.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm

RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text):
    """Parse 'p' or 'p/q' into a Fraction.  Rejects floats, whitespace, empty."""
    if not isinstance(text, str) or not RAT_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def format_rational(q):
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class RationalInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval: [{self.lo}, {self.hi}]")

    @property
    def width(self):
        return self.hi - self.lo

    @property
    def midpoint(self):
        return (self.lo + self.hi) / 2

    def contains(self, x):
        return self.lo <= x <= self.hi

    def power(self, n):
        return RationalInterval(*_power_hull(self.lo, self.hi, n))

    def split(self):
        m = self.midpoint
        return RationalInterval(self.lo, m), RationalInterval(m, self.hi)

    def __str__(self):
        return f"[{format_rational(self.lo)}, {format_rational(self.hi)}]"


def _power_hull(lo, hi, n):
    # Exact hull of {x^n : x in [lo, hi]}; even powers of sign-mixed
    # intervals clamp the low end at 0 rather than multiplying endpoints.
    if n < 0:
        raise ValueError("negative exponent")
    if n == 0:
        return 1, 1
    if n % 2 == 1 or lo >= 0:
        return lo**n, hi**n
    if hi <= 0:
        return hi**n, lo**n
    return 0, max(-lo, hi) ** n


def _term_sort_key(key):
    i, j = key
    return (-(i + j), -i)


class BivariatePoly:
    """Sparse polynomial in Q[a, b], a = alpha, b = beta."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for (i, j), c in (terms or {}).items():
            c = Fraction(c)
            if c != 0:
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent in term {(i, j)}")
                clean[(int(i), int(j))] = c
        self.terms = clean

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def alpha(cls):
        return cls({(1, 0): Fraction(1)})

    @classmethod
    def beta(cls):
        return cls({(0, 1): Fraction(1)})

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
            merged[key] = merged.get(key, Fraction(0)) + c
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
                out[key] = out.get(key, Fraction(0)) + c1 * c2
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
    alpha, beta = Fraction(alpha), Fraction(beta)
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


def poly_interval_eval(p, box_alpha, box_beta):
    """Monomial-hull interval extension of p over a box.

    Sound enclosure: the exact range of p on the box is contained in the
    result.  Each monomial uses the exact power hull, so even powers of
    sign-mixed intervals do not leak below zero.  The sums run on ints:
    each axis's power hulls are formed once from integer endpoints over a
    common denominator, and one division at the end gives the exact hull.
    """
    m, n = p.degree_alpha(), p.degree_beta()
    a_pows, a_dens = _integer_power_hulls(box_alpha, m)
    b_pows, b_dens = _integer_power_hulls(box_beta, n)
    scale, terms = _integer_terms(p)
    lo = hi = 0
    for (i, j), c in terms:
        a_lo, a_hi = a_pows[i]
        b_lo, b_hi = b_pows[j]
        products = (a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)
        k = c * a_dens[m - i] * b_dens[n - j]
        if k > 0:
            lo += min(products) * k
            hi += max(products) * k
        else:
            lo += max(products) * k
            hi += min(products) * k
    den = scale * a_dens[m] * b_dens[n]
    return RationalInterval(Fraction(lo, den), Fraction(hi, den))


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


def _integer_power_hulls(box, d):
    # Power hulls of box^k, k <= d, as int pairs over den^k; and den^k.
    lo, hi, den = _integer_endpoints(box)
    return [_power_hull(lo, hi, k) for k in range(d + 1)], [den**k for k in range(d + 1)]


def grid_axis(box, g):
    """Integer coordinates of the g + 1 grid points on an interval.

    Returns (nums, den): the point lo + width * k / g equals nums[k] / den,
    with den > 0 the same for every k.
    """
    lo, hi, den = _integer_endpoints(box)
    return [lo * (g - k) + hi * k for k in range(g + 1)], den * g


def grid_form(p, box_alpha, box_beta, g):
    """Integer form of p on the (g + 1) x (g + 1) grid over a box.

    Returns value(i, j), an int equal to p(alpha_i, beta_j) times one
    positive constant, where alpha_i = alpha.lo + alpha.width * i / g and
    beta_j = beta.lo + beta.width * j / g.  Signs are therefore exact.  The
    row of coefficients in beta for each i is built on first use.
    """
    m, n = p.degree_alpha(), p.degree_beta()
    # alpha_i = a_nums[i] / a_den and beta_j = b_nums[j] / b_den (grid_axis).
    a_nums, a_den = grid_axis(box_alpha, g)
    b_nums, b_den = grid_axis(box_beta, g)
    # coeffs[l][k]: the a^k b^l coefficient times scale * a_den^(m-k) * b_den^(n-l),
    # so that value(i, j) = sum coeffs[l][k] * a_num^k * b_num^l is homogeneous.
    coeffs = [[0] * (m + 1) for _ in range(n + 1)]
    for (k, l), c in _integer_terms(p)[1]:
        coeffs[l][k] = c * a_den ** (m - k) * b_den ** (n - l)
    rows = {}

    def value(i, j):
        row = rows.get(i)
        if row is None:
            row = rows[i] = [_horner(col, a_nums[i]) for col in coeffs]
        return _horner(row, b_nums[j])

    return value


def _horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_equal(p, q):
    """Exact equality in Q[a, b] (coefficientwise on normalized terms)."""
    return p.terms == q.terms


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


_TERM_RE = re.compile(
    r"^(?:(?P<coeff>\d+(?:/\d+)?)\*?)?"
    r"(?:a(?:\^(?P<ai>\d+))?)?"
    r"(?:\*?b(?:\^(?P<bi>\d+))?)?$"
)


def poly_parse(text):
    """Parse the canonical text form back into a BivariatePoly."""
    s = text.strip()
    if s == "0":
        return BivariatePoly()
    if not s:
        raise ValueError("empty polynomial text")
    # Normalize to a signed-term list.
    s = s.replace("- ", "-").replace("+ ", "+")
    chunks = s.replace(" ", "").replace("-", "+-").split("+")
    if s.startswith("-"):
        chunks = chunks[1:]
    terms = {}
    for chunk in chunks:
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:]
        m = _TERM_RE.match(chunk)
        if not m or not chunk:
            raise ValueError(f"bad term: {chunk!r}")
        coeff = parse_rational(m.group("coeff")) if m.group("coeff") else Fraction(1)
        i = int(m.group("ai")) if m.group("ai") else (1 if _has_var(chunk, "a") else 0)
        j = int(m.group("bi")) if m.group("bi") else (1 if _has_var(chunk, "b") else 0)
        if m.group("coeff") is None and i == 0 and j == 0:
            raise ValueError(f"bad term: {chunk!r}")
        key = (i, j)
        terms[key] = terms.get(key, Fraction(0)) + sign * coeff
    return BivariatePoly(terms)


def _has_var(chunk, name):
    # 'a' may only appear as the variable (coefficients are numeric), so a
    # bare membership test is enough.
    return name in chunk


def bernstein_coefficients(p, box_alpha, box_beta):
    """Tensor Bernstein coefficients of p on a box.

    Returns (m, n, coeffs) where coeffs[i][j], 0 <= i <= m, 0 <= j <= n,
    are the coefficients in the Bernstein basis of bidegree (m, n) on the
    box (alpha direction first).  Key properties used by the certifier:
      * p on the box lies in [min coeffs, max coeffs];
      * corner coefficients equal the values of p at the box corners;
      * the coefficients of a face of the box are exactly the sub-grid of
        indices with i in {0}/{m} or j in {0}/{n}, and restrict p to it.
    Requires a non-degenerate box (positive widths).  The certifier calls
    this once per root box and scales the result with integer_grid; boxes
    below it inherit their grids through split_grid.
    """
    wa, wb = box_alpha.width, box_beta.width
    if wa <= 0 or wb <= 0:
        raise ValueError("bernstein_coefficients needs a full-dimensional box")
    m, n = p.degree_alpha(), p.degree_beta()
    scale, terms = _integer_terms(p)
    power = [[0] * (n + 1) for _ in range(m + 1)]
    for (i, j), c in terms:
        power[i][j] = c
    # The basis change is a tensor product: convert along alpha for each
    # power of beta, then along beta for each alpha index, all on ints.
    a_lo, a_hi, a_den = _integer_endpoints(box_alpha)
    b_lo, b_hi, b_den = _integer_endpoints(box_beta)
    columns = [_bernstein_1d(col, a_lo, a_hi, a_den) for col in zip(*power)]
    rows = [_bernstein_1d(row, b_lo, b_hi, b_den) for row in zip(*columns)]
    den = scale * factorial(m) * a_den**m * factorial(n) * b_den**n
    return m, n, [[Fraction(x, den) for x in row] for row in rows]


def _bernstein_1d(coeffs, lo, hi, den):
    # d! den^d times the Bernstein coefficients of sum coeffs[e] x^e on
    # [lo / den, hi / den]: substitute x = (lo + (hi - lo) u) / den, then
    # change the basis on [0, 1] with d! C(i, k) / C(d, k) as ints.
    d = len(coeffs) - 1
    unit = [
        (hi - lo) ** k
        * sum(comb(e, k) * coeffs[e] * lo ** (e - k) * den ** (d - e) for e in range(k, d + 1))
        for k in range(d + 1)
    ]
    return [
        sum(unit[k] * factorial(i) * factorial(d - k) // factorial(i - k) for k in range(i + 1))
        for i in range(d + 1)
    ]


def integer_grid(coeffs):
    """Bernstein coefficients scaled by the lcm of their denominators.

    The result is a positive multiple of coeffs as rows of ints, so every
    sign, zero and maximum position the certifier reads is unchanged.
    """
    scale = lcm(*(c.denominator for row in coeffs for c in row))
    return [[c.numerator * (scale // c.denominator) for c in row] for row in coeffs]


def split_grid(grid, axis):
    """Integer Bernstein grids of the two halves of a box.

    grid is a positive multiple of the Bernstein coefficients of a
    polynomial on a box, rows along alpha as in bernstein_coefficients.
    axis 0 halves alpha, axis 1 halves beta.  Each half comes back as a
    positive multiple of the coefficients on its half box: midpoint de
    Casteljau with sums in place of averages, so the halves are 2^d times
    the grid's own multiple, d the degree along the split axis.
    """
    if axis == 0:
        lo, hi = split_grid([list(col) for col in zip(*grid)], 1)
        return [list(row) for row in zip(*lo)], [list(row) for row in zip(*hi)]
    halves = [_halve(row) for row in grid]
    return [lo for lo, _ in halves], [hi for _, hi in halves]


def _halve(row):
    # Level r of the de Casteljau triangle holds 2^r times the averages;
    # its first and last entries are the halves' coefficients r and d - r.
    d = len(row) - 1
    lo, hi = [0] * (d + 1), [0] * (d + 1)
    level = row
    for r in range(d + 1):
        lo[r] = level[0] << (d - r)
        hi[d - r] = level[-1] << (d - r)
        level = [x + y for x, y in zip(level, level[1:])]
    return lo, hi
