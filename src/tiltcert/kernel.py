"""Exact arithmetic substrate: rationals, interval hulls, bivariate polynomials.

Everything here is exact.  No floats enter any computation path; decimal
strings are produced only at the rendering edge (see svg.py).  Polynomials
live in Q[a, b] where `a` is the tilt parameter alpha and `b` is beta, stored
as a sparse map (i, j) -> coefficient with zero coefficients dropped.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb

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

    def __add__(self, other):
        return RationalInterval(self.lo + other.lo, self.hi + other.hi)

    def __neg__(self):
        return RationalInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        products = [a * b for a in (self.lo, self.hi) for b in (other.lo, other.hi)]
        return RationalInterval(min(products), max(products))

    def scale(self, c):
        c = Fraction(c)
        if c >= 0:
            return RationalInterval(self.lo * c, self.hi * c)
        return RationalInterval(self.hi * c, self.lo * c)

    def power(self, n):
        # Exact hull of {x^n : x in [lo, hi]}; even powers of sign-mixed
        # intervals clamp the low end at 0 rather than multiplying endpoints.
        if n < 0:
            raise ValueError("negative exponent")
        if n == 0:
            return RationalInterval(Fraction(1), Fraction(1))
        if n % 2 == 1:
            return RationalInterval(self.lo**n, self.hi**n)
        if self.lo >= 0:
            return RationalInterval(self.lo**n, self.hi**n)
        if self.hi <= 0:
            return RationalInterval(self.hi**n, self.lo**n)
        return RationalInterval(Fraction(0), max(-self.lo, self.hi) ** n)

    def split(self):
        m = self.midpoint
        return RationalInterval(self.lo, m), RationalInterval(m, self.hi)

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


def poly_interval_eval(p, box_alpha, box_beta):
    """Monomial-hull interval extension of p over a box.

    Sound enclosure: the exact range of p on the box is contained in the
    result.  Each monomial uses the exact power hull, so even powers of
    sign-mixed intervals do not leak below zero.
    """
    total = RationalInterval(Fraction(0), Fraction(0))
    for (i, j), c in p.terms.items():
        total = total + (box_alpha.power(i) * box_beta.power(j)).scale(c)
    return total


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
    Requires a non-degenerate box (positive widths).
    """
    wa, wb = box_alpha.width, box_beta.width
    if wa <= 0 or wb <= 0:
        raise ValueError("bernstein_coefficients needs a full-dimensional box")
    # Rebase to the unit square: substitute a -> a0 + wa*u, b -> b0 + wb*v.
    u = BivariatePoly.alpha() * wa + BivariatePoly.constant(box_alpha.lo)
    v = BivariatePoly.beta() * wb + BivariatePoly.constant(box_beta.lo)
    m = p.degree_alpha()
    n = p.degree_beta()
    u_pows = [BivariatePoly.constant(1)]
    for _ in range(m):
        u_pows.append(u_pows[-1] * u)
    v_pows = [BivariatePoly.constant(1)]
    for _ in range(n):
        v_pows.append(v_pows[-1] * v)
    q = BivariatePoly()
    for (i, j), c in p.terms.items():
        q = q + u_pows[i] * v_pows[j] * c
    # Power basis on [0,1]^2 -> Bernstein basis of bidegree (m, n).
    d = [[q.terms.get((k, l), Fraction(0)) for l in range(n + 1)] for k in range(m + 1)]
    coeffs = []
    for i in range(m + 1):
        row = []
        for j in range(n + 1):
            acc = Fraction(0)
            for k in range(i + 1):
                ck = Fraction(comb(i, k), comb(m, k))
                for l in range(j + 1):
                    acc += ck * Fraction(comb(j, l), comb(n, l)) * d[k][l]
            row.append(acc)
        coeffs.append(row)
    return m, n, coeffs
