"""Tilt slopes, central charges, BG margins, and wall polynomials.

Conventions fixed here, with omega = alpha*H and B = beta*H:
  mu  = (ch1 - beta*ch0) / (alpha*ch0)
  nu  = (b_B - alpha^2*ch0/2) / (alpha*a_B)
  Z   = (-c_B + s*d*alpha^2*a_B) + i*(d*alpha*b_B - d*alpha^3*ch0/2)
where a_B, b_B are the twisted ch1, ch2 coordinates, c_B is the twisted
ch3 degree, and d = H^3.  Division by zero means +infinity throughout,
returned as None; a finite slope is a Fraction and Z is the pair
(Re Z, Im Z).  Every quantity exists both numerically (exact rational at
a point) and symbolically (BivariatePoly in a = alpha, b = beta).  Each of
twisted_ch_polynomials, z_polynomials and cross_polynomial is a typed
lru_cache of at most 64 results, shared by every caller with equal arguments.
Their one gate: twisted_ch_polynomials, run on every miss of the other two,
refuses a v that is not a ChernCharacter, so no float in a tuple is cached.
"""

from fractions import Fraction
from functools import lru_cache

from .chern import DEGREE, ChernCharacter, twist
from .kernel import BivariatePoly, as_fraction, checked_namedtuple, substitute
from .kernel import poly_eval  # unread: bench/tracing.py's kernel.poly_eval patches it

# Default of the parameter s in Z and in the degree-3 margin.
S_DEFAULT = Fraction(1, 6)


class TiltParams(checked_namedtuple("TiltParams", "alpha beta s")):
    __slots__ = ()

    def __new__(cls, alpha, beta, s=S_DEFAULT):
        alpha, beta, s = as_fraction(alpha), as_fraction(beta), as_fraction(s)
        if alpha <= 0:
            raise ValueError("tilt parameter alpha must be positive")
        return super().__new__(cls, alpha, beta, s)


def mu(v, p):
    if v.ch0 == 0:
        return None
    return (v.ch1 - p.beta * v.ch0) / (p.alpha * v.ch0)


def nu(v, p):
    t = twist(v, p.beta)
    if t.ch1 == 0:
        return None
    return (t.ch2 - p.alpha**2 * v.ch0 / 2) / (p.alpha * t.ch1)


def central_charge(v, p):
    """Z(v) at p as the pair (Re Z, Im Z)."""
    t = twist(v, p.beta)
    re = -t.ch3 + p.s * DEGREE * p.alpha**2 * t.ch1
    im = DEGREE * p.alpha * t.ch2 - DEGREE * p.alpha**3 * v.ch0 / 2
    return re, im


def lambda_slope(v, p):
    re, im = central_charge(v, p)
    if im == 0:
        return None
    return -re / im


@lru_cache(maxsize=64, typed=True)
def twisted_ch_polynomials(v):
    """The four components of e^{-bH}*ch(v) as polynomials in b.

    The closed form, built straight from the coefficient table of the
    twist, row k holding the b^0, b^1, ... coefficients of component k:
      (r), (c1, -r), (c2, -c1, r/2), (c3, -d*c2, d*c1/2, -d*r/6).
    It never calls chern.twist, so the two are independent paths that
    the suite's bg item and the tests compare.  Raises TypeError unless v
    is a ChernCharacter.
    """
    if type(v) is not ChernCharacter:
        raise TypeError(f"not a ChernCharacter: {v!r}")
    d = DEGREE
    r, c1, c2, c3 = v
    rows = ((r,), (c1, -r), (c2, -c1, r / 2), (c3, -d * c2, d * c1 / 2, -d * r / 6))
    return tuple(BivariatePoly({(0, k): c for k, c in enumerate(row)}) for row in rows)


@lru_cache(maxsize=64, typed=True)
def z_polynomials(v, s=S_DEFAULT):
    """(Re, Im) of the central charge as polynomials in (a, b):
    Re = -t3 + s*d*a^2*t1 and Im = d*a*t2 - (d*ch0/2)*a^3, with t_k the
    twisted components."""
    _, t1, t2, t3 = twisted_ch_polynomials(v)
    a = BivariatePoly.alpha()
    return as_fraction(s) * DEGREE * a**2 * t1 - t3, DEGREE * a * t2 - DEGREE * v.ch0 / 2 * a**3


@lru_cache(maxsize=64, typed=True)
def cross_polynomial(v, w, s=S_DEFAULT):
    """Cross product Re Z(v)*Im Z(w) - Im Z(v)*Re Z(w) as a polynomial.

    Its sign tells which side of the ray through Z(v) the vector Z(w)
    lies on; antisymmetric in (v, w).
    """
    re_v, im_v = z_polynomials(v, s)
    re_w, im_w = z_polynomials(w, s)
    return re_v * im_w - im_v * re_w


def bg_margin(v, p):
    """Margin s*omega^2*ch1^B - ch3^B of the degree-3 inequality.

    Nonnegative at nu = 0 for s = 1/6 (strict for s > 1/6) is the
    conjectural inequality this toolkit probes.  It is Re Z at p.
    """
    return central_charge(v, p)[0]


def nu_zero_locus(ch, s):
    """The nu = 0 locus of ch and the margin s*d*alpha^2*t1 - t3 on it.
    ch0 != 0: (alpha^2, margin) in b = beta, alpha^2 = 2*t2/ch0.  ch0 = 0 !=
    ch1: (beta, margin in a), as nu = t2/(alpha*t1) is 0 on beta = ch2/ch1.
    ch0 = ch1 = 0: None.  The t_k are the twisted components of ch."""
    _, t1, t2, t3 = twisted_ch_polynomials(ch)
    if ch.ch0 != 0:
        squared = t2 * (2 / ch.ch0)
        return squared, s * DEGREE * squared * t1 - t3
    if ch.ch1 != 0:
        beta = BivariatePoly.constant(ch.ch2 / ch.ch1)
        return beta, substitute(s * DEGREE * BivariatePoly.alpha() ** 2 * t1 - t3, beta)
    return None


def wall_polynomial(v, w):
    """Implicit curve W(a, b) = 0 where nu(v) = nu(w) (away from poles).

    W = (b_B(v) - a^2*ch0(v)/2)*a_B(w) - (b_B(w) - a^2*ch0(w)/2)*a_B(v).
    """
    a = BivariatePoly.alpha()
    _, t1v, t2v, _ = twisted_ch_polynomials(v)
    _, t1w, t2w, _ = twisted_ch_polynomials(w)
    num_v = t2v - a**2 * Fraction(v.ch0, 2)
    num_w = t2w - a**2 * Fraction(w.ch0, 2)
    return num_v * t1w - num_w * t1v
