"""Tilt slopes, central charges, BG margins, and wall polynomials.

Conventions fixed here, with omega = alpha*H and B = beta*H:
  mu  = (ch1 - beta*ch0) / (alpha*ch0)
  nu  = (b_B - alpha^2*ch0/2) / (alpha*a_B)
  Z   = (-c_B + s*d*alpha^2*a_B) + i*(d*alpha*b_B - d*alpha^3*ch0/2)
where a_B, b_B are the twisted ch1, ch2 coordinates, c_B is the twisted
ch3 degree, and d = H^3.  Division by zero means +infinity throughout,
returned as None; a finite slope is a Fraction and Z is the pair
(Re Z, Im Z).  Every quantity exists both numerically (exact rational at
a point) and symbolically (BivariatePoly in a = alpha, b = beta).
"""

from dataclasses import dataclass
from fractions import Fraction

from .chern import DEGREE, twist
from .kernel import BivariatePoly, as_fraction, poly_eval  # poly_eval: kept for a bench patch

# Default of the parameter s in Z and in the degree-3 margin.
S_DEFAULT = Fraction(1, 6)


@dataclass(frozen=True)
class TiltParams:
    alpha: Fraction
    beta: Fraction
    s: Fraction = S_DEFAULT

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        object.__setattr__(self, "beta", as_fraction(self.beta))
        object.__setattr__(self, "s", as_fraction(self.s))
        if self.alpha <= 0:
            raise ValueError("tilt parameter alpha must be positive")


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


def twisted_ch_polynomials(v):
    """The four components of e^{-bH}*ch(v) as polynomials in b.

    The closed form, built straight from the coefficient table of the
    twist, row k holding the b^0, b^1, ... coefficients of component k:
      (r), (c1, -r), (c2, -c1, r/2), (c3, -d*c2, d*c1/2, -d*r/6).
    It never calls chern.twist, so the two are independent paths that
    the suite's bg item and the tests compare.
    """
    d = DEGREE
    r, c1, c2, c3 = v.as_tuple()
    rows = ((r,), (c1, -r), (c2, -c1, r / 2), (c3, -d * c2, d * c1 / 2, -d * r / 6))
    return tuple(BivariatePoly({(0, k): c for k, c in enumerate(row)}) for row in rows)


def z_polynomials(v, s=S_DEFAULT):
    """(Re, Im) of the central charge as polynomials in (a, b).

    Re = -t3 + s*d*a^2*t1 and Im = d*a*t2 - (d*ch0/2)*a^3, with t_k the
    twisted components; each term only shifts the a-exponent of a t_k
    term, so the two dicts are written out without polynomial products.
    """
    _, t1, t2, t3 = twisted_ch_polynomials(v)
    sd = as_fraction(s) * DEGREE
    re = {(0, j): -c for (_, j), c in t3.terms.items()}
    re.update(((2, j), sd * c) for (_, j), c in t1.terms.items())
    im = {(1, j): DEGREE * c for (_, j), c in t2.terms.items()}
    im[(3, 0)] = -DEGREE * v.ch0 / 2
    return BivariatePoly(re), BivariatePoly(im)


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
    conjectural inequality this toolkit probes; equals Re Z by design.
    """
    return bg_margin_from_squared(v, p.alpha**2, p.beta, p.s)


def bg_margin_from_squared(v, alpha_squared, beta, s=S_DEFAULT):
    """Degree-3 margin as a function of alpha^2.

    The margin only sees alpha through its square, so the nu = 0 locus
    (where alpha^2 is rational but alpha usually is not) stays exact.
    """
    t = twist(v, beta)
    return as_fraction(s) * DEGREE * as_fraction(alpha_squared) * t.ch1 - t.ch3


def nu_zero_alpha_squared(v, beta):
    """Solve nu(v) = 0 for alpha^2 at fixed beta.

    Returns 2*b_B/ch0, which may be <= 0 (no real locus at this beta),
    or None for rank 0: nu = b_B/(alpha*a_B) then does not depend on alpha,
    and vanishes for every alpha on the line beta = ch2/ch1 when ch1 != 0
    (where b_B = ch2 - beta*ch1 is 0), and nowhere when ch1 = 0.
    """
    if v.ch0 == 0:
        return None
    t = twist(v, beta)
    return 2 * t.ch2 / v.ch0


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
