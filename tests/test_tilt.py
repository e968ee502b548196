"""Slopes, central charges, margins, walls on the quadric.

Closed forms are cross-checked against independently entered sympy
expressions (test-only oracle), then against direct pointwise evaluation.
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tiltcert
from tiltcert.certify import Region
from tiltcert.chern import (
    CATALOG,
    DEGREE,
    ChernCharacter,
    catalog_lookup,
    line_bundle_ch,
    shift,
    tensor_line,
    twist,
)
from tiltcert.heart import heart_ch
from tiltcert.kernel import BivariatePoly, RationalInterval, poly_eval, substitute
from tiltcert.suite import verify_all
from tiltcert.tilt import (
    S_DEFAULT,
    TiltParams,
    bg_margin,
    central_charge,
    cross_polynomial,
    lambda_slope,
    mu,
    nu,
    nu_zero_locus,
    twisted_ch_polynomials,
    wall_polynomial,
    z_polynomials,
)

F = Fraction
SA, SB = sympy.symbols("a b")


def to_sympy(p):
    return sympy.expand(
        sum(sympy.Rational(c) * SA**i * SB**j for (i, j), c in p.terms.items())
    )


def sympy_equal(p, expr):
    return sympy.expand(to_sympy(p) - sympy.expand(expr)) == 0


def obj(label):
    return catalog_lookup(label).ch


def test_params_validation():
    with pytest.raises(ValueError):
        TiltParams(F(0), F(0))
    with pytest.raises(ValueError):
        TiltParams(F(-1, 4), F(0))
    p = TiltParams(F(1, 4), F(-1, 2))
    assert p.s == F(1, 6)


def test_float_values_are_refused():
    # Fraction(0.1) would store 3602879701896397/36028797018963968.
    for build in (
        lambda: TiltParams(0.1, 0),
        lambda: TiltParams(1, 0.5),
        lambda: TiltParams(1, 0, 0.5),
        lambda: z_polynomials(obj("O"), 0.5),
    ):
        with pytest.raises(TypeError):
            build()
    p = TiltParams(1, F(1, 2))
    assert all(type(x) is Fraction for x in (p.alpha, p.beta, p.s))


def test_cached_builders_still_refuse_floats():
    # The caches are typed: a float s never finds the entry of an equal
    # Fraction.  A character must be a ChernCharacter: a plain tuple, whose
    # floats equal and hash as Fractions, is refused even after an equal
    # ChernCharacter or tuple was asked for, so no call caches one.
    o, o1 = obj("O"), obj("O(1)")
    o_floats = (1.0, 0.0, 0.0, 0.0)
    z_polynomials(o, F(1, 2))
    cross_polynomial(o, o1, F(1, 2))
    twisted_ch_polynomials(ChernCharacter(1, 0, 0, 0))
    for build in (
        lambda: z_polynomials(o, 0.5),
        lambda: cross_polynomial(o, o1, 0.5),
        lambda: twisted_ch_polynomials((1, 0, 0, 0)),
        lambda: twisted_ch_polynomials((F(1), F(0), F(0), F(0))),
        lambda: twisted_ch_polynomials(o_floats),
        lambda: twisted_ch_polynomials((F(1), 0, 0, 0)),
        lambda: twisted_ch_polynomials(o_floats),
        lambda: z_polynomials(tuple(o), F(1, 2)),
        lambda: z_polynomials(o_floats, F(1, 2)),
        lambda: cross_polynomial(tuple(o), o1, F(1, 2)),
        lambda: cross_polynomial(o_floats, o1, F(1, 2)),
        lambda: cross_polynomial(o1, o_floats, F(1, 2)),
    ):
        with pytest.raises(TypeError):
            build()
    with pytest.raises(TypeError, match="not a ChernCharacter"):
        z_polynomials((F(1), F(0), F(0), F(0)))


BUILDERS = (twisted_ch_polynomials, z_polynomials, cross_polynomial, heart_ch)


def test_proof_polynomials_are_built_once_per_character():
    # The closed-form builders are cached by value.  A default run builds
    # the polynomials of 19 characters, 16 central charges, 3 cross products
    # and 11 heart characters once each, and reuses them for 23 calls; runs
    # on another depth or region build nothing again.
    for builder in BUILDERS:
        builder.cache_clear()
    verify_all()
    infos = [builder.cache_info() for builder in BUILDERS]
    assert all(isinstance(info.maxsize, int) for info in infos)
    assert all(info.misses <= bound for info, bound in zip(infos, (19, 16, 3, 11)))
    assert sum(info.hits for info in infos) >= 23
    widened = Region(
        beta=RationalInterval(F(-1, 2), F(1, 2)),
        alpha=RationalInterval(F(0), F(1, 3)),
        beta_open=(False, False),
        alpha_open=(True, True),
    )
    assert verify_all(max_depth=0).status == "inconclusive"
    assert verify_all(region=widened).status == "failed"
    assert [builder.cache_info().misses for builder in BUILDERS] == [i.misses for i in infos]


def test_point_values_are_plain_fractions():
    # +infinity is None; every other slope, and both parts of Z, is a Fraction.
    for p in (TiltParams(F(1, 4), F(0)), TiltParams(F(1, 4), F(-1, 4))):
        for entry in CATALOG:
            for slope in (mu, nu, lambda_slope):
                value = slope(entry.ch, p)
                assert value is None or type(value) is Fraction
            z = central_charge(entry.ch, p)
            assert type(z) is tuple and [type(x) for x in z] == [Fraction, Fraction]
    assert not {"ExtendedSlope", "INFINITE_SLOPE", "ComplexRational"} & set(tiltcert.__all__)


def test_mu_values_and_infinity():
    p = TiltParams(F(1, 4), F(-1, 4))
    assert mu(obj("S(-1)"), p) == -1
    assert mu(obj("O(1)"), p) == 5
    assert mu(obj("k(x)"), p) is None


def test_mu_closed_forms_sympy():
    # mu = (ch1 - beta*ch0) / (alpha*ch0)
    forms = {
        "O(-1)": (-1 - SB) / SA,
        "O": -SB / SA,
        "O(1)": (1 - SB) / SA,
        "S(-1)": -(2 * SB + 1) / (2 * SA),
    }
    rng = random.Random(3)
    for label, expr in forms.items():
        for _ in range(25):
            alpha = F(rng.randrange(1, 40), 24)
            beta = F(rng.randrange(-40, 41), 24)
            expected = F(str(expr.subs({SA: sympy.Rational(alpha), SB: sympy.Rational(beta)})))
            assert mu(obj(label), TiltParams(alpha, beta)) == expected


def test_nu_closed_forms_sympy():
    forms = {
        "O(-1)": (SA**2 - (1 + SB) ** 2) / (2 * SA * (1 + SB)),
        "O": (SA**2 - SB**2) / (2 * SA * SB),
        "O(1)": ((1 - SB) ** 2 - SA**2) / (2 * SA * (1 - SB)),
        "S(-1)": (SA**2 - SB * (SB + 1)) / (SA * (2 * SB + 1)),
    }
    rng = random.Random(4)
    for label, expr in forms.items():
        count = 0
        while count < 25:
            alpha = F(rng.randrange(1, 40), 24)
            beta = F(rng.randrange(-40, 41), 24)
            denom = expr.as_numer_denom()[1].subs(
                {SA: sympy.Rational(alpha), SB: sympy.Rational(beta)}
            )
            if denom == 0:
                continue
            count += 1
            value = expr.subs({SA: sympy.Rational(alpha), SB: sympy.Rational(beta)})
            expected = F(int(value.p), int(value.q))
            assert nu(obj(label), TiltParams(alpha, beta)) == expected


def test_nu_boundary_values():
    # nu(S(-1)) vanishes on alpha^2 = beta^2 + beta, e.g. (alpha, beta) with
    # beta = -1/4: alpha^2 = -3/16 impossible; use the rank-0 and pole cases.
    assert nu(obj("k(x)"), TiltParams(F(1, 4), F(0))) is None
    # pole of nu(O): twisted ch1 = 0 at beta = 0
    assert nu(obj("O"), TiltParams(F(1, 4), F(0))) is None
    # nu(O) = 0 on alpha = -beta > 0
    assert nu(obj("O"), TiltParams(F(1, 4), F(-1, 4))) == 0


def test_z_closed_forms_sympy():
    forms = {
        "O(-1)": (
            ((1 + SB) ** 2 - SA**2) * (SB + 1) / 3,
            SA * ((1 + SB) ** 2 - SA**2),
        ),
        "O": ((SB**2 - SA**2) * SB / 3, SA * (SB**2 - SA**2)),
        "O(1)": (
            ((1 - SB) ** 2 - SA**2) * (SB - 1) / 3,
            SA * ((1 - SB) ** 2 - SA**2),
        ),
        "S(-1)": (
            (2 * SB + 1) * (2 * SB**2 + 2 * SB - 1 - 2 * SA**2) / 6,
            2 * SA * (SB**2 + SB - SA**2),
        ),
    }
    for label, (re_expr, im_expr) in forms.items():
        re_poly, im_poly = z_polynomials(obj(label))
        assert sympy_equal(re_poly, re_expr)
        assert sympy_equal(im_poly, im_expr)


def test_z_skyscraper_constant():
    re_poly, im_poly = z_polynomials(obj("k(x)"))
    assert re_poly == BivariatePoly.constant(F(-1))
    assert im_poly == BivariatePoly()
    assert central_charge(obj("k(x)"), TiltParams(F(1, 5), F(-2, 7))) == (-1, 0)


def test_two_path_agreement():
    rng = random.Random(2026)
    for label in ("O(-1)", "O", "O(1)", "S(-1)", "S", "k(x)"):
        re_poly, im_poly = z_polynomials(obj(label))
        for _ in range(30):
            alpha = F(rng.randrange(1, 60), 36)
            beta = F(rng.randrange(-60, 61), 36)
            re, im = central_charge(obj(label), TiltParams(alpha, beta))
            assert re == poly_eval(re_poly, alpha, beta)
            assert im == poly_eval(im_poly, alpha, beta)


def test_z_additive_in_character():
    rng = random.Random(99)
    for _ in range(30):
        v = ChernCharacter(F(rng.randrange(-3, 4)), F(rng.randrange(-4, 5)),
                           F(rng.randrange(-6, 7), 2), F(rng.randrange(-6, 7), 3))
        w = ChernCharacter(F(rng.randrange(-3, 4)), F(rng.randrange(-4, 5)),
                           F(rng.randrange(-6, 7), 2), F(rng.randrange(-6, 7), 3))
        p = TiltParams(F(rng.randrange(1, 20), 12), F(rng.randrange(-20, 21), 12))
        (re_v, im_v), (re_w, im_w) = central_charge(v, p), central_charge(w, p)
        assert central_charge(v + w, p) == (re_v + re_w, im_v + im_w)


def test_shift_negates_charge():
    p = TiltParams(F(1, 8), F(-3, 8))
    for label in ("O(-1)", "O", "O(1)", "S(-1)"):
        re, im = central_charge(obj(label), p)
        assert central_charge(shift(obj(label), 1), p) == (-re, -im)


def test_lambda_slope_values():
    p = TiltParams(F(1, 8), F(-3, 8))
    # lambda = -Re/Im; for O(1): ((1-beta)^2-alpha^2) cancels, leaving (1-beta)/(3*alpha)
    assert lambda_slope(obj("O(1)"), p) == (1 - p.beta) / (3 * p.alpha)
    # Im Z(k(x)) = 0: infinite
    assert lambda_slope(obj("k(x)"), p) is None


def test_nu_mu_sign_bridge():
    # For positive-rank v with mu finite: sign(Im Z) = sign of alpha*a_B,
    # so nu's denominator and mu's numerator share their sign.
    rng = random.Random(55)
    for _ in range(40):
        v = ChernCharacter(F(rng.randrange(1, 4)), F(rng.randrange(-4, 5)),
                           F(rng.randrange(-6, 7), 2), F(rng.randrange(-6, 7), 3))
        alpha = F(rng.randrange(1, 20), 12)
        beta = F(rng.randrange(-20, 21), 12)
        t = twist(v, beta)
        m = mu(v, TiltParams(alpha, beta))
        assert m is not None
        numerator_sign = (t.ch1 > 0) - (t.ch1 < 0)
        assert ((m > 0) - (m < 0)) == numerator_sign


def test_bg_margin_frozen_examples():
    p = TiltParams(F(1, 4), F(-1, 4))
    assert bg_margin(obj("k(x)"), p) == -1
    # O + O(1) at alpha^2 = 1/2 - beta + beta^2 gives (2*beta - 1)/6.
    v = obj("O") + obj("O(1)")
    where, margin = nu_zero_locus(v, S_DEFAULT)
    rng = random.Random(30)
    for _ in range(20):
        beta = F(rng.randrange(-24, 25), 24)
        assert poly_eval(where, 0, beta) == F(1, 2) - beta + beta**2
        assert poly_eval(margin, 0, beta) == (2 * beta - 1) / 6


def test_bg_margin_line_bundles_zero():
    for n in range(-3, 4):
        v = line_bundle_ch(n)
        for j in range(50):
            beta = F(2 * j + 1, 100) - F(1, 2)
            p = TiltParams(abs(n - beta), beta)
            assert bg_margin(v, p) == 0


def test_bg_margin_matches_re_z():
    # Re Z is the degree-3 margin s*d*alpha^2*ch1^B - ch3^B, written out here
    # from chern.twist alone.
    rng = random.Random(77)

    def rational():
        return F(rng.randrange(-24, 25), rng.randrange(1, 13))

    randoms = [ChernCharacter(*(rational() for _ in range(4))) for _ in range(20)]
    for v in [entry.ch for entry in CATALOG] + randoms:
        for s in (F(1, 6), F(1, 5), F(1, 3)):
            for _ in range(10):
                alpha, beta = F(rng.randrange(1, 20), 12), rational()
                t = twist(v, beta)
                expected = s * DEGREE * alpha**2 * t.ch1 - t.ch3
                assert bg_margin(v, TiltParams(alpha, beta, s)) == expected


def test_wall_polynomial_frozen():
    w = wall_polynomial(obj("O"), obj("O(1)"))
    a = BivariatePoly.alpha()
    b = BivariatePoly.beta()
    assert w == F(-1, 2) * (b**2 - b + a**2)
    assert poly_eval(w, F(2, 5), F(1, 5)) == 0
    w2 = wall_polynomial(obj("O"), line_bundle_ch(2))
    assert w2 == -((b - 1) ** 2 + a**2 - 1)


def test_wall_antisymmetry_and_self():
    rng = random.Random(44)
    for _ in range(20):
        v = ChernCharacter(F(rng.randrange(-3, 4)), F(rng.randrange(-4, 5)),
                           F(rng.randrange(-6, 7), 2), F(rng.randrange(-6, 7), 3))
        w = ChernCharacter(F(rng.randrange(-3, 4)), F(rng.randrange(-4, 5)),
                           F(rng.randrange(-6, 7), 2), F(rng.randrange(-6, 7), 3))
        assert wall_polynomial(v, w) == -1 * wall_polynomial(w, v)
        assert wall_polynomial(v, v) == BivariatePoly()


def test_wall_vanishes_where_nu_equal():
    v = obj("O")
    w = obj("O(1)")
    wall = wall_polynomial(v, w)
    point = (F(2, 5), F(1, 5))
    assert poly_eval(wall, *point) == 0
    p = TiltParams(*point)
    assert nu(v, p) == nu(w, p)


def test_cross_polynomial_is_bilinear_determinant():
    v = obj("O(1)")
    w = obj("S(-1)")
    cross = cross_polynomial(v, w)
    rev, imv = z_polynomials(v)
    rew, imw = z_polynomials(w)
    assert cross == rev * imw - imv * rew
    assert cross_polynomial(v, v) == BivariatePoly()
    assert cross_polynomial(w, v) == -1 * cross


def test_twisted_polys_match_pointwise_twist():
    # Both sides are polynomials of degree <= 3 in beta (twist's formula is
    # cubic in beta), so agreement at 4 distinct beta is the identity.
    for label in ("O(-1)", "O", "O(1)", "S(-1)", "k(x)"):
        polys = twisted_ch_polynomials(obj(label))
        assert all(p.degree_alpha() == 0 and p.degree_beta() <= 3 for p in polys)
        for beta in (F(-1), F(0), F(1, 3), F(2)):
            t = twist(obj(label), beta)
            values = tuple(poly_eval(p, 0, beta) for p in polys)
            assert values == (t.ch0, t.ch1, t.ch2, t.ch3)


def _twisted_by_products(v):
    # Reference built by BivariatePoly products, not from the coefficient table.
    b = BivariatePoly.beta()
    c0, c1, c2, c3 = (BivariatePoly.constant(c) for c in v)
    return (
        c0,
        c1 - b * v.ch0,
        c2 - b * v.ch1 + b**2 * F(v.ch0, 2),
        c3 - b * (DEGREE * v.ch2) + b**2 * (F(DEGREE, 2) * v.ch1)
        - b**3 * (F(DEGREE, 6) * v.ch0),
    )


def _z_by_products(v, s):
    a = BivariatePoly.alpha()
    _, t1, t2, t3 = _twisted_by_products(v)
    re = -t3 + a**2 * t1 * (F(s) * DEGREE)
    im = a * t2 * DEGREE - a**3 * F(DEGREE * v.ch0, 2)
    return re, im


rationals = st.builds(F, st.integers(-24, 24), st.integers(1, 12))
characters = st.builds(ChernCharacter, st.just(F(0)) | rationals, rationals, rationals, rationals)


@settings(max_examples=200, deadline=None)
@given(characters, rationals)
@example(ChernCharacter(0, 0, 0, 0), F(1, 6))
@example(ChernCharacter(0, 1, F(-1, 2), F(1, 3)), F(0))
@example(ChernCharacter(2, -1, 0, F(1, 6)), F(1, 6))
def test_closed_forms_match_product_chain_and_pointwise(v, s):
    twisted = twisted_ch_polynomials(v)
    re_poly, im_poly = z_polynomials(v, s)
    assert all(p == q for p, q in zip(twisted, _twisted_by_products(v)))
    re_ref, im_ref = _z_by_products(v, s)
    assert re_poly == re_ref and im_poly == im_ref
    # Degrees are <= 3 in each variable, so 4 x 4 grid agreement is identity.
    for beta in (F(-1), F(0), F(1, 3), F(2)):
        t = twist(v, beta)
        assert tuple(poly_eval(p, 0, beta) for p in twisted) == tuple(t)
        for alpha in (F(1, 4), F(1, 2), F(1), F(3)):
            z = central_charge(v, TiltParams(alpha, beta, s))
            assert (poly_eval(re_poly, alpha, beta), poly_eval(im_poly, alpha, beta)) == z


@settings(max_examples=100, deadline=None)
@given(characters, rationals)
@example(ChernCharacter(0, 0, 0, 0), F(1, 6))
@example(obj("S"), F(1, 6))
@example(obj("O(-1)"), F(1, 3))
def test_beta_symmetries_behind_the_strip(v, s):
    # The suite certifies on beta in [-1/2, 0] only.  The usual reduction
    # to that strip rests on two exact symmetries of the twisted character.
    b = BivariatePoly.beta()
    twisted = twisted_ch_polynomials(v)
    re, im = z_polynomials(v, s)
    # Tensoring by O(1) moves beta by 1: E(1) at b + 1 is E at b.
    moved = tensor_line(v, 1)
    for p, q in zip(twisted_ch_polynomials(moved), twisted):
        assert substitute(p, b + 1) == q
    re_moved, im_moved = z_polynomials(moved, s)
    assert substitute(re_moved, b + 1) == re
    assert substitute(im_moved, b + 1) == im
    # The derived dual (ch0, -ch1, ch2, -ch3) sends beta to -beta: its t_k
    # at -b is (-1)^k t_k(E), so Re Z flips sign and Im Z does not.
    dual = ChernCharacter(v.ch0, -v.ch1, v.ch2, -v.ch3)
    for k, (p, q) in enumerate(zip(twisted_ch_polynomials(dual), twisted)):
        assert substitute(p, -b) == (-1) ** k * q
    re_dual, im_dual = z_polynomials(dual, s)
    assert substitute(re_dual, -b) == -re
    assert substitute(im_dual, -b) == im


@settings(max_examples=200, deadline=None)
@given(characters)
@example(obj("O(1)"))
@example(ChernCharacter(0, 0, 0, 1))
def test_cross_with_o_shift_carries_the_factor_a2_minus_b2(w):
    # Z(O[1]) = (a^2 - b^2)*(b/3 + i*a) at s = 1/6, so the cross of Z(O[1])
    # with any Z(w) is (a^2 - b^2)*((b/3)*Im Z(w) - a*Re Z(w)): the suite's
    # half-plane B items certify only the cofactor.
    a, b = BivariatePoly.alpha(), BivariatePoly.beta()
    o_shift = shift(obj("O"), 1)

    def factored(s):
        re, im = z_polynomials(w, s)
        return (a**2 - b**2) * (b * F(1, 3) * im - a * re)

    assert cross_polynomial(o_shift, w, S_DEFAULT) == factored(S_DEFAULT)
    # In general Re Z(O[1]) = b*(2*s*a^2 - b^2/3), which leaves a remainder
    # a^2*b*(2*s - 1/3)*Im Z(w): at s = 1/5 the identity holds only for the
    # w whose Im Z is 0 (ch0 = ch1 = ch2 = 0).
    s = F(1, 5)
    _, im = z_polynomials(w, s)
    remainder = cross_polynomial(o_shift, w, s) - factored(s)
    assert remainder == a**2 * b * (2 * s - F(1, 3)) * im
    assert remainder.is_zero() == (w.ch0 == w.ch1 == w.ch2 == 0)
