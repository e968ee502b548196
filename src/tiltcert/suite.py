"""End-to-end verification suite: every numeric fact behind the stability
construction on the quadric, as machine-checkable report items.

Items come in two flavors.  Identity items compare computed polynomials
against frozen reference closed forms with poly_equal (exact, symbolic).
Certificate items are (target, sign, region) rows: the engine certifies
the computed polynomial itself (a real part, cross product, Im Z, or a
slope's numerator x denominator) as one interval-subdivision factor.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .certify import (
    SIDE_LEFT,
    SIDE_RIGHT,
    Factor,
    FactoredClaim,
    certify_sign,
    default_region,
)
from .chern import QUADRIC, ChernCharacter, line_bundle_ch, quadric_catalog, tensor_line
from .heart import (
    BASE_VECTORS,
    DEFAULT_SIGN_FACTS,
    GENERATORS,
    DerivationError,
    FULL_REGION,
    heart_ch,
    reduce_candidates,
    skyscraper_candidates,
)
from .kernel import BivariatePoly, format_rational, poly_equal, poly_eval, poly_format
from .tilt import (
    TiltParams,
    bg_margin,
    cross_polynomial,
    twisted_ch_polynomials,
    z_polynomials,
)

A = BivariatePoly.alpha()
B = BivariatePoly.beta()


def C(x):
    return BivariatePoly.constant(Fraction(x))


S_DEFAULT = Fraction(1, 6)

_CATALOG_CH = {obj.label: obj.ch for obj in quadric_catalog()}
_GENERATOR_CH = {label: ch for label, ch, _ in GENERATORS}

# --- frozen reference closed forms (quadric, s = 1/6) ------------------------

REFERENCE_TWISTED = {
    "O(-1)": (C(1), C(-1) - B, (C(1) + B) ** 2 * Fraction(1, 2), (C(-1) - B) ** 3 * Fraction(1, 3)),
    "O": (C(1), -B, B**2 * Fraction(1, 2), -(B**3) * Fraction(1, 3)),
    "O(1)": (C(1), C(1) - B, (C(1) - B) ** 2 * Fraction(1, 2), (C(1) - B) ** 3 * Fraction(1, 3)),
    "S(-1)": (C(2), C(-1) - 2 * B, B**2 + B, C(Fraction(1, 6)) - B**2 - B**3 * Fraction(2, 3)),
}

# mu = numerator/denominator after clearing alpha*ch0.
REFERENCE_MU = {
    "O(-1)": (C(-1) - B, A),
    "O": (-B, A),
    "O(1)": (C(1) - B, A),
    "S(-1)": (C(-1) - 2 * B, 2 * A),
}

REFERENCE_NU = {
    "O(-1)": (A**2 - (C(1) + B) ** 2, 2 * A * (C(1) + B)),
    "O": (A**2 - B**2, 2 * A * B),
    "O(1)": ((C(1) - B) ** 2 - A**2, 2 * A * (C(1) - B)),
    "S(-1)": (A**2 - B**2 - B, A * (2 * B + C(1))),
}

REFERENCE_Z = {
    "O(-1)": (
        ((C(1) + B) ** 2 - A**2) * (B + C(1)) * Fraction(1, 3),
        A * ((C(1) + B) ** 2 - A**2),
    ),
    "O": ((B**2 - A**2) * B * Fraction(1, 3), A * (B**2 - A**2)),
    "O(1)": (
        ((C(1) - B) ** 2 - A**2) * (B - C(1)) * Fraction(1, 3),
        A * ((C(1) - B) ** 2 - A**2),
    ),
    "S(-1)": (
        (2 * B + C(1)) * (2 * B**2 + 2 * B - C(1) - 2 * A**2) * Fraction(1, 6),
        2 * A * (B**2 + B - A**2),
    ),
}

# Quoted Im table entries for the two base vectors; the (0,1,0,1) entry is
# checked against the additivity computation and the difference reported.
REFERENCE_TABLE_IM = {
    (0, 2, 4, 1): A * ((C(1) + B) ** 2 - A**2),
    (0, 1, 0, 1): A * (C(1) - 3 * (B**2 - A**2)),
}


# --- report structure ---------------------------------------------------------


@dataclass
class ReportItem:
    name: str
    status: str
    factors: list = field(default_factory=list)
    witness: tuple | None = None
    boxes: int = 0
    depth: int = 0
    notes: list = field(default_factory=list)

    def to_json_dict(self):
        witness = None
        if self.witness is not None:
            witness = {
                "alpha": format_rational(self.witness[0]),
                "beta": format_rational(self.witness[1]),
            }
        return {
            "name": self.name,
            "status": self.status,
            "factors": self.factors,
            "witness": witness,
            "boxes": self.boxes,
            "depth": self.depth,
            "notes": self.notes,
        }


@dataclass
class Report:
    status: str
    items: list

    def to_json_dict(self):
        return {
            "status": self.status,
            "items": [item.to_json_dict() for item in self.items],
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2)


def _aggregate(items):
    statuses = {item.status for item in items}
    if "failed" in statuses:
        return "failed"
    if "inconclusive" in statuses:
        return "inconclusive"
    return "certified"


def _identity_item(name, ok, notes=None):
    return ReportItem(
        name=name,
        status="certified" if ok else "failed",
        notes=list(notes or []),
    )


def _certificate_item(name, target, sign, region, max_depth, notes=()):
    """Certify `target sign` on the region as one interval-subdivision factor."""
    claim = FactoredClaim((Factor(target, sign, "interval-subdivision"),), sign)
    cert = certify_sign(claim, region, max_depth)
    return ReportItem(
        name=name,
        status=cert.status,
        factors=[f.to_json_dict() for f in cert.factors],
        witness=cert.witness,
        boxes=cert.boxes,
        depth=cert.depth,
        notes=list(notes) + cert.notes,
    )


# --- closed-form identities --------------------------------------------


def verify_lemma_computation(reference=None):
    """Symbolic check of every closed form: twisted characters, slopes,
    central charges.  Any mismatch fails, naming the identity."""
    reference = reference or {
        "twisted": REFERENCE_TWISTED,
        "mu": REFERENCE_MU,
        "nu": REFERENCE_NU,
        "z": REFERENCE_Z,
    }
    items = []
    component_names = ("ch0", "ch1", "ch2", "ch3")
    for label in ("O(-1)", "O", "O(1)", "S(-1)"):
        ch = _CATALOG_CH[label]
        computed = twisted_ch_polynomials(ch)
        expected = reference["twisted"][label]
        bad = [
            component_names[k]
            for k in range(4)
            if not poly_equal(computed[k], expected[k])
        ]
        notes = [f"component {name} differs" for name in bad]
        items.append(_identity_item(f"twisted-ch {label}", not bad, notes))
    for label in ("O(-1)", "O", "O(1)", "S(-1)"):
        ch = _CATALOG_CH[label]
        _, t1, t2, _ = twisted_ch_polynomials(ch)
        num, den = reference["mu"][label]
        # mu = t1/(alpha*ch0) must equal num/den: cross-multiplied identity.
        ok = poly_equal(t1 * den, num * (A * ch.ch0))
        items.append(_identity_item(f"mu {label}", ok))
        nu_num = t2 - A**2 * Fraction(ch.ch0, 2)
        nu_den = A * t1
        num, den = reference["nu"][label]
        ok = poly_equal(nu_num * den, num * nu_den)
        items.append(_identity_item(f"nu {label}", ok))
    for label in ("O(-1)", "O", "O(1)", "S(-1)"):
        ch = _CATALOG_CH[label]
        re, im = z_polynomials(ch, S_DEFAULT)
        re_ref, im_ref = reference["z"][label]
        items.append(_identity_item(f"Z {label} real part", poly_equal(re, re_ref)))
        items.append(_identity_item(f"Z {label} imaginary part", poly_equal(im, im_ref)))
    return Report(_aggregate(items), items)


def _structural_items():
    alternating = (
        _CATALOG_CH["O(-1)"]
        - 2 * _CATALOG_CH["S(-1)"]
        + 4 * _CATALOG_CH["O"]
        - _CATALOG_CH["O(1)"]
        + _CATALOG_CH["k(x)"]
    )
    ok = all(x == 0 for x in alternating.as_tuple())
    items = [
        _identity_item(
            "resolution alternating sum",
            ok,
            [] if ok else [f"alternating sum is {alternating}"],
        )
    ]
    spinor_sum = _CATALOG_CH["S(-1)"] + _CATALOG_CH["S"]
    four_o = 4 * _CATALOG_CH["O"]
    tensored = tensor_line(_CATALOG_CH["S(-1)"], 1)
    ok = spinor_sum == four_o and tensored == _CATALOG_CH["S"]
    items.append(_identity_item("spinor sequence sum", ok))
    return items


# --- half-plane certificates ---------------------------------------------------


ORIENTATION_SAMPLE = (Fraction(1, 8), Fraction(-3, 8))


def verify_half_plane(region=None, max_depth=16):
    """Image-of-Z half-plane containment, split by the sign of beta^2-alpha^2.

    Case A (alpha >= -beta): real parts of all generator charges are <= 0.
    Case B (alpha <= -beta): all generator charges lie on one side of the
    line through Z(O[1]), via cross products.
    """
    region = region or default_region()
    items = []
    # Report order: O(1), O[1], S(-1)[2], O(-1)[3].
    region_a = region.with_side(SIDE_RIGHT)
    for label, ch, _ in reversed(GENERATORS):
        re_poly, _ = z_polynomials(ch, S_DEFAULT)
        items.append(
            _certificate_item(f"half-plane A re {label}", re_poly, "<=0", region_a, max_depth)
        )
    region_b = region.with_side(SIDE_LEFT)
    axis_ch = _GENERATOR_CH["O[1]"]
    sample_values = []
    all_nonpos = True
    for label, ch, _ in reversed(GENERATORS):
        cross = cross_polynomial(axis_ch, ch, S_DEFAULT)
        value = poly_eval(cross, *ORIENTATION_SAMPLE)
        sample_values.append(f"cross O[1] x {label} = {format_rational(value)}")
        all_nonpos = all_nonpos and value <= 0
        items.append(
            _certificate_item(f"half-plane B cross {label}", cross, "<=0", region_b, max_depth)
        )
    orientation = _identity_item(
        "half-plane B orientation",
        all_nonpos,
        [
            "sample (alpha, beta) = (1/8, -3/8): " + "; ".join(sample_values),
            "all cross products <= 0: generators lie clockwise of Z(O[1])",
        ],
    )
    items.append(orientation)
    return Report(_aggregate(items), items)


# --- skyscraper condition ------------------------------------------------------


def verify_skyscraper_condition(region=None, max_depth=16, reference_table=None):
    """Im Z > 0 for every subobject candidate of the skyscraper vector.

    Certifies the generator sign facts, both base vectors, the dominance
    derivation of the other nine candidates, the quoted table entries, and
    (redundantly) all eleven candidates directly.
    """
    region = region or default_region()
    reference_table = reference_table or REFERENCE_TABLE_IM
    items = []
    facts = []
    blocked = []
    for fact in DEFAULT_SIGN_FACTS:
        name = f"im sign {fact.generator}"
        sub = region
        if fact.subregion != FULL_REGION:
            name += f" {fact.subregion}"
            sub = region.with_side(fact.subregion)
        _, im = z_polynomials(_GENERATOR_CH[fact.generator], S_DEFAULT)
        item = _certificate_item(name, im, fact.sign, sub, max_depth)
        items.append(item)
        if item.status == "certified":
            facts.append(fact)
        else:
            blocked.append((name, item.status))
    for v in BASE_VECTORS:
        _, im = z_polynomials(heart_ch(v), S_DEFAULT)
        notes = []
        if v.as_tuple() == (0, 1, 0, 1):
            notes.append("Im form derived by additivity, not the quoted table entry")
        items.append(_certificate_item(f"skyscraper base {v}", im, ">0", region, max_depth, notes))
    # Quoted table entries vs the additivity computation.
    for v in BASE_VECTORS:
        _, im = z_polynomials(heart_ch(v), S_DEFAULT)
        additive = BivariatePoly()
        for mult, (_, ch, _) in zip(v.as_tuple(), GENERATORS):
            additive = additive + mult * z_polynomials(ch, S_DEFAULT)[1]
        quoted = reference_table[v.as_tuple()]
        ok = poly_equal(im, additive)
        notes = []
        if not poly_equal(quoted, additive):
            notes.append(
                f"quoted table entry {poly_format(quoted)} differs from "
                f"additivity result {poly_format(additive)}; "
                "both are positive on the region"
            )
            if v.as_tuple() != (0, 1, 0, 1):
                ok = False
        items.append(_identity_item(f"skyscraper table {v}", ok, notes))
    # Dominance derivation of the remaining nine candidates.
    candidates = skyscraper_candidates()
    try:
        reduced = reduce_candidates(candidates, tuple(facts))
        items.append(
            ReportItem(
                "skyscraper derivation coverage", "certified", notes=reduced.derivation_lines()
            )
        )
    except DerivationError as err:
        # Coverage is refuted only when a needed sign fact actually failed;
        # a merely-inconclusive fact leaves coverage undetermined.
        notes = [str(err)]
        if blocked and all(status != "failed" for _, status in blocked):
            status = "inconclusive"
            notes.extend(f"sign fact not established: {name}" for name, _ in blocked)
        else:
            status = "failed"
        items.append(ReportItem("skyscraper derivation coverage", status, notes=notes))
    # Belt and suspenders: certify all eleven candidates directly.
    for vec in candidates.vectors:
        _, im = z_polynomials(heart_ch(vec), S_DEFAULT)
        items.append(_certificate_item(f"skyscraper direct {vec}", im, ">0", region, max_depth))
    return Report(_aggregate(items), items)


# --- mu signs and the degree-3 equality ---------------------------------------


def _mu_sign_items(region, max_depth):
    """Slope signs of the plain generators, via numerator x denominator."""
    items = []
    for label, sign in (("S(-1)", "<=0"), ("O", ">=0"), ("O(-1)", "<0"), ("O(1)", ">0")):
        ch = _CATALOG_CH[label]
        # sign(mu) = sign(numerator * denominator), the denominator alpha*ch0.
        _, t1, _, _ = twisted_ch_polynomials(ch)
        notes = ["slope sign certified as numerator x denominator"]
        if label == "O":
            notes.append("mu(O) = -beta/alpha is nonnegative on beta <= 0")
        items.append(
            _certificate_item(f"mu sign {label}", t1 * ch.ch0 * A, sign, region, max_depth, notes)
        )
    return items


def _bg_equality_item():
    """bg_margin(O(n), alpha=|n-beta|) vanishes identically at s = 1/6.

    One identity in Q[n, beta], n carried in the first variable slot:
    ch(O(n)) = twist(O, -n) = sum_k (-n)^k w_k, w_k the b^k coefficients of
    twisted_ch_polynomials(O), and twisting is linear in the character.
    With alpha^2 = (n - beta)^2 the margin s*d*alpha^2*ch1 - ch3 must be 0.
    A nonzero margin is nonzero on a grid one wider than its degrees
    (beta = j + 1/2 keeps alpha > 0); the note names the first such point.
    """
    o_twisted = twisted_ch_polynomials(_CATALOG_CH["O"])
    margin = BivariatePoly()
    for k in range(4):
        w = ChernCharacter(*(t.terms.get((0, k), 0) for t in o_twisted))
        _, t1, _, t3 = twisted_ch_polynomials(w)
        margin = margin + (-A) ** k * ((A - B) ** 2 * t1 * (S_DEFAULT * QUADRIC.degree) - t3)
    notes = ["margin s*d*(n-beta)^2*ch1 - ch3 of O(n) is 0 in Q[n, beta]"]
    if not margin.is_zero():
        n, beta = next(
            (n, beta)
            for n in range(margin.degree_alpha() + 1)
            for beta in (Fraction(2 * j + 1, 2) for j in range(margin.degree_beta() + 1))
            if poly_eval(margin, n, beta) != 0
        )
        pointwise = bg_margin(line_bundle_ch(n), TiltParams(abs(n - beta), beta, S_DEFAULT))
        notes = [
            f"margin {format_rational(poly_eval(margin, n, beta))} at n={n}, "
            f"beta={format_rational(beta)}",
            f"margin polynomial in (a, b) = (n, beta): {poly_format(margin)}",
            f"bg_margin (pointwise chern.twist) reads {format_rational(pointwise)} there",
        ]
    return _identity_item("bg line-bundle equality", margin.is_zero(), notes)


def verify_all(max_depth=16, region=None, reference=None):
    """Full verification: structural identities, closed forms, half-plane
    containment, skyscraper positivity, slope signs, degree-3 equality."""
    region = region or default_region()
    items = _structural_items()
    items.extend(verify_lemma_computation(reference).items)
    items.extend(verify_half_plane(region, max_depth).items)
    items.extend(verify_skyscraper_condition(region, max_depth).items)
    items.extend(_mu_sign_items(region, max_depth))
    items.append(_bg_equality_item())
    return Report(_aggregate(items), items)
