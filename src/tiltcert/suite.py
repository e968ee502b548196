"""End-to-end verification suite: every numeric fact behind the stability
construction on the quadric, as machine-checkable report items.

Items come in two flavors.  Identity items compare computed polynomials
against frozen reference closed forms by exact equality in Q[a, b].
Certificate items are (poly, sign, side) claims, each certified once per
run by the run's certifier: the engine certifies the computed polynomial
itself (a real part, a reduced cross product, Im Z, or a slope's
numerator x denominator) on the region, or on the side of it a claim names.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .certify import (
    DEFAULT_MAX_DEPTH,
    SIDE_LEFT,
    SIDE_RIGHT,
    Factor,
    FactoredClaim,
    certify_sign,
    default_region,
)
from .chern import DEGREE, ChernCharacter, catalog_lookup, line_bundle_ch, tensor_line
from .heart import (
    BASE_VECTORS,
    DEFAULT_SIGN_FACTS,
    GENERATORS,
    DerivationError,
    heart_ch,
    reduce_candidates,
    skyscraper_candidates,
    vector_text,
)
from .kernel import BivariatePoly, format_rational, poly_eval, poly_format
from .tilt import (
    S_DEFAULT,
    TiltParams,
    bg_margin,
    cross_polynomial,
    twisted_ch_polynomials,
    z_polynomials,
)

A = BivariatePoly.alpha()
B = BivariatePoly.beta()


C = BivariatePoly.constant


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
        """The fields in their order, the witness as {"alpha", "beta"} text."""
        witness = self.witness
        if witness is not None:
            witness = {"alpha": format_rational(witness[0]), "beta": format_rational(witness[1])}
        return dict(vars(self), witness=witness)


@dataclass
class Report:
    status: str
    items: list

    def to_json(self):
        items = [item.to_json_dict() for item in self.items]
        return json.dumps({"status": self.status, "items": items}, indent=2)


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


def _certifier(region, max_depth):
    """certify(name, poly, sign, side=None, notes=()) is the report item of
    `poly sign` on the region, or on its `side` half when a side is named:
    the claim as its one factor, {"expr", "target"}, with the certificate's
    status, witness, boxes and depth.  Each distinct (poly, sign, side) is
    certified once, keyed by the poly's canonical text, which hashes cheaply."""
    certs = {}
    regions = {None: region, **{s: region._replace(side=s) for s in (SIDE_LEFT, SIDE_RIGHT)}}

    def certify(name, poly, sign, side=None, notes=()):
        key = (poly_format(poly), sign, side)
        if key not in certs:
            claim = FactoredClaim((Factor(poly, sign, "interval-subdivision"),), sign)
            certs[key] = certify_sign(claim, regions[side], max_depth)
        cert = certs[key]
        return ReportItem(
            name=name,
            status=cert.status,
            factors=[{"expr": key[0], "target": sign}],
            witness=cert.witness,
            boxes=cert.boxes,
            depth=cert.depth,
            notes=list(notes) + cert.notes,
        )

    return certify


# --- closed-form identities --------------------------------------------


def verify_lemma_computation():
    """Symbolic check of every closed form: twisted characters, slopes,
    central charges.  Any mismatch fails, naming the identity."""
    twisted, slopes, charges = [], [], []
    for label, expected in REFERENCE_TWISTED.items():
        ch = catalog_lookup(label).ch
        computed = twisted_ch_polynomials(ch)
        bad = [name for name, c, e in zip(ChernCharacter._fields, computed, expected) if c != e]
        notes = [f"component {name} differs" for name in bad]
        twisted.append(_identity_item(f"twisted-ch {label}", not bad, notes))
        _, t1, t2, _ = computed
        num, den = REFERENCE_MU[label]
        # mu = t1/(alpha*ch0) must equal num/den: cross-multiplied identity.
        slopes.append(_identity_item(f"mu {label}", t1 * den == num * (A * ch.ch0)))
        nu_num = t2 - A**2 * Fraction(ch.ch0, 2)
        num, den = REFERENCE_NU[label]
        slopes.append(_identity_item(f"nu {label}", nu_num * den == num * (A * t1)))
        re, im = z_polynomials(ch, S_DEFAULT)
        re_ref, im_ref = REFERENCE_Z[label]
        charges.append(_identity_item(f"Z {label} real part", re == re_ref))
        charges.append(_identity_item(f"Z {label} imaginary part", im == im_ref))
    return twisted + slopes + charges


def _structural_items():
    o_minus, s_minus, o, o_plus, s, point = (
        catalog_lookup(label).ch for label in ("O(-1)", "S(-1)", "O", "O(1)", "S", "k(x)")
    )
    alternating = o_minus - 2 * s_minus + 4 * o - o_plus + point
    ok = not any(alternating)
    items = [
        _identity_item(
            "resolution alternating sum",
            ok,
            [] if ok else [f"alternating sum is {alternating}"],
        )
    ]
    ok = s_minus + s == 4 * o and tensor_line(s_minus, 1) == s
    items.append(_identity_item("spinor sequence sum", ok))
    return items


# --- half-plane certificates ---------------------------------------------------


def verify_half_plane(certify):
    """Image-of-Z half-plane containment, split by the sign of beta^2-alpha^2.

    Case A (alpha >= -beta): Re Z < 0, except Re Z(O[1]) = b*(a^2 - b^2)/3 <= 0.
    Case B (alpha <= -beta): Z(O[1]) = (a^2 - b^2)*u with u = b/3 + i*a (at
    s = 1/6 only: in general Re Z(O[1]) = b*(2*s*a^2 - b^2/3)), so
    cross(Z(O[1]), Z(G)) = (a^2 - b^2)*r_G with r_G = (b/3)*Im Z(G) - a*Re Z(G).
    Here a^2 - b^2 <= 0, as `im sign O[1] alpha<=-beta` certifies, so r_G > 0
    puts Z(G) clockwise of Z(O[1]): strictly off the line, where Z(O[1]) = 0.
    Each claim names its case's side to `certify`, the run's certifier.
    """
    items = []
    # Report order: O(1), O[1], S(-1)[2], O(-1)[3].
    charges = [(label, *z_polynomials(ch, S_DEFAULT)) for label, ch in reversed(GENERATORS.items())]
    for label, re_poly, _ in charges:
        sign = "<=0" if label == "O[1]" else "<0"
        items.append(certify(f"half-plane A re {label}", re_poly, sign, SIDE_RIGHT))
    axis_ch = GENERATORS["O[1]"]
    span, u_re, u_im = A**2 - B**2, B * Fraction(1, 3), A
    unfactored = []
    for label, re_poly, im_poly in charges:
        if label == "O[1]":
            ok = re_poly == span * u_re and im_poly == span * u_im
            items.append(_identity_item("half-plane B axis O[1]", ok))
            continue
        r_poly = u_re * im_poly - u_im * re_poly
        items.append(certify(f"half-plane B cross {label}", r_poly, ">0", SIDE_LEFT))
        if cross_polynomial(axis_ch, GENERATORS[label], S_DEFAULT) != span * r_poly:
            unfactored.append(f"cross O[1] x {label} is not (a^2 - b^2) times the certified r")
    items.append(_identity_item("half-plane B factorisation", not unfactored, unfactored))
    return items


# --- skyscraper condition ------------------------------------------------------


def verify_skyscraper_condition(certify):
    """Im Z > 0 for every subobject candidate of the skyscraper vector.

    Certifies through `certify` the generator sign facts, the base vectors
    and all eleven candidates directly, the quoted table entries, and the
    dominance derivation of the other nine.  Where the certified sign facts
    leave the derivation short, the direct certificates decide the coverage
    item: its status is theirs, with the first failed one's witness.
    """
    generator_im = {label: z_polynomials(ch, S_DEFAULT)[1] for label, ch in GENERATORS.items()}
    items = []
    facts = []
    blocked = []
    for fact in DEFAULT_SIGN_FACTS:
        label, side, sign = fact
        name = f"im sign {label}" + (f" {side}" if side else "")
        item = certify(name, generator_im[label], sign, side)
        items.append(item)
        if item.status == "certified":
            facts.append(fact)
        else:
            blocked.append(name)
    candidates = skyscraper_candidates()
    candidate_im = {vec: z_polynomials(heart_ch(vec), S_DEFAULT)[1] for vec in candidates}
    for v in BASE_VECTORS:
        notes = []
        if v == (0, 1, 0, 1):
            notes.append("Im form derived by additivity, not the quoted table entry")
        name = f"skyscraper base {vector_text(v)}"
        items.append(certify(name, candidate_im[v], ">0", notes=notes))
    # Quoted table entries vs the additivity computation.
    for v in BASE_VECTORS:
        additive = BivariatePoly()
        for mult, label in zip(v, GENERATORS):
            additive = additive + mult * generator_im[label]
        quoted = REFERENCE_TABLE_IM[v]
        ok = candidate_im[v] == additive
        notes = []
        if quoted != additive:
            notes.append(
                f"quoted table entry {poly_format(quoted)} differs from "
                f"additivity result {poly_format(additive)}; "
                "both are positive on the region"
            )
            if v != (0, 1, 0, 1):
                ok = False
        items.append(_identity_item(f"skyscraper table {vector_text(v)}", ok, notes))
    direct = [
        certify(f"skyscraper direct {vector_text(v)}", im, ">0") for v, im in candidate_im.items()
    ]
    # Dominance derivation of the remaining nine candidates.
    try:
        notes = reduce_candidates(candidates, tuple(facts))
        coverage = ReportItem("skyscraper derivation coverage", "certified", notes=notes)
    except DerivationError as err:
        # A sign fact that did not certify decides nothing about the
        # candidates: their direct certificates do, failing with a witness.
        notes = [str(err), *(f"sign fact not established: {name}" for name in blocked)]
        notes.append(f"decided by the {len(direct)} skyscraper direct certificates")
        coverage = ReportItem(
            "skyscraper derivation coverage",
            _aggregate(direct),
            witness=next((c.witness for c in direct if c.status == "failed"), None),
            notes=notes,
        )
    items.append(coverage)
    items.extend(direct)
    return items


# --- mu signs and the degree-3 equality ---------------------------------------


def _mu_sign_items(certify):
    """Slope signs of the plain generators, via numerator x denominator, on the run's region."""
    items = []
    for label, sign in (("S(-1)", "<=0"), ("O", ">=0"), ("O(-1)", "<0"), ("O(1)", ">0")):
        ch = catalog_lookup(label).ch
        # sign(mu) = sign(numerator * denominator), the denominator alpha*ch0.
        _, t1, _, _ = twisted_ch_polynomials(ch)
        notes = ["slope sign certified as numerator x denominator"]
        if label == "O":
            notes.append("mu(O) = -beta/alpha is nonnegative on beta <= 0")
        items.append(certify(f"mu sign {label}", t1 * ch.ch0 * A, sign, notes=notes))
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
    o_twisted = twisted_ch_polynomials(catalog_lookup("O").ch)
    margin = BivariatePoly()
    for k in range(4):
        w = ChernCharacter(*(t.terms.get((0, k), 0) for t in o_twisted))
        _, t1, _, t3 = twisted_ch_polynomials(w)
        margin = margin + (-A) ** k * ((A - B) ** 2 * t1 * (S_DEFAULT * DEGREE) - t3)
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


def verify_all(max_depth=DEFAULT_MAX_DEPTH, region=None):
    """Full verification: structural identities, closed forms, half-plane
    containment, skyscraper positivity, slope signs, degree-3 equality.
    Each section returns its items; this is the one Report of a run.  The
    sections that certify share one certifier on `region` or default_region()."""
    certify = _certifier(region or default_region(), max_depth)
    items = _structural_items()
    items.extend(verify_lemma_computation())
    items.extend(verify_half_plane(certify))
    items.extend(verify_skyscraper_condition(certify))
    items.extend(_mu_sign_items(certify))
    items.append(_bg_equality_item())
    return Report(_aggregate(items), items)
