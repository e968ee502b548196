"""Acceptance gate: one test per shipped guarantee, each printing a single
PASS/FAIL line.  Everything here is redundant with the unit suites on
purpose — these are the end-to-end checks the package promises to keep.

 1. closed-form identities for twisted characters, slopes, central charges
 2. structural character identities (resolution and spinor sums)
 3. half-plane certificates on both sides of alpha = -beta
 4. skyscraper positivity: bases, derivation, directs, table entries
 5. exact vanishing of the degree-3 margin for line bundles along nu = 0
 6. certifier soundness against a 10^4-point exact grid oracle
 7. symbolic and direct central-charge paths agree
 8. wall between O and O(1) matches the exact circle
 9. CLI exit-code contract and figure output
"""

import math
import random
import xml.etree.ElementTree as ET
from fractions import Fraction as F

from tiltcert.certify import (
    Factor,
    FactoredClaim,
    certify_sign,
    default_region,
)
from tiltcert.chern import catalog_lookup, line_bundle_ch, quadric_catalog
from tiltcert.cli import main
from tiltcert.kernel import BivariatePoly, poly_eval
from tiltcert.suite import (
    _certifier,
    verify_half_plane,
    verify_lemma_computation,
    verify_skyscraper_condition,
)
from tiltcert.tilt import (
    TiltParams,
    bg_margin,
    central_charge,
    wall_polynomial,
    z_polynomials,
)

A = BivariatePoly.alpha()
B = BivariatePoly.beta()
ONE = BivariatePoly.constant(1)


def C(x):
    return BivariatePoly.constant(F(x))


def _report(capsys, number, label, problems):
    status = "FAIL" if problems else "PASS"
    with capsys.disabled():
        print(f"acceptance {number}: {status} - {label}")
    assert not problems, f"acceptance {number} ({label}): " + "; ".join(problems)


def test_acceptance_01_closed_form_identities(capsys):
    problems = []
    items = verify_lemma_computation()
    if len(items) != 20:
        problems.append(f"expected 20 identity items, got {len(items)}")
    for item in items:
        if item.status != "certified":
            problems.append(f"{item.name}: {item.status}")
    names = [item.name for item in items]
    for stem in ("twisted-ch", "mu ", "nu ", "Z "):
        if sum(1 for name in names if name.startswith(stem)) not in (4, 8):
            problems.append(f"missing identities under {stem!r}")
    _report(
        capsys,
        1,
        "closed-form identities: twisted characters, slopes, central charges",
        problems,
    )


def test_acceptance_02_structural_identities(capsys):
    problems = []
    ch = {obj.label: obj.ch for obj in quadric_catalog()}
    resolution = ch["O(-1)"] - 2 * ch["S(-1)"] + 4 * ch["O"] - ch["O(1)"]
    if (-resolution) != ch["k(x)"]:
        problems.append(f"resolution alternating sum gives {-resolution}")
    if ch["k(x)"].as_tuple() != (0, 0, 0, 1):
        problems.append(f"point character is {ch['k(x)']}")
    if ch["S(-1)"] + ch["S"] != 4 * ch["O"]:
        problems.append("spinor sum != 4 * structure sheaf")
    _report(
        capsys,
        2,
        "structural character identities (resolution and spinor sums)",
        problems,
    )


def test_acceptance_03_half_plane_certificates(capsys):
    problems = []
    items = verify_half_plane(_certifier(default_region(), 16))
    for item in items:
        if item.status != "certified":
            problems.append(f"{item.name}: {item.status}")
    names = [item.name for item in items]
    if sum(1 for n in names if n.startswith("half-plane A")) != 4:
        problems.append("expected 4 certificates on alpha >= -beta")
    if sum(1 for n in names if n.startswith("half-plane B cross")) != 3:
        problems.append("expected 3 certificates on alpha <= -beta")
    for name in ("half-plane B axis O[1]", "half-plane B factorisation"):
        if name not in names:
            problems.append(f"missing identity {name!r}")
    _report(
        capsys,
        3,
        "half-plane certificates on both sides of alpha = -beta",
        problems,
    )


def test_acceptance_04_skyscraper_condition(capsys):
    problems = []
    items = verify_skyscraper_condition(_certifier(default_region(), 16))
    for item in items:
        if item.status != "certified":
            problems.append(f"{item.name}: {item.status}")
    names = [item.name for item in items]
    if sum(1 for n in names if n.startswith("skyscraper direct")) != 11:
        problems.append("expected 11 direct positivity certificates")
    if sum(1 for n in names if n.startswith("skyscraper base")) != 2:
        problems.append("expected 2 base-vector certificates")
    coverage = next(
        (i for i in items if i.name == "skyscraper derivation coverage"),
        None,
    )
    if coverage is None or len(coverage.notes) != 11:
        problems.append("derivation must account for all 11 candidates")
    table = next(
        (i for i in items if i.name == "skyscraper table (0,1,0,1)"), None
    )
    if table is None or not any("differs from additivity" in n for n in table.notes):
        problems.append("the (0,1,0,1) table discrepancy must be recorded")
    clean = next(
        (i for i in items if i.name == "skyscraper table (0,2,4,1)"), None
    )
    if clean is None or clean.notes:
        problems.append("the (0,2,4,1) table entry must match exactly")
    _report(
        capsys,
        4,
        "skyscraper positivity: bases, derivation, directs, table entries",
        problems,
    )


def test_acceptance_05_line_bundle_margin_vanishes(capsys):
    problems = []
    rng = random.Random(51)
    checked = 0
    for n in range(-3, 4):
        for _ in range(50):
            while True:
                beta = F(rng.randrange(-600, 601), rng.randrange(1, 60))
                if beta != n:
                    break
            alpha = abs(n - beta)
            margin = bg_margin(line_bundle_ch(n), TiltParams(alpha, beta))
            checked += 1
            if margin != 0:
                problems.append(f"n = {n}, beta = {beta}: margin {margin}")
    if checked != 350:
        problems.append(f"expected 350 evaluations, ran {checked}")
    _report(
        capsys,
        5,
        "degree-3 margin vanishes exactly for line bundles along nu = 0",
        problems,
    )


# --- criterion 6: randomized soundness with an integer-arithmetic oracle ----

ALPHA_DEN = 303
BETA_DEN = 400
ALPHA_NUMS = tuple(range(1, 101))  # alpha = p/303 in (0, 1/3)
BETA_NUMS = tuple(-(2 * j + 1) for j in range(100))  # beta = q/400 in (-1/2, 0)

_BAD_SIGN = {
    ">0": lambda v: v <= 0,
    ">=0": lambda v: v < 0,
    "<0": lambda v: v >= 0,
    "<=0": lambda v: v > 0,
}


def _grid_violation(poly, target):
    """First 10^4-grid point violating `poly target 0', or None.

    Evaluates exactly: each value is scaled by the positive constant
    lcm(coefficient denominators) * ALPHA_DEN^m * BETA_DEN^n, which keeps
    its sign, so the whole scan runs in integer arithmetic.
    """
    m, n = poly.degree_alpha(), poly.degree_beta()
    scale = 1
    for c in poly.terms.values():
        scale = math.lcm(scale, c.denominator)
    terms = [(i, j, int(c * scale)) for (i, j), c in poly.terms.items()]
    alpha_pow = {
        p: [p**i * ALPHA_DEN ** (m - i) for i in range(m + 1)] for p in ALPHA_NUMS
    }
    beta_pow = {
        q: [q**j * BETA_DEN ** (n - j) for j in range(n + 1)] for q in BETA_NUMS
    }
    bad = _BAD_SIGN[target]
    exps_j = sorted({j for _, j, _ in terms})
    for p in ALPHA_NUMS:
        row = alpha_pow[p]
        by_j = {j: 0 for j in exps_j}
        for i, j, c in terms:
            by_j[j] += c * row[i]
        collapsed = list(by_j.items())
        for q in BETA_NUMS:
            col = beta_pow[q]
            value = 0
            for j, coeff in collapsed:
                value += coeff * col[j]
            if bad(value):
                return F(p, ALPHA_DEN), F(q, BETA_DEN)
    return None


def _random_claim(rng):
    factors = []
    for _ in range(rng.randrange(1, 4)):
        kind = rng.randrange(3)
        if kind == 0:
            expr = (
                C(F(rng.randrange(-2, 3), rng.randrange(1, 4)))
                + F(rng.randrange(-2, 3)) * A
                + F(rng.randrange(-2, 3)) * B
            )
            strategy = "affine-vertex"
        elif kind == 1:
            expr = rng.choice((A, B, A + B, B - A, -B, ONE + B))
            strategy = "region-atom"
        else:
            coeffs = {}
            for _ in range(rng.randrange(1, 5)):
                coeffs[(rng.randrange(0, 3), rng.randrange(0, 3))] = F(
                    rng.randrange(-4, 5), rng.randrange(1, 4)
                )
            expr = BivariatePoly(coeffs)
            strategy = "interval-subdivision"
        factors.append(Factor(expr, rng.choice((">0", ">=0", "<0", "<=0")), strategy))
    polarity = 1
    strict = True
    for f in factors:
        if f.target in ("<0", "<=0"):
            polarity = -polarity
        if f.target in (">=0", "<=0"):
            strict = False
    implied = {1: ">0" if strict else ">=0", -1: "<0" if strict else "<=0"}[polarity]
    weaker = {">0": ">=0", "<0": "<=0"}
    overall = implied
    if implied in weaker and rng.random() < 0.3:
        overall = weaker[implied]
    return FactoredClaim(tuple(factors), overall)


def test_acceptance_06_certifier_soundness(capsys):
    problems = []
    rng = random.Random(0xACCE97)
    region = default_region()
    counts = {"certified": 0, "failed": 0, "inconclusive": 0}
    checked_cache = {}
    for trial in range(120):
        claim = _random_claim(rng)
        cert = certify_sign(claim, region, max_depth=8)
        counts[cert.status] += 1
        product = claim.product()
        if cert.status == "certified":
            key = (
                tuple(sorted(product.terms.items())),
                claim.overall_sign,
            )
            if key not in checked_cache:
                checked_cache[key] = _grid_violation(product, claim.overall_sign)
            violation = checked_cache[key]
            if violation is not None:
                problems.append(
                    f"trial {trial}: certified claim violated at {violation}"
                )
        elif cert.status == "failed":
            alpha, beta = cert.witness
            if not region.contains(alpha, beta):
                problems.append(f"trial {trial}: witness outside region")
            value = poly_eval(product, alpha, beta)
            if not _BAD_SIGN[claim.overall_sign](value):
                problems.append(
                    f"trial {trial}: witness ({alpha}, {beta}) does not violate"
                )
    if counts["certified"] < 20 or counts["failed"] < 20:
        problems.append(f"unbalanced trial mix: {counts}")
    _report(
        capsys,
        6,
        "certifier soundness against a 10^4-point exact grid oracle",
        problems,
    )


def test_acceptance_07_two_path_agreement(capsys):
    problems = []
    rng = random.Random(7)
    for obj in quadric_catalog():
        re_poly, im_poly = z_polynomials(obj.ch, F(1, 6))
        for _ in range(100):
            alpha = F(rng.randrange(1, 500), rng.randrange(1, 500))
            beta = F(rng.randrange(-500, 501), rng.randrange(1, 500))
            z = central_charge(obj.ch, TiltParams(alpha, beta))
            if z != (poly_eval(re_poly, alpha, beta), poly_eval(im_poly, alpha, beta)):
                problems.append(f"{obj.label} at ({alpha}, {beta})")
    _report(
        capsys, 7, "symbolic and direct central-charge paths agree", problems
    )


def test_acceptance_08_wall_circle(capsys):
    problems = []
    wall = wall_polynomial(catalog_lookup("O").ch, catalog_lookup("O(1)").ch)
    if poly_eval(wall, F(2, 5), F(1, 5)) != 0:
        problems.append("wall does not vanish at (beta, alpha) = (1/5, 2/5)")
    circle = (B**2 - B + A**2) * F(-1, 2)
    if wall != circle:
        problems.append("wall does not expand to -(b^2 - b + a^2)/2")
    _report(
        capsys, 8, "wall between O and O(1) matches the exact circle", problems
    )


def test_acceptance_09_cli_contract(capsys, tmp_path):
    problems = []
    if main(["verify"]) != 0:
        problems.append("verify on defaults must exit 0")
    out = capsys.readouterr().out
    if "aggregate: certified" not in out:
        problems.append("verify on defaults must report aggregate certified")
    if main(["verify", "--region", "-1/2:1/2,0:1/3"]) != 1:
        problems.append("verify on the widened region must exit 1")
    capsys.readouterr()
    if main(["verify", "--region", "nope"]) != 2:
        problems.append("malformed region must exit 2")
    if main(["slopes", "--object", "nope", "--alpha", "1/4", "--beta", "0"]) != 2:
        problems.append("unknown object must exit 2")
    capsys.readouterr()
    figure = tmp_path / "z.svg"
    if (
        main(
            ["plot", "zvectors", "--alpha", "1/4", "--beta", "-1/4", "-o", str(figure)]
        )
        != 0
    ):
        problems.append("plot zvectors must exit 0")
    capsys.readouterr()
    try:
        root = ET.parse(figure).getroot()
    except ET.ParseError as err:
        problems.append(f"figure is not well-formed XML: {err}")
    else:
        arrows = [el for el in root.iter() if el.get("class") == "zvector"]
        if len(arrows) != 4:
            problems.append(f"expected 4 arrows, found {len(arrows)}")
    _report(capsys, 9, "CLI exit-code contract and figure output", problems)
