"""Correctness oracle, run outside every timed region.

The checks re-derive each verdict with arithmetic of their own, so a
change to the program's evaluator, membership test or polynomial product
cannot hide a wrong certificate:

  * a `certified` claim must hold at every point of an exact rational grid
    of its region (signs evaluated in scaled integer arithmetic);
  * a `failed` claim must carry a witness inside its region at which the
    product re-evaluates as a violation of the claimed sign;
  * a certificate item of a report marked `failed` must carry a witness
    inside the region box at which some factor breaks its own target (a
    violated product always has such a factor); derived items, such as the
    skyscraper coverage, fail without one;
  * every SVG must parse as XML.

Each check returns an error message, or None when the outcome is correct.
"""

import math
import xml.etree.ElementTree as ET
from fractions import Fraction

GRID = 30
STATUSES = ("certified", "failed", "inconclusive")


def violates(value, sign):
    if sign == ">0":
        return value <= 0
    if sign == ">=0":
        return value < 0
    if sign == "<0":
        return value >= 0
    return value > 0


def evaluate(terms, alpha, beta):
    """Exact value of {(i, j): c} at a rational point."""
    return sum(c * alpha**i * beta**j for (i, j), c in terms.items())


def in_region(region, alpha, beta):
    """Membership with openness flags and the side cut, written out afresh."""
    for x, box, flags in (
        (alpha, region.alpha, region.alpha_open),
        (beta, region.beta, region.beta_open),
    ):
        if x < box.lo or x > box.hi:
            return False
        if (flags[0] and x == box.lo) or (flags[1] and x == box.hi):
            return False
    if region.side == "alpha<=-beta":
        return alpha + beta <= 0
    if region.side == "alpha>=-beta":
        return alpha + beta >= 0
    return True


def _grid_axis(box, g):
    points = [box.lo + box.width * Fraction(k, g) for k in range(g + 1)]
    den = math.lcm(*(p.denominator for p in points))
    return [int(p * den) for p in points], den


def _signs_on_grid(terms, a_nums, a_den, b_nums, b_den):
    """Sign of the polynomial at every (alpha, beta) grid point.

    Scaling by lcm(coefficient denominators) * a_den^m * b_den^n is positive,
    so the integer sums have the same signs as the exact values.
    """
    if not terms:
        return [[0] * len(b_nums) for _ in a_nums]
    m = max(i for i, _ in terms)
    n = max(j for _, j in terms)
    scale = math.lcm(*(c.denominator for c in terms.values()))
    ints = [(i, j, int(c * scale)) for (i, j), c in terms.items()]
    out = []
    for an in a_nums:
        a_pows = [an**i * a_den ** (m - i) for i in range(m + 1)]
        row = []
        for bn in b_nums:
            total = sum(c * a_pows[i] * bn**j * b_den ** (n - j) for i, j, c in ints)
            row.append((total > 0) - (total < 0))
        out.append(row)
    return out


def grid_signs(claim, region, g=GRID):
    """Region points of the (g+1) x (g+1) grid of the region box, as
    (alpha, beta, per-factor signs)."""
    a_nums, a_den = _grid_axis(region.alpha, g)
    b_nums, b_den = _grid_axis(region.beta, g)
    signs = [
        _signs_on_grid(f.expr.terms, a_nums, a_den, b_nums, b_den) for f in claim.factors
    ]
    out = []
    for i, an in enumerate(a_nums):
        alpha = Fraction(an, a_den)
        for j, bn in enumerate(b_nums):
            beta = Fraction(bn, b_den)
            if in_region(region, alpha, beta):
                out.append((alpha, beta, [fs[i][j] for fs in signs]))
    return out


def grid_violation(claim, region, g=GRID):
    """First grid point of the region where the claim's sign fails, or None."""
    for alpha, beta, signs in grid_signs(claim, region, g):
        if violates(math.prod(signs), claim.overall_sign):
            return alpha, beta
    return None


def check_certificate(claim, region, cert):
    if cert.status not in STATUSES:
        return f"unknown status {cert.status!r}"
    if cert.status != "failed":
        if cert.witness is not None:
            return f"{cert.status} certificate carries a witness"
        if cert.status == "certified":
            bad = grid_violation(claim, region)
            if bad is not None:
                return f"certified claim violated at alpha={bad[0]}, beta={bad[1]}"
        return None
    if cert.witness is None:
        return "failed certificate without a witness"
    alpha, beta = cert.witness
    if not in_region(region, alpha, beta):
        return f"witness ({alpha}, {beta}) lies outside the region"
    value = Fraction(1)
    for factor in claim.factors:
        value *= evaluate(factor.expr.terms, alpha, beta)
    if not violates(value, claim.overall_sign):
        return f"witness ({alpha}, {beta}) does not violate {claim.overall_sign}"
    return None


def parse_poly(text):
    """Read the canonical polynomial text of a report ('1/3*a*b - 2')."""
    terms = {}
    if text == "0":
        return terms
    for token in text.replace(" - ", " + -").split(" + "):
        coeff = Fraction(-1 if token.startswith("-") else 1)
        i = j = 0
        for part in token.lstrip("-").split("*"):
            var, _, power = part.partition("^")
            if var == "a":
                i = int(power or 1)
            elif var == "b":
                j = int(power or 1)
            else:
                coeff *= Fraction(part)
        terms[(i, j)] = terms.get((i, j), 0) + coeff
    return terms


def check_report(report, expected_status, region, expected_items=None):
    if report.status != expected_status:
        return f"aggregate {report.status}, expected {expected_status}"
    if expected_items is not None and len(report.items) != expected_items:
        return f"{len(report.items)} items, expected {expected_items}"
    for item in report.items:
        if item.status not in STATUSES:
            return f"{item.name}: unknown status {item.status!r}"
        if item.witness is not None and item.status != "failed":
            return f"{item.name}: {item.status} item carries a witness"
        if item.status != "failed" or not item.factors:
            continue
        if item.witness is None:
            return f"{item.name}: failed certificate without a witness"
        alpha, beta = item.witness
        if not (region.alpha.contains(alpha) and region.beta.contains(beta)):
            return f"{item.name}: witness outside the region box"
        if not any(
            violates(evaluate(parse_poly(f["expr"]), alpha, beta), f["target"])
            for f in item.factors
        ):
            return f"{item.name}: no factor is violated at the witness"
    return None


def svg_segments(data):
    """Number of wall segments in an SVG document; raises if it does not parse."""
    root = ET.fromstring(data)
    return sum(1 for el in root.iter() if el.get("class") == "wall")
