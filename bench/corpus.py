"""Seeded claim corpora for the `subdivide` and `refute` workloads.

Every generator takes the seed as its only source of randomness, so one
seed always yields the same claims (`claim_text` gives a byte-stable
rendering for checking that).  The program under test only ever receives
the finished `FactoredClaim` objects.

subdivide -- true but tight claims that certify only after deep bisection.
    Each claim is one interval-subdivision factor

        ((a - p)^2 + 2 (b - q)^2) * G(a, b) + eps > 0

    with G in {1, 1 + a (b - s)^2, 1 + (a - r)^2 (b - s)^2}, so the
    bidegree is (2, 2), (3, 4) or (4, 4).  The minimum eps sits at (p, q)
    inside the region, which forces bisection down to depth 6, 8 or 10, and
    the product is positive everywhere, so no claim reaches the witness search:
    this is the one workload where `bernstein_coefficients` does most of
    the work.  The 27 slots cross 3 sides x 3 shapes x 3 tightness levels;
    a fixed reference claim of the same family comes first.
    The seed only moves (p, q, r, s), on points with fixed denominators:
    box counts and the size of the exact rationals then stay close from
    seed to seed, which keeps the workload's timings comparable across
    seeds (about 1,040 boxes a pass).  Status mix: 27/27 certified.

refute -- claims that do not certify, on top of the fixed widened-region
    and max_depth=0 proofs that workloads.py runs.
    * 4 side-dependent claims such as (b^2 - a^2) * g >= 0 on
      alpha <= -beta: true, but zero along the side line, so no depth
      certifies them and the witness search scans its whole grid;
    * 12 claims shaped like the random claims of the certifier's soundness
      tests (one to three affine, region-atom or subdivision factors with
      small random coefficients), at depth 8, drawn until each side has
      2 likely-failed, 1 likely-inconclusive and 1 likely-certified claim
      (see refute_corpus).  An unconstrained draw gave about 19/59/23
      percent certified/failed/inconclusive in the prototype (56/176/68 of
      300), but its run time varied by a factor of two between seeds.
    Status mix: 4 + 3 inconclusive, 6 failed, 3 certified.
"""

import math
import random
from fractions import Fraction

from tiltcert import certify
from tiltcert.kernel import BivariatePoly, format_rational, poly_format

import oracle

A = BivariatePoly.alpha()
B = BivariatePoly.beta()
ONE = BivariatePoly.constant(1)
SIDES = (None, certify.SIDE_LEFT, certify.SIDE_RIGHT)

SUBDIVIDE_DEPTH = 16
# (eps, L): the minimum sits on an odd multiple of the level-L grid.
SUBDIVIDE_TIGHTNESS = (
    (Fraction(1, 10**3), 3),
    (Fraction(1, 10**4), 4),
    (Fraction(1, 10**5), 5),
)
REFUTE_DEPTH = 8
# Random claims per side and likely status, near an unconstrained draw's mix.
RANDOM_QUOTAS = {"failed": 2, "inconclusive": 1, "certified": 1}
INCONCLUSIVE_TERMS = range(3, 6)
STATUS_GRID = 8  # a grid the witness search scans, coarse enough to be cheap


def C(x):
    return BivariatePoly.constant(Fraction(x))


def _odd_choice(rng, count, denominator, skip_multiples_of=None):
    """A fraction (2k+1)/denominator, 0 <= k < count, whose denominator
    stays exactly `denominator` (odd numerator, optionally prime to 3)."""
    odd = [2 * k + 1 for k in range(count)]
    if skip_multiples_of:
        odd = [x for x in odd if x % skip_multiples_of]
    return Fraction(rng.choice(odd), denominator)


def _tight_claim(p, q, g, eps):
    poly = ((A - C(p)) ** 2 + 2 * (B - C(q)) ** 2) * g + C(eps)
    return certify.FactoredClaim(
        (certify.Factor(poly, ">0", "interval-subdivision"),), ">0"
    )


def reference_claim():
    """The fixed bidegree-(4, 4) tight claim every subdivide pass starts with;
    its latency does not depend on the seed (depth 8 on the full region)."""
    g = ONE + (A - C(Fraction(5, 48))) ** 2 * (B + C(Fraction(7, 32))) ** 2
    claim = _tight_claim(Fraction(5, 48), Fraction(-11, 32), g, Fraction(1, 10**4))
    return claim, certify.default_region(), SUBDIVIDE_DEPTH


def subdivide_corpus(seed):
    """27 (claim, region, max_depth) triples; see the module docstring."""
    rng = random.Random(f"subdivide:{seed}")
    out = []
    for eps, level in SUBDIVIDE_TIGHTNESS:
        for shape in range(3):
            for side in SIDES:
                region = certify.default_region(side)
                while True:
                    # Odd multiples of 1/(3*2^L) in alpha and 1/2^(L+1) in
                    # beta: a bisection corner only from depth about 2L
                    # on, with fixed denominators.
                    p = _odd_choice(
                        rng, 2 ** (level - 1), 3 * 2**level, skip_multiples_of=3
                    )
                    q = Fraction(-1, 2) + _odd_choice(rng, 2**level, 2 ** (level + 1))
                    if region.contains(p, q):
                        break
                r = _odd_choice(rng, 8, 48, skip_multiples_of=3)
                s = -_odd_choice(rng, 8, 32)
                if shape == 0:
                    g = ONE
                elif shape == 1:
                    g = ONE + A * (B - C(s)) ** 2
                else:
                    g = ONE + (A - C(r)) ** 2 * (B - C(s)) ** 2
                out.append((_tight_claim(p, q, g, eps), region, SUBDIVIDE_DEPTH))
    return out


def _side_claims(rng):
    """(b^2 - a^2) * g >= 0 on alpha <= -beta and its mirror on the other
    side, with g = c0 + c1*a^2 + c2*b^2 > 0 drawn from the seed."""
    out = []
    for side, core in (
        (certify.SIDE_LEFT, B**2 - A**2),
        (certify.SIDE_RIGHT, A**2 - B**2),
    ):
        for _ in range(2):
            c0 = Fraction(rng.randrange(1, 5), rng.randrange(1, 4))
            c1 = rng.randrange(1, 3)  # c2 = 3 - c1 != c1 keeps all five terms
            g = C(c0) + c1 * A**2 + (3 - c1) * B**2
            claim = certify.FactoredClaim(
                (certify.Factor(core * g, ">=0", "interval-subdivision"),), ">=0"
            )
            out.append((claim, certify.default_region(side), REFUTE_DEPTH))
    return out


def _random_claim(rng):
    """One to three random factors, signs composed into a consistent claim."""
    factors = []
    for _ in range(rng.randrange(1, 4)):
        kind = rng.randrange(3)
        if kind == 0:
            expr = (
                C(Fraction(rng.randrange(-2, 3), rng.randrange(1, 4)))
                + Fraction(rng.randrange(-2, 3)) * A
                + Fraction(rng.randrange(-2, 3)) * B
            )
            strategy = "affine-vertex"
        elif kind == 1:
            expr = rng.choice((A, B, A + B, B - A, -B, ONE + B))
            strategy = "region-atom"
        else:
            coeffs = {}
            for _ in range(rng.randrange(1, 5)):
                coeffs[(rng.randrange(0, 3), rng.randrange(0, 3))] = Fraction(
                    rng.randrange(-4, 5), rng.randrange(1, 4)
                )
            expr = BivariatePoly(coeffs)
            strategy = "interval-subdivision"
        target = rng.choice((">0", ">=0", "<0", "<=0"))
        factors.append(certify.Factor(expr, target, strategy))
    negative = sum(f.target in ("<0", "<=0") for f in factors) % 2
    strict = all(f.target in (">0", "<0") for f in factors)
    implied = ("<" if negative else ">") + ("0" if strict else "=0")
    weaker = {">0": ">=0", "<0": "<=0"}
    overall = implied
    if implied in weaker and rng.random() < 0.3:
        overall = weaker[implied]
    return certify.FactoredClaim(tuple(factors), overall)


def likely_status(claim, region):
    """The status the certifier can be expected to reach, read off a grid
    the witness search also scans: 'failed' if the product breaks its sign
    there, 'inconclusive' if only some factor breaks its own target (that
    factor cannot certify), else 'certified'."""
    factor_bad = False
    for _, _, signs in oracle.grid_signs(claim, region, STATUS_GRID):
        if oracle.violates(math.prod(signs), claim.overall_sign):
            return "failed"
        factor_bad = factor_bad or any(
            oracle.violates(s, f.target) for s, f in zip(signs, claim.factors)
        )
    return "inconclusive" if factor_bad else "certified"


def refute_corpus(seed):
    """Side-dependent claims, then the random claims; (claim, region, depth).

    Random claims are drawn until every (side, likely status) pair has its
    quota.  An inconclusive claim scans the whole witness grid and costs
    30-100 times a failed one, in proportion to its region's grid points and
    its product's terms; so inconclusive draws also keep their product to
    INCONCLUSIVE_TERMS terms.  Without these quotas the workload's run time
    would follow the seed rather than the program."""
    rng = random.Random(f"refute:{seed}")
    out = _side_claims(rng)
    left = {(side, status): n for side in SIDES for status, n in RANDOM_QUOTAS.items()}
    attempt = 0
    while any(left.values()):
        side = SIDES[attempt % 3]
        attempt += 1
        region = certify.default_region(side)
        claim = _random_claim(rng)
        sized = len(claim.product().terms) in INCONCLUSIVE_TERMS
        if not (sized or left[(side, "failed")] or left[(side, "certified")]):
            continue
        status = likely_status(claim, region)
        if not left[(side, status)] or (status == "inconclusive" and not sized):
            continue
        left[(side, status)] -= 1
        out.append((claim, region, REFUTE_DEPTH))
    return out


def claim_text(claim, region, max_depth):
    """Canonical one-line rendering of a corpus entry."""
    factors = "; ".join(
        f"{poly_format(f.expr)} {f.target} [{f.strategy}]" for f in claim.factors
    )
    return f"{factors} => {claim.overall_sign} on {region.describe()} depth {max_depth}"


def corpus_text(entries):
    return "\n".join(claim_text(*entry) for entry in entries) + "\n"


def zvectors_point(seed):
    """A seeded (alpha, beta) for `plot zvectors`, as CLI rational strings."""
    rng = random.Random(f"figures:{seed}")
    alpha = Fraction(rng.randrange(1, 12), 36)
    beta = -Fraction(rng.randrange(0, 18), 36)
    return format_rational(alpha), format_rational(beta)
