"""Sound sign certificates for polynomial claims on a boxed region.

A claim asserts a sign for a product of polynomial factors over a region
(a rational box with per-endpoint openness flags, optionally cut by the
half-plane alpha <= -beta or alpha >= -beta).  Three factor strategies:

  region-atom       affine expression whose sign is forced by the region
                    bounds / side constraint themselves (alpha > 0, ...)
  affine-vertex     affine expression checked at the vertices of the
                    polytope (box cut by the side line); affine functions
                    attain extrema at vertices
  interval-subdivision
                    general polynomial, recursive bisection; each box is
                    tried with the monomial interval hull first, then with
                    exact Bernstein coefficients.  Coefficients are formed
                    from the power basis once, on the root box, and held as
                    an integer grid (a positive multiple of them); each
                    split derives its children's grids by midpoint de
                    Casteljau subdivision, so no box rebuilds them

Soundness contract: status "certified" is only reported when the sign
holds at every region point; "failed" always carries a witness point in
the region where the product's target sign is violated by re-evaluation;
anything the engine cannot settle within its depth budget is
"inconclusive", never guessed.

Witness search (claims that did not certify), first violating point wins:
the candidates the factor strategies collected, then the polytope
vertices, then the 4, 8, 16 and 32 grids over the region box, by
increasing alpha index, then beta index.  The grids run on integer
indices: openness flags become index ranges, the side cut is one sign
test on integer grid coordinates, and each finer grid visits only its new
points (those with an odd index), because the points of the grid before
it were already scanned.  Every point skipped this way was evaluated
earlier without violating the claim, so the witness is the one a scan of
every grid point in that order would return.

Strictness on open boundaries: a certificate for a strict sign must rule
out zeros inside the region.  At vertices, a zero value is acceptable
only when the zero set lies on an open-flagged facet.  On boxes, if all
Bernstein coefficients are <= 0 then any interior zero forces an
identically-zero coefficient face, so strictness reduces to checking
that every all-zero face misses the region's relative interior.
"""

from dataclasses import dataclass
from fractions import Fraction

from .kernel import (
    BivariatePoly,
    RationalInterval,
    bernstein_coefficients,
    format_rational,
    grid_axis,
    grid_form,
    integer_grid,
    poly_eval,
    poly_format,
    poly_interval_eval,
    split_grid,
)

SIDE_LEFT = "alpha<=-beta"    # alpha + beta <= 0
SIDE_RIGHT = "alpha>=-beta"   # alpha + beta >= 0

TARGETS = (">0", ">=0", "<0", "<=0")
STRATEGIES = ("affine-vertex", "interval-subdivision", "region-atom")


@dataclass(frozen=True)
class Region:
    beta: RationalInterval
    alpha: RationalInterval
    beta_open: tuple = (False, False)
    alpha_open: tuple = (False, False)
    side: str | None = None

    def __post_init__(self):
        if self.beta.width <= 0 or self.alpha.width <= 0:
            raise ValueError("region box must be full-dimensional")
        if self.side not in (None, SIDE_LEFT, SIDE_RIGHT):
            raise ValueError(f"unknown side constraint {self.side!r}")

    def with_side(self, side):
        return Region(self.beta, self.alpha, self.beta_open, self.alpha_open, side)

    def side_ok(self, alpha, beta):
        if self.side == SIDE_LEFT:
            return alpha + beta <= 0
        if self.side == SIDE_RIGHT:
            return alpha + beta >= 0
        return True

    def contains(self, alpha, beta):
        """Point membership, honoring openness flags and side constraint."""
        a_lo = alpha > self.alpha.lo if self.alpha_open[0] else alpha >= self.alpha.lo
        a_hi = alpha < self.alpha.hi if self.alpha_open[1] else alpha <= self.alpha.hi
        b_lo = beta > self.beta.lo if self.beta_open[0] else beta >= self.beta.lo
        b_hi = beta < self.beta.hi if self.beta_open[1] else beta <= self.beta.hi
        return a_lo and a_hi and b_lo and b_hi and self.side_ok(alpha, beta)

    def describe(self):
        b_l = "(" if self.beta_open[0] else "["
        b_r = ")" if self.beta_open[1] else "]"
        a_l = "(" if self.alpha_open[0] else "["
        a_r = ")" if self.alpha_open[1] else "]"
        text = (
            f"beta in {b_l}{format_rational(self.beta.lo)}, {format_rational(self.beta.hi)}{b_r}, "
            f"alpha in {a_l}{format_rational(self.alpha.lo)}, {format_rational(self.alpha.hi)}{a_r}"
        )
        if self.side:
            text += f", {self.side}"
        return text


def default_region(side=None):
    """beta in [-1/2, 0] closed, alpha in (0, 1/3) open."""
    return Region(
        beta=RationalInterval(Fraction(-1, 2), Fraction(0)),
        alpha=RationalInterval(Fraction(0), Fraction(1, 3)),
        beta_open=(False, False),
        alpha_open=(True, True),
        side=side,
    )


@dataclass(frozen=True)
class Factor:
    expr: BivariatePoly
    target: str
    strategy: str

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"bad target {self.target!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"bad strategy {self.strategy!r}")
        if self.strategy != "interval-subdivision" and self.expr.total_degree() > 1:
            raise ValueError(f"{self.strategy} requires an affine expression")


@dataclass(frozen=True)
class FactoredClaim:
    factors: tuple
    overall_sign: str

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("claim needs at least one factor")
        if self.overall_sign not in TARGETS:
            raise ValueError(f"bad overall sign {self.overall_sign!r}")
        polarity = 1
        strict = True
        for f in self.factors:
            if f.target in ("<0", "<=0"):
                polarity = -polarity
            if f.target in (">=0", "<=0"):
                strict = False
        implied = {1: (">0" if strict else ">=0"), -1: ("<0" if strict else "<=0")}[polarity]
        compatible = {
            ">0": (">0",),
            ">=0": (">0", ">=0"),
            "<0": ("<0",),
            "<=0": ("<0", "<=0"),
        }
        if implied not in compatible[self.overall_sign]:
            raise ValueError(
                f"factor signs imply {implied}, incompatible with overall {self.overall_sign}"
            )

    def product(self):
        out = BivariatePoly.constant(1)
        for f in self.factors:
            out = out * f.expr
        return out


@dataclass
class FactorOutcome:
    expr: str
    target: str
    strategy: str
    status: str
    evidence: dict

    def to_json_dict(self):
        return {
            "expr": self.expr,
            "target": self.target,
            "strategy": self.strategy,
            "status": self.status,
            "evidence": self.evidence,
        }


@dataclass
class SignCertificate:
    status: str
    factors: list
    witness: tuple | None
    boxes: int
    depth: int
    notes: list


def _violates(value, sign):
    if sign == ">0":
        return value <= 0
    if sign == ">=0":
        return value < 0
    if sign == "<0":
        return value >= 0
    return value > 0


# --- vertex reasoning --------------------------------------------------------

_BOUND_NAMES = ("alpha-lo", "alpha-hi", "beta-lo", "beta-hi", "side")


def _tight_bounds(region, alpha, beta):
    tight = set()
    if alpha == region.alpha.lo:
        tight.add("alpha-lo")
    if alpha == region.alpha.hi:
        tight.add("alpha-hi")
    if beta == region.beta.lo:
        tight.add("beta-lo")
    if beta == region.beta.hi:
        tight.add("beta-hi")
    if region.side is not None and alpha + beta == 0:
        tight.add("side")
    return frozenset(tight)


def _bound_is_open(region, name):
    return {
        "alpha-lo": region.alpha_open[0],
        "alpha-hi": region.alpha_open[1],
        "beta-lo": region.beta_open[0],
        "beta-hi": region.beta_open[1],
        "side": False,
    }[name]


def polytope_vertices(region):
    """Vertices of the closed box cut by the side half-plane, sorted."""
    points = set()
    for a in (region.alpha.lo, region.alpha.hi):
        for b in (region.beta.lo, region.beta.hi):
            if region.side_ok(a, b):
                points.add((a, b))
    if region.side is not None:
        for a in (region.alpha.lo, region.alpha.hi):
            if region.beta.contains(-a):
                points.add((a, -a))
        for b in (region.beta.lo, region.beta.hi):
            if region.alpha.contains(-b):
                points.add((-b, b))
    return sorted(points)


def _certify_affine(factor, region, atom=False):
    """Vertex certificate for an affine factor.  Returns (ok, evidence, candidates).

    candidates are closure points where the factor's own sign fails; they
    feed the claim-level witness search.
    """
    verts = polytope_vertices(region)
    orient = 1 if factor.target in (">0", ">=0") else -1
    strict = factor.target in (">0", "<0")
    rows = []
    zero_verts = []
    low = None
    candidates = []
    for a, b in verts:
        value = poly_eval(factor.expr, a, b)
        rows.append(
            {
                "alpha": format_rational(a),
                "beta": format_rational(b),
                "value": format_rational(value),
            }
        )
        oriented = orient * value
        if low is None or oriented < low:
            low = oriented
        if oriented < 0 or (strict and oriented == 0):
            if region.contains(a, b):
                candidates.append((a, b))
        if oriented == 0:
            zero_verts.append((a, b))
    evidence = {"kind": "region-atom" if atom else "affine-vertex", "vertices": rows}
    if not verts:
        evidence["note"] = "region polytope is empty"
        return True, evidence, []
    if low > 0:
        return True, evidence, candidates
    if low < 0:
        return False, evidence, candidates
    # Minimum is exactly zero; non-strict targets pass outright.
    if not strict:
        return True, evidence, candidates
    if factor.expr.is_zero():
        return False, evidence, candidates
    # Strict target: the zero set meets the closed polytope exactly in the
    # convex hull of the zero vertices; it misses the open region iff some
    # open-flagged bound is tight at all of them.
    shared = frozenset(_BOUND_NAMES)
    for a, b in zero_verts:
        shared &= _tight_bounds(region, a, b)
    open_shared = sorted(n for n in shared if _bound_is_open(region, n))
    if open_shared:
        evidence["strictness"] = f"zero set lies on open bound {open_shared[0]}"
        return True, evidence, candidates
    return False, evidence, candidates


# --- box reasoning -----------------------------------------------------------


def _box_outside_side(region, box_alpha, box_beta):
    if region.side == SIDE_LEFT:
        return box_alpha.lo + box_beta.lo > 0
    if region.side == SIDE_RIGHT:
        return box_alpha.hi + box_beta.hi < 0
    return False


def _face_indices(m, n):
    """Geometric faces of a box as Bernstein index predicates.

    Yields (face kind, fixed axes, index set) for 4 corners, 4 edges,
    and the full cell, in a fixed order.
    """
    yield ("corner", ("alpha-lo", "beta-lo"), [(0, 0)])
    yield ("corner", ("alpha-hi", "beta-lo"), [(m, 0)])
    yield ("corner", ("alpha-lo", "beta-hi"), [(0, n)])
    yield ("corner", ("alpha-hi", "beta-hi"), [(m, n)])
    yield ("edge", ("alpha-lo",), [(0, j) for j in range(n + 1)])
    yield ("edge", ("alpha-hi",), [(m, j) for j in range(n + 1)])
    yield ("edge", ("beta-lo",), [(i, 0) for i in range(m + 1)])
    yield ("edge", ("beta-hi",), [(i, n) for i in range(m + 1)])
    yield ("cell", (), [(i, j) for i in range(m + 1) for j in range(n + 1)])


_BLOCKED = "blocked"


def _edge_region_point(region, fixed_axis, fixed_val, free_box):
    """Exact: a region point in the open edge {fixed_axis = fixed_val} x
    (free_box.lo, free_box.hi), or None if the intersection is empty.

    The free range is open, so region bounds on the free axis never bind
    (the box sits inside the region box); only the fixed coordinate's
    openness flags and the side constraint can cut the edge.
    """
    alpha_fixed = fixed_axis == "alpha"
    axis_box = region.alpha if alpha_fixed else region.beta
    axis_open = region.alpha_open if alpha_fixed else region.beta_open
    if (fixed_val == axis_box.lo and axis_open[0]) or (
        fixed_val == axis_box.hi and axis_open[1]
    ):
        return None
    lo, hi = free_box.lo, free_box.hi
    # Side constraint, written as a closed bound on the free coordinate.
    if region.side == SIDE_LEFT:
        # free <= -fixed_val
        cap = -fixed_val
        if cap <= lo:
            return None
        hi = min(hi, cap) if cap < hi else hi
    elif region.side == SIDE_RIGHT:
        # free >= -fixed_val
        floor_ = -fixed_val
        if floor_ >= hi:
            return None
        lo = max(lo, floor_) if floor_ > lo else lo
    point_free = (lo + hi) / 2
    point = (fixed_val, point_free) if alpha_fixed else (point_free, fixed_val)
    if not region.contains(*point):
        return _BLOCKED
    return point


def _cell_region_point(region, box_alpha, box_beta):
    """Exact: a region point in the open box, or None if the side constraint
    excludes it entirely (region box bounds cannot bind in the interior)."""
    low_sum = box_alpha.lo + box_beta.lo
    high_sum = box_alpha.hi + box_beta.hi
    if region.side == SIDE_LEFT and low_sum >= 0:
        return None
    if region.side == SIDE_RIGHT and high_sum <= 0:
        return None
    center = (box_alpha.midpoint, box_beta.midpoint)
    if region.contains(*center):
        return center
    # The center fails only by the side cut; slide along the main diagonal
    # to a point whose alpha+beta sits strictly inside the allowed side.
    if region.side == SIDE_LEFT:
        target = low_sum / 2
    else:
        target = high_sum / 2
    t = (target - low_sum) / (high_sum - low_sum)
    point = (
        box_alpha.lo + box_alpha.width * t,
        box_beta.lo + box_beta.width * t,
    )
    if not region.contains(*point):
        return _BLOCKED
    return point


def _face_zero_region_point(region, box_alpha, box_beta, kind, fixed):
    """A region point in the relative interior of a box face.

    Returns a point, None (provably empty intersection), or _BLOCKED as a
    defensive fallback that still prevents certification.
    """
    if kind == "corner":
        a = box_alpha.lo if "alpha-lo" in fixed else box_alpha.hi
        b = box_beta.lo if "beta-lo" in fixed else box_beta.hi
        return (a, b) if region.contains(a, b) else None
    if kind == "edge":
        axis = fixed[0]
        if axis.startswith("alpha"):
            fixed_val = box_alpha.lo if axis == "alpha-lo" else box_alpha.hi
            return _edge_region_point(region, "alpha", fixed_val, box_beta)
        fixed_val = box_beta.lo if axis == "beta-lo" else box_beta.hi
        return _edge_region_point(region, "beta", fixed_val, box_alpha)
    return _cell_region_point(region, box_alpha, box_beta)


def _certify_box(factor_poly, strict, region, box_alpha, box_beta, candidates, grid):
    """Try to certify factor_poly <(=) 0 on one box.

    grid is an integer Bernstein grid inherited from the parent box (a
    positive multiple of the coefficients on this box), or None; the grid
    is computed from the power basis only when none was inherited.
    Returns (verdict, grid): verdict "certified", "split" (undecided,
    bisect further), or "violated" (the factor's sign provably fails at a
    region point, or at least can never certify on this box), and the
    box's grid, or None when the hull decided the box without it."""
    hull = poly_interval_eval(factor_poly, box_alpha, box_beta)
    if hull.hi < 0 or (not strict and hull.hi <= 0):
        return "certified", None
    if hull.lo > 0 or (strict and hull.lo >= 0):
        # The whole box violates the target; no child can recover.
        for a in (box_alpha.lo, box_alpha.midpoint, box_alpha.hi):
            for b in (box_beta.lo, box_beta.midpoint, box_beta.hi):
                if region.contains(a, b):
                    candidates.append((a, b))
                    return "violated", None
        return ("violated" if region.side is None else "split"), None
    if grid is None:
        grid = integer_grid(bernstein_coefficients(factor_poly, box_alpha, box_beta)[2])
    m, n = len(grid) - 1, len(grid[0]) - 1
    high = max(c for row in grid for c in row)
    if high < 0 or (not strict and high <= 0):
        return "certified", grid
    if high > 0:
        # Corner coefficients are exact values; harvest witness candidates.
        corners = (
            (grid[0][0], box_alpha.lo, box_beta.lo),
            (grid[m][0], box_alpha.hi, box_beta.lo),
            (grid[0][n], box_alpha.lo, box_beta.hi),
            (grid[m][n], box_alpha.hi, box_beta.hi),
        )
        for value, a, b in corners:
            bad = value > 0 or (strict and value == 0)
            if bad and region.contains(a, b):
                candidates.append((a, b))
        return "split", grid
    # All coefficients <= 0 with max exactly 0 and a strict target: the
    # poly is <= 0 on the box, and any zero inside it lives on a face whose
    # coefficients all vanish.  Certified iff every such face misses the
    # region; a face that meets it is an exact zero of the poly there.
    for kind, fixed, indices in _face_indices(m, n):
        if all(grid[i][j] == 0 for i, j in indices):
            point = _face_zero_region_point(region, box_alpha, box_beta, kind, fixed)
            if point is None:
                continue
            if point != _BLOCKED:
                candidates.append(point)
            return "violated", grid
    return "certified", grid


def _certify_interval_factor(factor, region, max_depth):
    """Bisection loop.  Returns (ok, evidence, candidates, boxes, depth).

    A split box hands each child the matching half of its integer
    Bernstein grid, so coefficients come from the power basis only on
    boxes without an inherited grid: the root, and children of boxes the
    hull decided to split.
    """
    negate = factor.target in (">0", ">=0")
    poly = -factor.expr if negate else factor.expr
    strict = factor.target in (">0", "<0")
    candidates = []
    boxes_tested = 0
    deepest = 0
    ok = True
    stack = [(region.alpha, region.beta, 0, None)]
    while stack:
        box_alpha, box_beta, depth, grid = stack.pop()
        if _box_outside_side(region, box_alpha, box_beta):
            continue
        boxes_tested += 1
        deepest = max(deepest, depth)
        verdict, grid = _certify_box(
            poly, strict, region, box_alpha, box_beta, candidates, grid
        )
        if verdict == "certified":
            continue
        if verdict == "violated" or depth >= max_depth:
            # Certification is off the table; skip the remaining queue.
            ok = False
            break
        rel_alpha = box_alpha.width / region.alpha.width
        rel_beta = box_beta.width / region.beta.width
        axis = 0 if rel_alpha >= rel_beta else 1
        lo_grid, hi_grid = (None, None) if grid is None else split_grid(grid, axis)
        if axis == 0:
            lo_half, hi_half = box_alpha.split()
            lo_box, hi_box = (lo_half, box_beta), (hi_half, box_beta)
        else:
            lo_half, hi_half = box_beta.split()
            lo_box, hi_box = (box_alpha, lo_half), (box_alpha, hi_half)
        # Push the high half first so the low half is explored first.
        stack.append((*hi_box, depth + 1, hi_grid))
        stack.append((*lo_box, depth + 1, lo_grid))
    evidence = {"kind": "interval-subdivision", "boxes": boxes_tested, "depth": deepest}
    return ok, evidence, candidates, boxes_tested, deepest


# --- witness search ----------------------------------------------------------


def _witness_search(product, overall_sign, region, candidates):
    seen = set()
    for point in (*candidates, *polytope_vertices(region)):
        if point in seen or not region.contains(*point):
            continue
        seen.add(point)
        if _violates(poly_eval(product, *point), overall_sign):
            return point
    # A grid point seen above did not violate, so scanning it again changes
    # nothing.  On integer indices the openness flags are index ranges and
    # the side cut is one sign test.
    side = {None: 0, SIDE_LEFT: -1, SIDE_RIGHT: 1}[region.side]
    for g in (4, 8, 16, 32):
        value = grid_form(product, region.alpha, region.beta, g)
        a_nums, a_den = grid_axis(region.alpha, g)
        b_nums, b_den = grid_axis(region.beta, g)
        # side * (alpha_i + beta_j) has the sign of a_sums[i] + b_sums[j].
        a_sums = [x * b_den * side for x in a_nums]
        b_sums = [y * a_den * side for y in b_nums]
        j_lo, j_hi = int(region.beta_open[0]), g - region.beta_open[1]
        for i in range(region.alpha_open[0], g + 1 - region.alpha_open[1]):
            # Points with i and j both even are the coarser grid's points, so
            # an even row of a finer grid visits odd j only.
            fresh = g > 4 and i % 2 == 0
            for j in range(j_lo | fresh, j_hi + 1, 1 + fresh):
                if a_sums[i] + b_sums[j] >= 0 and _violates(value(i, j), overall_sign):
                    return Fraction(a_nums[i], a_den), Fraction(b_nums[j], b_den)
    return None


def certify_sign(claim, region, max_depth=16):
    """Certify, refute (with witness), or give up on a factored sign claim."""
    outcomes = []
    candidates = []
    notes = []
    total_boxes = 0
    deepest = 0
    all_ok = True
    for factor in claim.factors:
        if factor.strategy == "interval-subdivision":
            if max_depth < 1:
                ok, evidence = False, {
                    "kind": "interval-subdivision",
                    "note": "subdivision disabled (max_depth < 1)",
                }
                cand, nboxes, depth = [], 0, 0
                notes.append(
                    "subdivision disabled (max_depth < 1) for factor "
                    + poly_format(factor.expr)
                )
            else:
                ok, evidence, cand, nboxes, depth = _certify_interval_factor(
                    factor, region, max_depth
                )
        else:
            ok, evidence, cand = _certify_affine(
                factor, region, atom=factor.strategy == "region-atom"
            )
            nboxes, depth = 0, 0
        total_boxes += nboxes
        deepest = max(deepest, depth)
        candidates.extend(cand)
        all_ok = all_ok and ok
        outcomes.append(
            FactorOutcome(
                expr=poly_format(factor.expr),
                target=factor.target,
                strategy=factor.strategy,
                status="certified" if ok else "not-certified",
                evidence=evidence,
            )
        )
    if all_ok:
        return SignCertificate("certified", outcomes, None, total_boxes, deepest, notes)
    witness = _witness_search(claim.product(), claim.overall_sign, region, candidates)
    if witness is not None:
        return SignCertificate("failed", outcomes, witness, total_boxes, deepest, notes)
    return SignCertificate("inconclusive", outcomes, None, total_boxes, deepest, notes)
