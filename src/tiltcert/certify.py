"""Sound sign certificates for polynomial claims on a boxed region.

A claim asserts a sign for a product of polynomial factors over a region
(a rational box with per-endpoint openness flags, optionally cut by the
half-plane alpha <= -beta or alpha >= -beta).  The certifier reads only
the claim's product and its overall sign: the factors, their targets and
their strategies are checked when the claim is built, and select no code.
Regions, factors, claims and pieces are named tuples; _replace re-runs the
constructor's checks.
certify_sign orients the product once, negating it for "<0" and "<=0",
so the engine below only certifies poly > 0 (strict) or poly >= 0.

One engine decides every claim: recursive bisection of each side piece
(below), alternating between alpha and t, alpha first, each box decided
by its Bernstein coefficients alone.  Boxes are integer cells of their
piece, with a rational point built only for the face returned (below).
Coefficients are formed from the power basis once, on a piece's root
box, as the integer grid of bernstein_coefficients' (den, grid), a
positive multiple of them (signs need no den), flat and row-major; each
split derives its children's grids by midpoint de Casteljau subdivision.

Side pieces: no box the bisection tries is crossed by the side line.  A
side-cut region splits into at most two boxes in the closed half-plane
and one slanted piece along the line, {alpha in [a0, a1], lo <= beta <=
hi} with lo or hi equal to -alpha, bisected as the unit box in (alpha, t)
with beta = lo + t * (hi - lo) substituted into the product (side_pieces).
A region that the side line meets in one corner has no pieces: it is
that point or empty, read by the witness search's vertex stage alone.
Pieces are also cut at alpha = 0 and t = 0, so a zero of the claim on
those lines sits on box edges: b^2 >= 0 on beta in [-1/2, 1/4] certifies
on its two root boxes, but uncut, every box around beta = 0 keeps the
negative Bernstein coefficient lo*hi (inconclusive, 21 boxes, depth 16).

Face rule: a box's nine faces are its 4 corners, its 4 edges and the
whole cell.  When every Bernstein coefficient of a face breaks the sign,
poly breaks it on the whole face, as poly there is a convex combination
of them.  A face is one slice of the flat grid (a corner, a row, a
column or all of it), and breaks the sign exactly when its largest
coefficient does.  The side line crosses no piece, so a face meets the
piece exactly when its centre does, which a table built with each piece
gives by cell index.  The bisection stops at the first face whose
coefficients all break the sign and whose centre lies in the piece, and
that centre is the claim's witness.  Otherwise a box with no negative
coefficient certifies, and one with a negative coefficient splits.  This
keeps a strict sign sound on open boundaries: on a box whose
coefficients are all >= 0, poly's zeros lie on faces whose coefficients
all vanish, and each such face misses the piece.

Soundness contract: status "certified" is only reported when the sign
holds at every region point; "failed" always carries a witness point in
the region where the product's target sign is violated by re-evaluation;
anything the engine cannot settle within its depth budget is
"inconclusive", never guessed.

Witness search (claims that did not certify, and whose bisection stopped
at no face), first violating point wins: the polytope vertices, then the
4, 8, 16 and 32 grids over the region box, by increasing alpha index,
then beta index.  The grids are sub-grids of one 32-grid form, read once
by rows on integer indices: openness flags and the side cut make one
index range per row, checked by its minimum.  Every allowed point of a
coarser grid is an allowed 32-grid point with the same value, so the
order is one key on 32-grid indices: (-s, i, j), with s = gcd(i, j, 8)
the stride of the coarsest grid holding (i, j).  The least key of a
violating allowed point wins, and with none the search returns None.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .kernel import (
    BivariatePoly,
    RationalInterval,
    bernstein_coefficients,
    checked_namedtuple,
    grid_form,
    poly_eval,
    poly_format,
    split_grid,
    substitute,
)

poly_interval_eval = None  # unread: bench/tracing.py's kernel.interval_eval patches it

SIDE_LEFT = "alpha<=-beta"
SIDE_RIGHT = "alpha>=-beta"
# side -> sigma: a point lies on the side iff sigma * (alpha + beta) >= 0.
SIDE_SIGNS = {SIDE_LEFT: -1, SIDE_RIGHT: 1}

# target -> (orientation, strict): v meets it iff orientation * v > 0, or
# >= 0 when not strict.
_SIGN_PARTS = {">0": (1, True), ">=0": (1, False), "<0": (-1, True), "<=0": (-1, False)}
STRATEGIES = ("affine-vertex", "interval-subdivision", "region-atom")
DEFAULT_MAX_DEPTH = 16  # deepest bisection level unless a caller sets max_depth


class Region(checked_namedtuple("Region", "beta alpha beta_open alpha_open side")):
    __slots__ = ()

    def __new__(cls, beta, alpha, beta_open=(False, False), alpha_open=(False, False), side=None):
        if beta.width <= 0 or alpha.width <= 0:
            raise ValueError("region box must be full-dimensional")
        if side not in (None, *SIDE_SIGNS):
            raise ValueError(f"unknown side constraint {side!r}")
        # Tuples keep a region hashable: the geometry caches key on it.
        flags = tuple(beta_open), tuple(alpha_open)
        if any(len(f) != 2 or not all(type(x) is bool for x in f) for f in flags):
            raise ValueError(f"openness flags must be pairs of bools, not {flags!r}")
        return super().__new__(cls, beta, alpha, *flags, side)

    def side_ok(self, alpha, beta):
        return self.side is None or SIDE_SIGNS[self.side] * (alpha + beta) >= 0

    def contains(self, alpha, beta):
        """Point membership, honoring openness flags and side constraint."""
        a_lo = alpha > self.alpha.lo if self.alpha_open[0] else alpha >= self.alpha.lo
        a_hi = alpha < self.alpha.hi if self.alpha_open[1] else alpha <= self.alpha.hi
        b_lo = beta > self.beta.lo if self.beta_open[0] else beta >= self.beta.lo
        b_hi = beta < self.beta.hi if self.beta_open[1] else beta <= self.beta.hi
        return a_lo and a_hi and b_lo and b_hi and self.side_ok(alpha, beta)

    def describe(self):
        text = (
            f"beta in {self.beta.text(self.beta_open)}, "
            f"alpha in {self.alpha.text(self.alpha_open)}"
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


class Factor(checked_namedtuple("Factor", "expr target strategy")):
    """One factor of a claim.  The target and the strategy are checked on
    construction, but select no code: certify_sign reads the claim's
    product and overall sign only."""

    __slots__ = ()

    def __new__(cls, expr, target, strategy):
        sign_parts(target)
        if strategy not in STRATEGIES:
            raise ValueError(f"bad strategy {strategy!r}")
        if strategy != "interval-subdivision" and expr.total_degree() > 1:
            raise ValueError(f"{strategy} requires an affine expression")
        return super().__new__(cls, expr, target, strategy)


class FactoredClaim(checked_namedtuple("FactoredClaim", "factors overall_sign")):
    """overall_sign claimed for the product of the factors.  The factor
    targets must imply it, which is checked on construction."""

    __slots__ = ()

    def __new__(cls, factors, overall_sign):
        factors = tuple(factors)
        if not factors:
            raise ValueError("claim needs at least one factor")
        orient, strict = 1, True
        for f in factors:
            f_orient, f_strict = sign_parts(f.target)
            orient, strict = orient * f_orient, strict and f_strict
        want_orient, want_strict = sign_parts(overall_sign)
        if orient != want_orient or (want_strict and not strict):
            targets = ", ".join(f.target for f in factors)
            raise ValueError(f"factor signs {targets} do not imply {overall_sign}")
        return super().__new__(cls, factors, overall_sign)

    def product(self):
        out = self.factors[0].expr
        for f in self.factors[1:]:
            out = out * f.expr
        return out


@dataclass
class SignCertificate:
    status: str
    witness: tuple | None
    boxes: int
    depth: int
    notes: list


def sign_parts(sign):
    """Decode a target sign into (orientation, strict)."""
    try:
        return _SIGN_PARTS[sign]
    except KeyError:
        raise ValueError(f"bad target {sign!r}") from None


def _violates(value, strict):
    """Whether value breaks the target value > 0 (strict) or value >= 0."""
    return value < 0 or (strict and value == 0)


# --- vertex reasoning --------------------------------------------------------


@lru_cache(maxsize=64)
def polytope_vertices(region):
    """Vertices of the closed box cut by the side half-plane, as a sorted
    tuple.  Cached by region value (at most 64 regions)."""
    points = {(a, b) for a in region.alpha for b in region.beta if region.side_ok(a, b)}
    if region.side is not None:
        points.update((a, -a) for a in region.alpha if -a in region.beta)
        points.update((-b, b) for b in region.beta if -b in region.alpha)
    return tuple(sorted(points))


# --- side pieces -------------------------------------------------------------


class Piece(checked_namedtuple("Piece", "region alpha t lift faces")):
    """A plain box of a region, in coordinates (alpha, t).

    lift is beta as a polynomial in (alpha, t), or None where t is beta
    itself.  Membership of a point of the box asks the original region at
    the lifted point, so the side line, the cuts between pieces and an
    edge the lift collapses to one point all take their openness from it.
    faces[x][y] is the membership of the piece's own face at centre
    offsets (x, y) (see _FACES), built with the piece.
    """

    __slots__ = ()

    def __new__(cls, region, alpha, t, lift=None, *_):
        # faces is derived: the table _replace hands back is rebuilt.
        bare = super().__new__(cls, region, alpha, t, lift, ())
        faces = [[bare.contains(*_point(bare, 0, 0, 0, x, y)) for y in range(3)] for x in range(3)]
        return super().__new__(cls, region, alpha, t, lift, tuple(map(tuple, faces)))

    def point(self, alpha, t):
        """The region point (alpha, beta) at piece coordinates (alpha, t)."""
        return (alpha, t) if self.lift is None else (alpha, poly_eval(self.lift, alpha, t))

    def contains(self, alpha, t):
        return self.region.contains(*self.point(alpha, t))


@lru_cache(maxsize=64)
def side_pieces(region):
    """Plain pieces whose union is the region, none crossed by the side line,
    as a tuple of frozen Pieces.  Cached by region value (at most 64
    regions), so a run builds each region's pieces once.

    A region without a side is its own piece.  A side-cut region splits
    into at most two boxes that lie in the closed half-plane, plus one
    slanted piece along the line: alpha in [a0, a1] and beta between a
    constant and -alpha, lifted from the unit box in (alpha, t) by
    beta = lo + t * (hi - lo).  Pieces without area are dropped, so a
    region that the line meets in one corner (or not at all) has none.
    Each piece is then cut where alpha or t crosses 0.
    """
    a_lo, a_hi = region.alpha.lo, region.alpha.hi
    b_lo, b_hi = region.beta.lo, region.beta.hi
    a, t = BivariatePoly.alpha(), BivariatePoly.beta()
    # (alpha range, t range, lift): plain boxes, then the slanted piece.
    if region.side is None:
        pieces = ((a_lo, a_hi, b_lo, b_hi, None),)
    elif region.side == SIDE_LEFT:
        # beta <= -alpha holds on the whole width below beta = c and on the
        # whole height left of alpha = d; the triangle under the line remains.
        c = min(max(-a_hi, b_lo), b_hi)
        d = min(max(-b_hi, a_lo), a_hi)
        slant = (d, min(a_hi, -c), 0, 1, c + t * (-a - c))
        pieces = ((a_lo, a_hi, b_lo, c, None), (a_lo, d, c, b_hi, None), slant)
    else:
        # beta >= -alpha: the mirror image, above beta = c and right of alpha = d.
        c = min(max(-a_lo, b_lo), b_hi)
        d = min(max(-b_lo, a_lo), a_hi)
        slant = (max(a_lo, -c), d, 0, 1, -a + t * (c + a))
        pieces = ((a_lo, a_hi, c, b_hi, None), (d, a_hi, b_lo, c, None), slant)
    return tuple(
        Piece(region, RationalInterval(*x), RationalInterval(*y), lift)
        for x0, x1, y0, y1, lift in pieces
        if x0 < x1 and y0 < y1
        for x in _at_zero(x0, x1)
        for y in _at_zero(y0, y1)
    )


def _at_zero(lo, hi):
    """(lo, hi), or its two halves at 0 when 0 lies strictly inside."""
    return ((lo, 0), (0, hi)) if lo < 0 < hi else ((lo, hi),)


# --- box reasoning -----------------------------------------------------------


# Centre offsets (x, y) of a box's nine faces (see _point): the 4 corners,
# the edges at alpha-lo, alpha-hi, t-lo and t-hi, then the whole cell.
_FACES = ((0, 0), (2, 0), (0, 2), (2, 2), (0, 1), (2, 1), (1, 0), (1, 2), (1, 1))


def _cut(interval, k, level):
    """End k of interval's 2^level equal cells; its own ends as they are."""
    if 0 < k < 1 << level:
        return interval.lo + interval.width * Fraction(k, 1 << level)
    return interval.hi if k else interval.lo


def _point(piece, i, j, depth, x, y):
    """The piece point of box (i, j, depth) at half-cell offsets x, y in
    {0, 1, 2}: 0 is the box's low end, 1 its midpoint, 2 its high end."""
    return (
        _cut(piece.alpha, 2 * i + x, (depth + 1) // 2 + 1),
        _cut(piece.t, 2 * j + y, depth // 2 + 1),
    )


def _face_class(x, k, last):
    """Offset on one axis of the piece face holding cell k's face at offset x."""
    return 0 if x == 0 and k == 0 else 2 if x == 2 and k == last else 1


def _certify_box(poly, strict, piece, i, j, depth, grid, w):
    """Try to certify poly > 0 (strict) or poly >= 0 on one box of a piece.

    The box is cell i of 2^ceil(depth/2) equal cells along the piece's
    alpha range by cell j of 2^floor(depth/2) along its t range.  grid is
    the flat integer Bernstein grid, w entries a row, inherited from the
    parent box (a positive multiple of the coefficients on this box), or
    None on a piece's root box, where it is computed from the power basis.
    Returns (verdict, grid, point): verdict "violated" at the centre of
    the first face in _FACES whose coefficients all break the sign and
    whose centre lies in the piece, else "certified" when no coefficient
    is negative and "split" (undecided, bisect further) otherwise; the
    box's grid; and the violated piece point, else None.  A face is one
    slice of grid, and breaks the sign exactly when its largest
    coefficient does: _violates holds at or below any value it holds at."""
    if grid is None:
        grid = bernstein_coefficients(poly, piece.alpha, piece.t)[1]
    end = len(grid) - w  # the start of the last row
    # Every face holds a corner, so without a violating corner no face
    # breaks the sign.
    if _violates(min(grid[0], grid[end], grid[w - 1], grid[-1]), strict):
        last_i, last_j = (1 << (depth + 1) // 2) - 1, (1 << depth // 2) - 1
        # _FACES as slices: corners by index, rows at the alpha ends, columns at the t ends.
        faces = (slice(0, 1), slice(end, end + 1), slice(w - 1, w), slice(-1, None), slice(0, w),
                 slice(end, None), slice(0, None, w), slice(w - 1, None, w), slice(None))
        for (x, y), face in zip(_FACES, faces):
            # The side line crosses no piece, so along a face's relative
            # interior every region bound is tight everywhere or nowhere: the
            # centre lies in one piece face, whose membership piece.faces holds.
            # That keeps the zeros of a box certified below off the piece.
            inside = piece.faces[_face_class(x, i, last_i)][_face_class(y, j, last_j)]
            if inside and _violates(max(grid[face]), strict):
                return "violated", grid, _point(piece, i, j, depth, x, y)
    return ("split" if min(grid) < 0 else "certified"), grid, None


def _bisect_side_pieces(poly, strict, pieces, max_depth):
    """Bisection loop over side pieces for poly > 0 (strict) or poly >= 0.

    Returns (ok, point, boxes, depth) at the first box that fails, with
    point the region point (alpha, beta) it violates at, or None when the
    box reached max_depth; ok is True (and vacuous without pieces) when
    every box certifies.

    Splits alternate, alpha first: a box at depth d halves alpha when d is
    even, t when d is odd, so a box is the cell (i, j, d) of its piece
    that _certify_box reads, and a split doubles i or j.  A slanted piece
    certifies poly composed with its lift; its point maps back through the
    lift.  A split box hands each child the matching half of its integer
    Bernstein grid, so coefficients come from the power basis only on the
    pieces' root boxes.
    """
    boxes = deepest = 0
    for piece in pieces:
        piece_poly = poly if piece.lift is None else substitute(poly, piece.lift)
        w = piece_poly.degree_beta() + 1  # the grid's row width, one per piece
        stack = [(0, 0, 0, None)]
        while stack:
            i, j, depth, grid = stack.pop()
            boxes += 1
            deepest = max(deepest, depth)
            verdict, grid, point = _certify_box(piece_poly, strict, piece, i, j, depth, grid, w)
            if verdict == "certified":
                continue
            if verdict == "violated":
                return False, piece.point(*point), boxes, deepest
            if depth >= max_depth:
                return False, None, boxes, deepest
            lo, hi = split_grid(grid, w, depth % 2)
            # Push the high half first so the low half is explored first.
            if depth % 2:
                stack += (i, 2 * j + 1, depth + 1, hi), (i, 2 * j, depth + 1, lo)
            else:
                stack += (2 * i + 1, j, depth + 1, hi), (2 * i, j, depth + 1, lo)
    return True, None, boxes, deepest


# --- witness search ----------------------------------------------------------


def _witness_search(poly, strict, region):
    """The first region point where poly > 0 (strict) or poly >= 0 fails,
    in the order of the module docstring, or None.  The vertices come from
    polytope_vertices' bounded cache.  The grids are one pass over the
    32-grid form: a violating allowed point (i, j) has the key (-s, i, j),
    s = gcd(i, j, 8) the stride of the coarsest grid holding it, and the
    least key is the witness."""
    for point in polytope_vertices(region):
        if region.contains(*point) and _violates(poly_eval(poly, *point), strict):
            return point
    (a_nums, a_den), (b_nums, b_den), rows = grid_form(poly, region.alpha, region.beta, 32)
    # keys[j] = b_nums[j] * a_den rises with j, so in row i the side cut,
    # sigma * (keys[j] + a_nums[i] * b_den) >= 0, keeps columns lo to hi - 1.
    keys = [y * a_den for y in b_nums]
    sigma = SIDE_SIGNS.get(region.side, 0)
    b_open_lo, b_open_hi = region.beta_open
    # The least key of each row that holds a violating point.
    least = []
    for i in range(region.alpha_open[0], 33 - region.alpha_open[1]):
        lo = bisect_left(keys, -a_nums[i] * b_den) if sigma > 0 else 0
        hi = bisect_right(keys, -a_nums[i] * b_den) if sigma < 0 else 33
        first = max(b_open_lo, lo)
        values = rows[i][first : min(33 - b_open_hi, hi)]
        if values and _violates(min(values), strict):
            cols = (j for j, v in enumerate(values, first) if _violates(v, strict))
            least.append(min((-gcd(i, j, 8), i, j) for j in cols))
    if not least:
        return None
    _, i, j = min(least)
    return Fraction(a_nums[i], a_den), Fraction(b_nums[j], b_den)


def certify_sign(claim, region, max_depth=DEFAULT_MAX_DEPTH):
    """Certify, refute (with witness), or give up on the sign of a claim's
    product; max_depth < 1 skips the bisection of a region with pieces.
    The witness is the face centre the bisection stopped at, or else the
    witness search's point."""
    product = claim.product()
    orient, strict = sign_parts(claim.overall_sign)
    poly = product if orient > 0 else -product
    notes = []
    pieces = side_pieces(region)
    if max_depth < 1 and pieces:
        ok, point, boxes, depth = False, None, 0, 0
        # The wording is part of the `verify --max-depth 0` report's bytes.
        notes.append(f"subdivision disabled (max_depth < 1) for factor {poly_format(product)}")
    else:
        ok, point, boxes, depth = _bisect_side_pieces(poly, strict, pieces, max_depth)
    # Certified with no box tried: the region has no pieces, so it is one
    # polytope vertex or empty, and the witness search's vertex stage reads
    # it whatever max_depth is.
    if point is None and not (ok and boxes):
        point = _witness_search(poly, strict, region)
    status = "failed" if point else "certified" if ok else "inconclusive"
    return SignCertificate(status, point, boxes, depth, notes)
