"""SVG figure emission: central-charge vector diagrams and wall contours.

All geometry is computed in exact rationals; the only numeric conversion in
the whole system is the fixed 6-decimal formatting here, done with integer
arithmetic (never floats), rounded half to even.  Wall contours stay on ints
from kernel.grid_form's values to the pixel text.
"""

from fractions import Fraction

from .heart import GENERATORS
from .kernel import as_fraction, grid_axis, grid_form, poly_eval
from .tilt import central_charge, wall_polynomial

WIDTH = 480
HEIGHT = 480
MARGIN = 40
# Fewest grid divisions a wall contour is drawn on (plot wall --grid).
MIN_GRID = 16


def decimal6(x):
    """Render a rational with exactly six decimal places, by integer math."""
    x = as_fraction(x)
    return _decimal6_ratio(x.numerator, x.denominator)


def _decimal6_ratio(num, den):
    # num / den (den > 0) to six places, rounded half to even like round().
    scaled, rest = divmod(num * 10**6, den)
    if 2 * rest > den or (2 * rest == den and scaled & 1):
        scaled += 1
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // 10**6}.{scaled % 10**6:06d}"


def _svg_header():
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
    )


def emit_zvectors_svg(p, path):
    """Draw Z of the four shifted heart generators as arrows from the origin.

    The divider is the boundary line of the half-plane certificate that
    applies at (alpha, beta): the imaginary axis when alpha >= -beta, the
    line through Z(O[1]) otherwise.
    """
    charges = [(label, *central_charge(ch, p)) for label, ch in GENERATORS.items()]
    # Never 0: Im Z is +-alpha * (x^2 - alpha^2) with x = 1 - beta, beta, 1 + beta
    # on O(1), O[1], O(-1)[3], and those three x^2 are never all equal.
    extent = max(max(abs(re), abs(im)) for _, re, im in charges)
    scale = Fraction(HEIGHT // 2 - MARGIN) / extent
    cx = Fraction(WIDTH, 2)
    cy = Fraction(HEIGHT, 2)

    def to_px(re, im):
        return cx + re * scale, cy - im * scale

    parts = [_svg_header()]
    parts.append(
        '  <defs><marker id="tip" markerWidth="8" markerHeight="8" refX="6" '
        'refY="3" orient="auto"><path d="M0,0 L6,3 L0,6 z" fill="black"/>'
        "</marker></defs>\n"
    )
    parts.append(
        f'  <line class="axis" x1="{decimal6(MARGIN)}" y1="{decimal6(cy)}" '
        f'x2="{decimal6(WIDTH - MARGIN)}" y2="{decimal6(cy)}" '
        'stroke="#cccccc" stroke-width="1"/>\n'
    )
    parts.append(
        f'  <line class="axis" x1="{decimal6(cx)}" y1="{decimal6(MARGIN)}" '
        f'x2="{decimal6(cx)}" y2="{decimal6(HEIGHT - MARGIN)}" '
        'stroke="#cccccc" stroke-width="1"/>\n'
    )
    # The divider's direction; TiltParams keeps alpha > 0, so Z(O[1]) != 0.
    if p.alpha >= -p.beta:
        dx, dy = 0, 1
    else:
        dx, dy = next((re, im) for label, re, im in charges if label == "O[1]")
    stretch = extent / max(abs(dx), abs(dy))
    x1, y1 = to_px(dx * stretch, dy * stretch)
    x2, y2 = to_px(-dx * stretch, -dy * stretch)
    parts.append(
        f'  <line class="divider" x1="{decimal6(x1)}" y1="{decimal6(y1)}" '
        f'x2="{decimal6(x2)}" y2="{decimal6(y2)}" '
        'stroke="#8888ff" stroke-width="1" stroke-dasharray="6,4"/>\n'
    )
    for label, re, im in charges:
        x, y = to_px(re, im)
        parts.append(
            f'  <line class="zvector" x1="{decimal6(cx)}" y1="{decimal6(cy)}" '
            f'x2="{decimal6(x)}" y2="{decimal6(y)}" '
            'stroke="black" stroke-width="2" marker-end="url(#tip)"/>\n'
        )
        lx = x + (8 if x >= cx else -8)
        anchor = "start" if x >= cx else "end"
        parts.append(
            f'  <text class="zlabel" x="{decimal6(lx)}" y="{decimal6(y)}" '
            f'font-size="14" text-anchor="{anchor}">Z({label})</text>\n'
        )
    parts.append("</svg>\n")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(parts))


# Marching squares: corner bit k set when the value there is >= 0, bits
# c00=1, c10=2, c11=4, c01=8; edges 0 bottom, 1 right, 2 top, 3 left.
# Cases k and 15 - k cross the same edges, keyed by the smaller; the saddles
# 5 and 10 are not listed.
_CASES = {1: [(0, 3)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)], 6: [(0, 2)], 7: [(2, 3)]}
# Edge k starts at corner (i + di, j + dj) and runs along beta or alpha.
_EDGES = ((0, 0, True), (1, 0, False), (0, 1, True), (0, 0, False))


def wall_contour_segments(poly, box_beta, box_alpha, grid):
    """Exact marching squares for the zero set of poly over the box.

    Returns segments as ((beta, alpha), (beta, alpha)) rational pairs, cell
    by cell with beta outer.  Grid coordinates and values both come from
    kernel.grid_form: integer numerators over one denominator per axis,
    and rows, one per alpha, transposed to one per beta: ints, one
    positive multiple of the values of poly, so signs and crossing points
    are exact.  Sign class is value >= 0, kept as one bit mask per
    grid row; a cell whose corners share a class is skipped unbuilt, so the
    identically-zero polynomial gives an empty contour.  A crossing between
    values va and vb at grid numerators x and x + step over den lies at
    (x * d + va * step) / (den * d), d = va - vb: one Fraction per coordinate.
    """
    if grid < MIN_GRID:
        raise ValueError(f"grid must be at least {MIN_GRID}")
    # beta_i = b_nums[i] / b_den and alpha_j = a_nums[j] / a_den.
    (a_nums, a_den), (b_nums, b_den), rows = grid_form(poly, box_alpha, box_beta, grid)
    b_step, a_step = b_nums[1] - b_nums[0], a_nums[1] - a_nums[0]
    betas = [Fraction(n, b_den) for n in b_nums]
    alphas = [Fraction(n, a_den) for n in a_nums]
    values = list(zip(*rows))
    signs = [sum(1 << j for j, v in enumerate(row) if v >= 0) for row in values]

    def crossing(edge, i, j):
        di, dj, along_beta = _EDGES[edge]
        i, j = i + di, j + dj
        if along_beta:
            va, d = values[i][j], values[i][j] - values[i + 1][j]
            return Fraction(b_nums[i] * d + va * b_step, b_den * d), alphas[j]
        va, d = values[i][j], values[i][j] - values[i][j + 1]
        return betas[i], Fraction(a_nums[j] * d + va * a_step, a_den * d)

    segments = []
    for i in range(grid):
        low, high = signs[i], signs[i + 1]
        # Bit j set when cell (i, j) has corners of both sign classes.
        mixed = low ^ high
        mixed = (mixed | mixed >> 1 | low ^ low >> 1) & ((1 << grid) - 1)
        while mixed:
            j = (mixed & -mixed).bit_length() - 1
            mixed &= mixed - 1
            low2, high2 = low >> j & 3, high >> j & 3
            index = low2 & 1 | (high2 & 1) << 1 | (high2 & 2) << 1 | (low2 & 2) << 2
            pairs = _CASES.get(min(index, 15 - index))
            if pairs is None:  # saddle: the exact centre value picks the pairing
                a_mid = Fraction(a_nums[j] + a_nums[j + 1], 2 * a_den)
                center = poly_eval(poly, a_mid, Fraction(b_nums[i] + b_nums[i + 1], 2 * b_den))
                pairs = [(0, 1), (2, 3)] if (index == 5) == (center >= 0) else [(0, 3), (1, 2)]
            for ea, eb in pairs:
                segments.append((crossing(ea, i, j), crossing(eb, i, j)))
    return segments


def emit_wall_svg(v, w, grid, path, box_beta, box_alpha):
    """Contour of the numerical wall between v and w over a (beta, alpha) box.

    beta runs horizontally, alpha vertically upward.
    """
    poly = wall_polynomial(v, w)
    segments = wall_contour_segments(poly, box_beta, box_alpha, grid)
    span = WIDTH - 2 * MARGIN

    def to_px(box, origin, direction):
        # p / q -> origin + direction * span * (p / q - lo) / width, to six places.
        (lo, hi), den = grid_axis(box, 1)
        scale, width = direction * span, hi - lo

        def px(x):
            p, q = x.numerator, x.denominator
            return _decimal6_ratio(origin * q * width + scale * (p * den - lo * q), q * width)

        return px

    x_px, y_px = to_px(box_beta, MARGIN, 1), to_px(box_alpha, HEIGHT - MARGIN, -1)
    parts = [_svg_header()]
    parts.append(
        f'  <rect class="frame" x="{MARGIN}" y="{MARGIN}" width="{span}" '
        f'height="{span}" fill="none" stroke="#888888" stroke-width="1"/>\n'
    )
    parts.append(
        f'  <text x="{WIDTH // 2}" y="{HEIGHT - 8}" font-size="13" '
        f'text-anchor="middle">beta in [{box_beta.lo}, {box_beta.hi}]</text>\n'
    )
    parts.append(
        f'  <text x="14" y="{HEIGHT // 2}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 14 {HEIGHT // 2})">'
        f"alpha in [{box_alpha.lo}, {box_alpha.hi}]</text>\n"
    )
    for (b0, a0), (b1, a1) in segments:
        parts.append(
            f'  <line class="wall" x1="{x_px(b0)}" y1="{y_px(a0)}" '
            f'x2="{x_px(b1)}" y2="{y_px(a1)}" '
            'stroke="black" stroke-width="1.5"/>\n'
        )
    parts.append("</svg>\n")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(parts))
