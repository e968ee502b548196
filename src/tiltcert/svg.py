"""SVG figure emission: central-charge vector diagrams and wall contours.

All geometry is computed in exact rationals; the only numeric conversion in
the whole system is the fixed 6-decimal formatting here, done with integer
arithmetic (never floats).
"""

from fractions import Fraction

from .heart import GENERATORS
from .kernel import as_fraction, grid_form, poly_eval
from .tilt import central_charge, wall_polynomial

WIDTH = 480
HEIGHT = 480
MARGIN = 40
# Fewest grid divisions a wall contour is drawn on (plot wall --grid).
MIN_GRID = 16


def decimal6(x):
    """Render a rational with exactly six decimal places, by integer math."""
    scaled = round(as_fraction(x) * 10**6)
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
    charges = [(label, *central_charge(ch, p)) for label, ch, _ in GENERATORS]
    extent = max(max(abs(re), abs(im)) for _, re, im in charges)
    if extent == 0:
        extent = Fraction(1)
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
    if p.alpha >= -p.beta:
        x1, y1 = to_px(Fraction(0), extent)
        x2, y2 = to_px(Fraction(0), -extent)
    else:
        axis_z = next((re, im) for label, re, im in charges if label == "O[1]")
        big = max(abs(axis_z[0]), abs(axis_z[1]))
        stretch = extent / big if big else Fraction(1)
        x1, y1 = to_px(axis_z[0] * stretch, axis_z[1] * stretch)
        x2, y2 = to_px(-axis_z[0] * stretch, -axis_z[1] * stretch)
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


# Marching-squares cases: corner bit k set when the value there is >= 0;
# bits order c00=1, c10=2, c11=4, c01=8.  Edges: 0 bottom, 1 right, 2 top,
# 3 left.  Saddle cases 5 and 10 are resolved with the exact center value.
_CASES = {
    0: [], 15: [],
    1: [(0, 3)], 14: [(0, 3)],
    2: [(0, 1)], 13: [(0, 1)],
    4: [(1, 2)], 11: [(1, 2)],
    8: [(2, 3)], 7: [(2, 3)],
    3: [(3, 1)], 12: [(3, 1)],
    6: [(0, 2)], 9: [(0, 2)],
}


def _edge_point(edge, corners, values):
    (which_a, which_b) = ((0, 1), (1, 2), (3, 2), (0, 3))[edge]
    (xa, ya), va = corners[which_a], values[which_a]
    (xb, yb), vb = corners[which_b], values[which_b]
    t = Fraction(va, va - vb)
    return xa + t * (xb - xa), ya + t * (yb - ya)


def wall_contour_segments(poly, box_beta, box_alpha, grid):
    """Exact marching squares for the zero set of poly over the box.

    Returns segments as ((beta, alpha), (beta, alpha)) rational pairs.
    Grid values come from kernel.grid_form: ints, one positive multiple of
    the values of poly, so signs and crossing points are exact.  Sign
    class is value >= 0, so a grid of exact zeros yields no segments
    only when nothing crosses; the identically-zero polynomial gives an
    all-positive grid and hence an empty contour.
    """
    if grid < MIN_GRID:
        raise ValueError(f"grid must be at least {MIN_GRID}")
    betas = [box_beta.lo + Fraction(i, grid) * box_beta.width for i in range(grid + 1)]
    alphas = [box_alpha.lo + Fraction(j, grid) * box_alpha.width for j in range(grid + 1)]
    value = grid_form(poly, box_alpha, box_beta, grid)
    values = [[value(j, i) for j in range(grid + 1)] for i in range(grid + 1)]
    segments = []
    for i in range(grid):
        for j in range(grid):
            corners = (
                (betas[i], alphas[j]),
                (betas[i + 1], alphas[j]),
                (betas[i + 1], alphas[j + 1]),
                (betas[i], alphas[j + 1]),
            )
            vals = (
                values[i][j],
                values[i + 1][j],
                values[i + 1][j + 1],
                values[i][j + 1],
            )
            index = sum(1 << k for k in range(4) if vals[k] >= 0)
            if index in _CASES:
                pairs = _CASES[index]
            else:
                center_beta = (betas[i] + betas[i + 1]) / 2
                center_alpha = (alphas[j] + alphas[j + 1]) / 2
                center = poly_eval(poly, center_alpha, center_beta)
                if index == 5:
                    pairs = [(0, 1), (2, 3)] if center >= 0 else [(0, 3), (1, 2)]
                else:  # index == 10
                    pairs = [(0, 3), (1, 2)] if center >= 0 else [(0, 1), (2, 3)]
            for ea, eb in pairs:
                segments.append(
                    (_edge_point(ea, corners, vals), _edge_point(eb, corners, vals))
                )
    return segments


def emit_wall_svg(v, w, grid, path, box_beta, box_alpha):
    """Contour of the numerical wall between v and w over a (beta, alpha) box.

    beta runs horizontally, alpha vertically upward.
    """
    poly = wall_polynomial(v, w)
    segments = wall_contour_segments(poly, box_beta, box_alpha, grid)
    span = WIDTH - 2 * MARGIN

    def to_px(beta, alpha):
        x = MARGIN + (beta - box_beta.lo) / box_beta.width * span
        y = HEIGHT - MARGIN - (alpha - box_alpha.lo) / box_alpha.width * span
        return x, y

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
        x1, y1 = to_px(b0, a0)
        x2, y2 = to_px(b1, a1)
        parts.append(
            f'  <line class="wall" x1="{decimal6(x1)}" y1="{decimal6(y1)}" '
            f'x2="{decimal6(x2)}" y2="{decimal6(y2)}" '
            'stroke="black" stroke-width="1.5"/>\n'
        )
    parts.append("</svg>\n")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(parts))
