"""SVG figure tests: the integer-arithmetic decimal formatter, exact
marching-squares contours (counts, symmetry, grid-line exactness, empty
cases, saddles), the structure of the emitted documents, and a
differential check of the integer contour and pixel path against a plain
Fraction reference."""

import hashlib
import os
import random
import tempfile
import xml.etree.ElementTree as ET
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiltcert.chern import ChernCharacter, catalog_lookup
from tiltcert.kernel import BivariatePoly, RationalInterval, poly_eval
from tiltcert.svg import (
    HEIGHT,
    MARGIN,
    WIDTH,
    decimal6,
    emit_wall_svg,
    emit_zvectors_svg,
    wall_contour_segments,
)
from tiltcert.tilt import TiltParams, wall_polynomial

import pytest

A = BivariatePoly.alpha()
B = BivariatePoly.beta()

UNIT_BOX = RationalInterval(F(0), F(1))
ALPHA_BOX = RationalInterval(F(0), F(3, 5))


def test_decimal6_renders_exactly_six_places():
    assert decimal6(F(1, 3)) == "0.333333"
    assert decimal6(F(-1, 2)) == "-0.500000"
    assert decimal6(0) == "0.000000"
    assert decimal6(F(2, 3)) == "0.666667"
    assert decimal6(240) == "240.000000"
    assert decimal6(F(3, 2000000)) == "0.000002"


def test_decimal6_rounds_exact_ties_to_even():
    # k / (2 * 10^6) lies exactly halfway between two sixth decimals.
    assert decimal6(F(1, 2 * 10**6)) == "0.000000"
    assert decimal6(F(3, 2 * 10**6)) == "0.000002"
    assert decimal6(F(-1, 2 * 10**6)) == "0.000000"
    assert decimal6(F(-3, 2 * 10**6)) == "-0.000002"


def test_decimal6_matches_float_on_random_rationals():
    rng = random.Random(20260814)
    for _ in range(200):
        x = F(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4))
        text = decimal6(x)
        assert abs(F(text) - x) <= F(1, 2 * 10**6)
        whole, _, frac = text.partition(".")
        assert len(frac) == 6
        assert whole.lstrip("-").isdigit()


def test_contour_of_axis_line_is_exact():
    # zero set of beta - 1/4 is a vertical grid line of the 16-division box:
    # the contour must consist of 16 segments lying exactly on beta = 1/4.
    segments = wall_contour_segments(B - F(1, 4), UNIT_BOX, ALPHA_BOX, 16)
    assert len(segments) == 16
    for (b0, a0), (b1, a1) in segments:
        assert b0 == F(1, 4) and b1 == F(1, 4)
        assert abs(a1 - a0) == F(3, 80)  # one cell height
    covered = sorted(min(s[0][1], s[1][1]) for s in segments)
    assert covered == [F(3 * j, 80) for j in range(16)]


def test_contour_of_wall_circle():
    # the wall between O and O(1) vanishes on the circle
    # (beta - 1/2)^2 + alpha^2 = 1/4; the contour is nonempty, symmetric
    # under beta -> 1 - beta, and every endpoint stays inside the box.
    poly = wall_polynomial(catalog_lookup("O").ch, catalog_lookup("O(1)").ch)
    segments = wall_contour_segments(poly, UNIT_BOX, ALPHA_BOX, 16)
    assert len(segments) == 42
    points = {pt for seg in segments for pt in seg}
    assert points == {(1 - b, a) for (b, a) in points}
    for b, a in points:
        assert F(0) <= b <= F(1)
        assert F(0) <= a <= F(3, 5)
        assert isinstance(b, F) and isinstance(a, F)


def test_contour_endpoints_interpolate_sign_changes():
    # each endpoint is the exact linear interpolation between two grid
    # corners of opposite sign class, so re-evaluating the linearization
    # at the endpoint gives exactly zero along the edge direction.
    poly = wall_polynomial(catalog_lookup("O").ch, catalog_lookup("O(1)").ch)
    grid = 16
    segments = wall_contour_segments(poly, UNIT_BOX, ALPHA_BOX, grid)
    step_b = UNIT_BOX.width / grid
    step_a = ALPHA_BOX.width / grid
    for seg in segments:
        for b, a in seg:
            on_b_line = (b - UNIT_BOX.lo) % step_b == 0
            on_a_line = (a - ALPHA_BOX.lo) % step_a == 0
            assert on_b_line or on_a_line  # endpoints live on cell edges


def test_contour_empty_cases():
    # never-zero polynomial: no crossings at all
    assert wall_contour_segments(A + 1, UNIT_BOX, ALPHA_BOX, 16) == []
    # identically zero polynomial: every corner classifies >= 0, no contour
    zero = BivariatePoly()
    assert wall_contour_segments(zero, UNIT_BOX, ALPHA_BOX, 16) == []


def test_contour_drops_corner_and_repeated_edge_segments():
    # A crossing lies on a grid corner exactly when the value there is 0.
    # The wall of O and (-1, 4, -1/2, 0), -2a^2 - 2b^2 - 1/2*b, meets the
    # alpha = 0 edge in beta = -1/4 and 0: at grid 32 two cells each ended
    # at the corner (0, 0) alone, and at grid 64 two more such cells
    # flanked the edge segment between the two zeros.
    wall = wall_polynomial(catalog_lookup("O").ch, ChernCharacter(-1, 4, F(-1, 2), 0))
    box_beta, box_alpha = RationalInterval(F(-15, 2), F(17, 2)), RationalInterval(0, 8)
    assert wall_contour_segments(wall, box_beta, box_alpha, 32) == []
    assert wall_contour_segments(wall, box_beta, box_alpha, 64) == [((F(-1, 4), 0), (0, 0))]
    # A double zero along a grid line: the cells on both sides share each
    # edge, drawn once (32 segments before).
    segments = wall_contour_segments(-((B - F(1, 4)) ** 2), UNIT_BOX, ALPHA_BOX, 16)
    assert [(b0, b1) for (b0, _), (b1, _) in segments] == [(F(1, 4), F(1, 4))] * 16
    # A double zero along the cells' diagonals: each saddle pairs its edges
    # both ways into one diagonal, and the cells beside it touch it in one
    # corner (62 segments before).
    segments = wall_contour_segments(-((B - F(5, 3) * A) ** 2), UNIT_BOX, ALPHA_BOX, 16)
    corners = [(F(k, 16), F(3 * k, 80)) for k in range(17)]
    assert segments == list(zip(corners, corners[1:]))


def test_contour_grid_minimum():
    with pytest.raises(ValueError):
        wall_contour_segments(B, UNIT_BOX, ALPHA_BOX, 8)


def _cell_cases(poly, grid):
    """(case index, centre value >= 0) of every saddle cell, by poly_eval."""
    betas = [UNIT_BOX.lo + UNIT_BOX.width * F(i, grid) for i in range(grid + 1)]
    alphas = [ALPHA_BOX.lo + ALPHA_BOX.width * F(j, grid) for j in range(grid + 1)]
    cases = []
    for i in range(grid):
        for j in range(grid):
            corners = ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))
            index = sum(
                1 << k
                for k, (ci, cj) in enumerate(corners)
                if poly_eval(poly, alphas[cj], betas[ci]) >= 0
            )
            if index in (5, 10):
                centre = poly_eval(
                    poly, (alphas[j] + alphas[j + 1]) / 2, (betas[i] + betas[i + 1]) / 2
                )
                cases.append((index, centre >= 0))
    return cases


def test_contour_saddle_resolution_is_consistent():
    # Two alpha lines and two beta lines, all off the grid lines, cross
    # inside four cells.  Each of those cells is a saddle, and together they
    # cover case 5 and case 10 with a centre value >= 0 and one < 0.
    poly = (A - F(1, 10)) * (A - F(2, 5)) * (B - F(1, 5)) * (B - F(37, 50))
    assert sorted(_cell_cases(poly, 16)) == [(5, False), (5, True), (10, False), (10, True)]
    segments = wall_contour_segments(poly, UNIT_BOX, ALPHA_BOX, 16)
    assert len(segments) == 64
    # Away from the saddles every segment runs along one grid direction;
    # the saddle segments are the diagonal ones, two per cell.
    diagonal = [s for s in segments if s[0][0] != s[1][0] and s[0][1] != s[1][1]]
    assert diagonal == [
        ((F(809, 4020), F(3, 40)), (F(3, 16), F(101, 1000))),
        ((F(1, 4), F(101, 1000)), (F(809, 4020), F(9, 80))),
        ((F(809, 4020), F(3, 8)), (F(3, 16), F(367, 920))),
        ((F(1, 4), F(367, 920)), (F(809, 4020), F(33, 80))),
        ((F(2941, 3980), F(3, 40)), (F(3, 4), F(101, 1000))),
        ((F(2941, 3980), F(9, 80)), (F(11, 16), F(101, 1000))),
        ((F(2941, 3980), F(3, 8)), (F(3, 4), F(367, 920))),
        ((F(2941, 3980), F(33, 80)), (F(11, 16), F(367, 920))),
    ]
    digest = hashlib.sha256(repr(segments).encode("ascii")).hexdigest()
    assert digest == "e8aeb5fc2657e948a7c4e70f61344db4c730c175532aa59c2b2e14b179113a2f"


def _divider_line(path):
    root = ET.parse(path).getroot()
    (line,) = [el for el in root.iter() if el.get("class") == "divider"]
    return line


def test_zvectors_divider_vertical_on_right_side(tmp_path):
    # alpha >= -beta: the certificate divider is the imaginary axis.
    out = tmp_path / "right.svg"
    emit_zvectors_svg(TiltParams(F(1, 4), F(-1, 4)), str(out))
    line = _divider_line(out)
    assert line.get("x1") == line.get("x2") == "240.000000"


def test_zvectors_divider_tilted_on_left_side(tmp_path):
    # alpha < -beta: the divider runs through Z(O[1]) instead.
    out = tmp_path / "left.svg"
    emit_zvectors_svg(TiltParams(F(1, 8), F(-3, 8)), str(out))
    line = _divider_line(out)
    assert line.get("x1") != line.get("x2")


def test_zvectors_document_structure(tmp_path):
    out = tmp_path / "z.svg"
    emit_zvectors_svg(TiltParams(F(1, 6), F(-1, 3)), str(out))
    root = ET.parse(out).getroot()
    classes = [el.get("class") for el in root.iter() if el.get("class")]
    assert classes.count("zvector") == 4
    assert classes.count("axis") == 2
    assert classes.count("divider") == 1
    assert classes.count("zlabel") == 4
    labels = {el.text for el in root.iter() if el.get("class") == "zlabel"}
    assert labels == {
        "Z(O(-1)[3])",
        "Z(S(-1)[2])",
        "Z(O[1])",
        "Z(O(1))",
    }


def test_wall_svg_document(tmp_path):
    out = tmp_path / "wall.svg"
    emit_wall_svg(
        catalog_lookup("O").ch,
        catalog_lookup("O(1)").ch,
        16,
        str(out),
        UNIT_BOX,
        ALPHA_BOX,
    )
    root = ET.parse(out).getroot()
    walls = [el for el in root.iter() if el.get("class") == "wall"]
    assert len(walls) == 42
    frames = [el for el in root.iter() if el.get("class") == "frame"]
    assert len(frames) == 1
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert "beta in [0, 1]" in texts
    assert "alpha in [0, 3/5]" in texts


# --- reference: marching squares and pixel mapping in plain Fractions -------
#
# The straightforward form of the integer pipeline in svg: every corner,
# crossing and pixel is a Fraction, and decimal6 is round() of the scaled
# Fraction.  Grid values come from poly_eval; the crossing parameter
# va / (va - vb) does not change when grid_form scales them by a positive
# constant.

_REF_CASES = {
    0: [], 15: [],
    1: [(0, 3)], 14: [(0, 3)],
    2: [(0, 1)], 13: [(0, 1)],
    4: [(1, 2)], 11: [(1, 2)],
    8: [(2, 3)], 7: [(2, 3)],
    3: [(3, 1)], 12: [(3, 1)],
    6: [(0, 2)], 9: [(0, 2)],
}


def _ref_edge_point(edge, corners, values):
    (which_a, which_b) = ((0, 1), (1, 2), (3, 2), (0, 3))[edge]
    (xa, ya), va = corners[which_a], values[which_a]
    (xb, yb), vb = corners[which_b], values[which_b]
    t = F(va, va - vb)
    return xa + t * (xb - xa), ya + t * (yb - ya)


def _ref_contour(poly, box_beta, box_alpha, grid):
    betas = [box_beta.lo + F(i, grid) * box_beta.width for i in range(grid + 1)]
    alphas = [box_alpha.lo + F(j, grid) * box_alpha.width for j in range(grid + 1)]
    values = [[poly_eval(poly, a, b) for a in alphas] for b in betas]
    segments = []
    for i in range(grid):
        for j in range(grid):
            corners = (
                (betas[i], alphas[j]),
                (betas[i + 1], alphas[j]),
                (betas[i + 1], alphas[j + 1]),
                (betas[i], alphas[j + 1]),
            )
            vals = (values[i][j], values[i + 1][j], values[i + 1][j + 1], values[i][j + 1])
            index = sum(1 << k for k in range(4) if vals[k] >= 0)
            if index in _REF_CASES:
                pairs = _REF_CASES[index]
            else:
                center = poly_eval(
                    poly, (alphas[j] + alphas[j + 1]) / 2, (betas[i] + betas[i + 1]) / 2
                )
                if index == 5:
                    pairs = [(0, 1), (2, 3)] if center >= 0 else [(0, 3), (1, 2)]
                else:
                    pairs = [(0, 3), (1, 2)] if center >= 0 else [(0, 1), (2, 3)]
            for ea, eb in pairs:
                segment = (_ref_edge_point(ea, corners, vals), _ref_edge_point(eb, corners, vals))
                # No zero-length segment, and no segment twice in either direction.
                if segment[0] != segment[1] and {segment, segment[::-1]}.isdisjoint(segments):
                    segments.append(segment)
    return segments


def _ref_decimal6(x):
    scaled = round(F(x) * 10**6)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // 10**6}.{scaled % 10**6:06d}"


def _ref_wall_lines(segments, box_beta, box_alpha):
    span = WIDTH - 2 * MARGIN

    def to_px(beta, alpha):
        x = MARGIN + (beta - box_beta.lo) / box_beta.width * span
        y = HEIGHT - MARGIN - (alpha - box_alpha.lo) / box_alpha.width * span
        return _ref_decimal6(x), _ref_decimal6(y)

    return [to_px(*p0) + to_px(*p1) for p0, p1 in segments]


_small = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def _boxes(draw, lo, hi):
    ends = draw(
        st.lists(
            st.fractions(min_value=lo, max_value=hi, max_denominator=12),
            min_size=2,
            max_size=2,
            unique=True,
        )
    )
    return RationalInterval(min(ends), max(ends))


@st.composite
def _contour_cases(draw):
    """A polynomial of bidegree up to (3, 3) that vanishes somewhere in
    its box, the box (beta may be negative) and a grid."""
    terms = draw(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), _small, min_size=1, max_size=6
        )
    )
    poly = BivariatePoly(terms)
    box_beta, box_alpha = draw(_boxes(-2, 2)), draw(_boxes(0, 2))
    t_beta, t_alpha = draw(_small), draw(_small)
    point_beta = box_beta.lo + box_beta.width * (t_beta + 3) / 6
    point_alpha = box_alpha.lo + box_alpha.width * (t_alpha + 3) / 6
    poly = poly - BivariatePoly.constant(poly_eval(poly, point_alpha, point_beta))
    return poly, box_beta, box_alpha, draw(st.integers(16, 20))


@settings(max_examples=60, deadline=None)
@given(_contour_cases())
# A saddle cell whose centre value is exactly zero.
@example(((A - F(3, 32)) * (B - F(7, 32)), UNIT_BOX, ALPHA_BOX, 16))
# Zeros on grid corners, along a grid line and along cell diagonals.
@example(((A - F(3, 80)) * (B - F(1, 4)), UNIT_BOX, ALPHA_BOX, 16))
@example((-((B - F(1, 4)) ** 2), UNIT_BOX, ALPHA_BOX, 16))
@example((-((B - F(5, 3) * A) ** 2), UNIT_BOX, ALPHA_BOX, 16))
def test_contour_matches_fraction_reference(case):
    poly, box_beta, box_alpha, grid = case
    assert wall_contour_segments(poly, box_beta, box_alpha, grid) == _ref_contour(
        poly, box_beta, box_alpha, grid
    )


_characters = st.builds(ChernCharacter, _small, _small, _small, _small)


@settings(max_examples=40, deadline=None)
@given(_characters, _characters, _boxes(-2, 2), _boxes(0, 2), st.integers(16, 20))
def test_wall_svg_pixels_match_fraction_reference(v, w, box_beta, box_alpha, grid):
    expected = _ref_wall_lines(
        _ref_contour(wall_polynomial(v, w), box_beta, box_alpha, grid), box_beta, box_alpha
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "wall.svg")
        emit_wall_svg(v, w, grid, path, box_beta, box_alpha)
        root = ET.parse(path).getroot()
    lines = [el for el in root.iter() if el.get("class") == "wall"]
    assert [tuple(el.get(k) for k in ("x1", "y1", "x2", "y2")) for el in lines] == expected
