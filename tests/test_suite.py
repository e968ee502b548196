"""Tests for the end-to-end verification suite.

Covers the default full run (every item certified), the report schema and
its byte-for-byte determinism, the recorded table-entry discrepancy, note
plumbing, sensitivity to injected wrong references, and the two degraded
modes: max_depth = 0 (inconclusive, never falsely failed) and a widened
region (failed, with concrete witnesses).
"""

import hashlib
import json
from fractions import Fraction as F

import pytest

from tiltcert import suite
from tiltcert.certify import Region, certify_sign, default_region, SIDE_LEFT, SIDE_RIGHT
from tiltcert.chern import DEGREE, line_bundle_ch
from tiltcert.kernel import (
    BivariatePoly,
    RationalInterval,
    format_rational,
    parse_rational,
    poly_eval,
    poly_format,
)
from tiltcert.heart import BASE_VECTORS, GENERATORS
from tiltcert.tilt import TiltParams, bg_margin, twisted_ch_polynomials, z_polynomials
from tiltcert.suite import (
    _certifier,
    _mu_sign_items,
    REFERENCE_TABLE_IM,
    REFERENCE_TWISTED,
    REFERENCE_Z,
    Report,
    ReportItem,
    verify_all,
    verify_half_plane,
    verify_lemma_computation,
    verify_skyscraper_condition,
)

A = BivariatePoly.alpha()
B = BivariatePoly.beta()


def C(x):
    return BivariatePoly.constant(F(x))


EXPECTED_NAMES = [
    "resolution alternating sum",
    "spinor sequence sum",
    "twisted-ch O(-1)",
    "twisted-ch O",
    "twisted-ch O(1)",
    "twisted-ch S(-1)",
    "mu O(-1)",
    "nu O(-1)",
    "mu O",
    "nu O",
    "mu O(1)",
    "nu O(1)",
    "mu S(-1)",
    "nu S(-1)",
    "Z O(-1) real part",
    "Z O(-1) imaginary part",
    "Z O real part",
    "Z O imaginary part",
    "Z O(1) real part",
    "Z O(1) imaginary part",
    "Z S(-1) real part",
    "Z S(-1) imaginary part",
    "half-plane A re O(1)",
    "half-plane A re O[1]",
    "half-plane A re S(-1)[2]",
    "half-plane A re O(-1)[3]",
    "half-plane B cross O(1)",
    "half-plane B axis O[1]",
    "half-plane B cross S(-1)[2]",
    "half-plane B cross O(-1)[3]",
    "half-plane B factorisation",
    "im sign S(-1)[2]",
    "im sign O[1] alpha<=-beta",
    "im sign O[1] alpha>=-beta",
    "skyscraper base (0,2,4,1)",
    "skyscraper base (0,1,0,1)",
    "skyscraper table (0,2,4,1)",
    "skyscraper table (0,1,0,1)",
    "skyscraper derivation coverage",
    "skyscraper direct (0,0,0,1)",
    "skyscraper direct (0,0,1,1)",
    "skyscraper direct (0,0,2,1)",
    "skyscraper direct (0,0,3,1)",
    "skyscraper direct (0,0,4,1)",
    "skyscraper direct (0,1,0,1)",
    "skyscraper direct (0,1,1,1)",
    "skyscraper direct (0,1,2,1)",
    "skyscraper direct (0,1,3,1)",
    "skyscraper direct (0,1,4,1)",
    "skyscraper direct (0,2,4,1)",
    "mu sign S(-1)",
    "mu sign O",
    "mu sign O(-1)",
    "mu sign O(1)",
    "bg line-bundle equality",
]


def _by_name(items):
    return {item.name: item for item in items}


def test_default_run_everything_certified():
    report = verify_all()
    assert report.status == "certified"
    assert [item.name for item in report.items] == EXPECTED_NAMES
    assert all(item.status == "certified" for item in report.items)
    # on the honest region, no item ever needs a witness
    assert all(item.witness is None for item in report.items)


def test_layer_reports_standalone():
    region = default_region()
    for items, count in (
        (verify_lemma_computation(), 20),
        (verify_half_plane(_certifier(region, 16)), 9),
        (verify_skyscraper_condition(_certifier(region, 16)), 19),
    ):
        assert len(items) == count and all(item.status == "certified" for item in items)


def test_report_json_schema():
    report = verify_all()
    payload = json.loads(report.to_json())
    assert set(payload) == {"status", "items"}
    assert payload["status"] == "certified"
    assert len(payload["items"]) == 55
    for entry in payload["items"]:
        assert set(entry) == {
            "name",
            "status",
            "factors",
            "witness",
            "boxes",
            "depth",
            "notes",
        }
        assert entry["witness"] is None
        assert isinstance(entry["boxes"], int) and isinstance(entry["depth"], int)
        # The item carries the certificate; a factor is only the claim.
        assert all(set(factor) == {"expr", "target"} for factor in entry["factors"])


def test_report_json_deterministic():
    first = verify_all().to_json()
    second = verify_all().to_json()
    assert first == second


# A caller's sided region is kept for the items that name no side of their
# own (the mu signs, the skyscraper direct and base items).
SIDED_REPORT_BYTES = [
    (SIDE_LEFT, "0f8e67d643f9cdf689beaf4addefddd3f91a1bfdc66a9e034b9e61aa4c93d234"),
    (SIDE_RIGHT, "89489cf6b3045d28d09da1a14ccf2bb26c4256586b8df78c5d4ab1c07c2d4e2f"),
]


@pytest.mark.parametrize("side, digest", SIDED_REPORT_BYTES)
def test_sided_region_report_bytes_are_pinned(side, digest):
    text = verify_all(region=default_region(side)).to_json() + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_table_discrepancy_recorded_not_failed():
    # the quoted Im entry for (0,1,0,1) disagrees with the additivity result;
    # the run stays certified but the difference is written into the notes.
    items = _by_name(verify_all().items)
    table = items["skyscraper table (0,1,0,1)"]
    assert table.status == "certified"
    assert table.notes == [
        "quoted table entry 3*a^3 - 3*a*b^2 + a differs from additivity "
        "result -3*a^3 + 3*a*b^2 + a; both are positive on the region"
    ]
    base = items["skyscraper base (0,1,0,1)"]
    assert base.notes == [
        "Im form derived by additivity, not the quoted table entry"
    ]
    # the quoted and additive forms really differ yet share their sign at a
    # sample point, exactly as the note claims
    quoted = REFERENCE_TABLE_IM[(0, 1, 0, 1)]
    additive = A * (C(1) + 3 * (B**2 - A**2))
    a0, b0 = F(1, 8), F(-1, 4)
    assert poly_eval(quoted, a0, b0) != poly_eval(additive, a0, b0)
    assert poly_eval(quoted, a0, b0) > 0 and poly_eval(additive, a0, b0) > 0
    # the matching entry carries no such note
    assert items["skyscraper table (0,2,4,1)"].notes == []


def _perturb_z(monkeypatch, label):
    # Lower Re Z(label), as the suite reads it, by a^3/100: case A's claims
    # still hold, and every r gains a^4/100 or nothing.  tilt's own
    # z_polynomials, which cross_polynomial calls, is untouched.
    target = GENERATORS[label]

    def perturbed(v, s):
        re, im = z_polynomials(v, s)
        return (re - A**3 * F(1, 100), im) if v == target else (re, im)

    monkeypatch.setattr(suite, "z_polynomials", perturbed)


def test_half_plane_axis_fails_on_perturbed_o_shift_charge(monkeypatch):
    _perturb_z(monkeypatch, "O[1]")
    items = verify_half_plane(_certifier(default_region(), 16))
    failed = [item.name for item in items if item.status == "failed"]
    assert failed == ["half-plane B axis O[1]"]


def test_half_plane_factorisation_fails_on_perturbed_o1_charge(monkeypatch):
    # The perturbed r of O(1) still certifies on alpha <= -beta, but it is no
    # longer the cofactor of the real cross product.
    _perturb_z(monkeypatch, "O(1)")
    items = _by_name(verify_half_plane(_certifier(default_region(), 16)))
    assert items["half-plane B cross O(1)"].status == "certified"
    factorisation = items["half-plane B factorisation"]
    assert factorisation.status == "failed"
    assert factorisation.notes == [
        "cross O[1] x O(1) is not (a^2 - b^2) times the certified r"
    ]


def test_mu_sign_and_bg_notes():
    items = _by_name(verify_all().items)
    assert (
        "mu(O) = -beta/alpha is nonnegative on beta <= 0"
        in items["mu sign O"].notes
    )
    assert items["bg line-bundle equality"].notes == [
        "margin s*d*(n-beta)^2*ch1 - ch3 of O(n) is 0 in Q[n, beta]"
    ]


def _bg_failure_point(note):
    # "margin X at n=N, beta=B" -> (X, N, B)
    head, point = note.split(" at ")
    n_text, beta_text = point.split(", ")
    return (
        parse_rational(head.removeprefix("margin ")),
        int(n_text.removeprefix("n=")),
        parse_rational(beta_text.removeprefix("beta=")),
    )


def test_bg_item_fails_on_wrong_s(monkeypatch):
    monkeypatch.setattr(suite, "S_DEFAULT", F(1, 5))
    report = verify_all()
    item = _by_name(report.items)["bg line-bundle equality"]
    assert item.status == "failed" and report.status == "failed"
    value, n, beta = _bg_failure_point(item.notes[0])
    margin = bg_margin(line_bundle_ch(n), TiltParams(abs(n - beta), beta, F(1, 5)))
    assert margin == value != 0
    assert item.notes[2] == f"bg_margin (pointwise chern.twist) reads {format_rational(value)} there"


def test_bg_item_fails_on_perturbed_twisted_ch3(monkeypatch):
    # A fault in the ch2 term of the twisted ch3: invisible on O, whose ch2
    # is 0, so only a check that carries O(n) for every n can see it.
    def perturbed(v):
        t0, t1, t2, t3 = twisted_ch_polynomials(v)
        return t0, t1, t2, t3 - B * v.ch2

    monkeypatch.setattr(suite, "twisted_ch_polynomials", perturbed)
    report = verify_all()
    item = _by_name(report.items)["bg line-bundle equality"]
    assert item.status == "failed" and report.status == "failed"
    value, n, beta = _bg_failure_point(item.notes[0])
    _, t1, _, t3 = perturbed(line_bundle_ch(n))
    alpha_squared = (n - beta) ** 2
    s_d = F(1, 6) * DEGREE
    margin = s_d * alpha_squared * poly_eval(t1, 0, beta) - poly_eval(t3, 0, beta)
    assert margin == value != 0
    # The pointwise path (chern.twist) is untouched, so it still reads 0.
    assert bg_margin(line_bundle_ch(n), TiltParams(abs(n - beta), beta)) == 0
    assert item.notes[2] == "bg_margin (pointwise chern.twist) reads 0 there"


def test_derivation_coverage_notes_all_eleven():
    item = _by_name(verify_all().items)["skyscraper derivation coverage"]
    assert item.status == "certified"
    assert len(item.notes) == 11
    prefixes = sorted(note.split(":")[0] for note in item.notes)
    assert prefixes == sorted(
        [
            "(0,0,0,1)",
            "(0,0,1,1)",
            "(0,0,2,1)",
            "(0,0,3,1)",
            "(0,0,4,1)",
            "(0,1,0,1)",
            "(0,1,1,1)",
            "(0,1,2,1)",
            "(0,1,3,1)",
            "(0,1,4,1)",
            "(0,2,4,1)",
        ]
    )
    assert "(0,1,0,1): base" in item.notes
    assert "(0,2,4,1): base" in item.notes
    assert (
        "(0,0,4,1): (0,2,4,1) [remove 2 x S(-1)[2]] on full" in item.notes
    )


def test_wrong_z_reference_fails_named_item(monkeypatch):
    re_ref, im_ref = REFERENCE_Z["S(-1)"]
    monkeypatch.setitem(REFERENCE_Z, "S(-1)", (re_ref + C(F(1, 7)), im_ref))
    report = verify_all()
    assert report.status == "failed"
    items = _by_name(report.items)
    assert items["Z S(-1) real part"].status == "failed"
    assert items["Z S(-1) imaginary part"].status == "certified"
    untouched = [
        item
        for item in report.items
        if item.name != "Z S(-1) real part"
    ]
    assert all(item.status == "certified" for item in untouched)


def test_wrong_twisted_reference_names_component(monkeypatch):
    t0, t1, t2, t3 = REFERENCE_TWISTED["O"]
    monkeypatch.setitem(REFERENCE_TWISTED, "O", (t0, t1, t2 + C(F(1, 5)), t3))
    items = _by_name(verify_lemma_computation())
    bad = items["twisted-ch O"]
    assert bad.status == "failed"
    assert bad.notes == ["component ch2 differs"]
    assert items["twisted-ch S(-1)"].status == "certified"


def test_wrong_table_reference_fails_table_item(monkeypatch):
    quoted = REFERENCE_TABLE_IM[(0, 2, 4, 1)]
    monkeypatch.setitem(REFERENCE_TABLE_IM, (0, 2, 4, 1), quoted + A)
    items = _by_name(verify_skyscraper_condition(_certifier(default_region(), 16)))
    assert items["skyscraper table (0,2,4,1)"].status == "failed"


def test_max_depth_zero_inconclusive_never_failed():
    report = verify_all(max_depth=0)
    assert report.status == "inconclusive"
    statuses = {item.status for item in report.items}
    assert "failed" not in statuses
    items = _by_name(report.items)
    coverage = items["skyscraper derivation coverage"]
    assert coverage.status == "inconclusive"
    assert any(
        note.startswith("sign fact not established:") for note in coverage.notes
    )
    # subdivision-dependent items report why they could not finish
    sliced = items["im sign S(-1)[2]"]
    assert sliced.status == "inconclusive"
    assert any("subdivision disabled" in note for note in sliced.notes)


def _widened_region():
    return Region(
        beta=RationalInterval(F(-1, 2), F(1, 2)),
        alpha=RationalInterval(F(0), F(1, 3)),
        beta_open=(False, False),
        alpha_open=(True, True),
    )


def test_widened_region_fails_with_witnesses():
    report = verify_all(region=_widened_region())
    assert report.status == "failed"
    failed = [item for item in report.items if item.status == "failed"]
    assert failed
    for item in failed:
        assert item.witness is not None
        alpha, beta = item.witness
        assert _widened_region().contains(alpha, beta)
    by_name = _by_name(report.items)
    assert by_name["half-plane A re O[1]"].status == "failed"
    # the witness round-trips through JSON as exact strings
    payload = json.loads(report.to_json())
    entry = next(
        e for e in payload["items"] if e["name"] == "half-plane A re O[1]"
    )
    assert set(entry["witness"]) == {"alpha", "beta"}
    assert F(entry["witness"]["alpha"]) > 0


def test_each_claim_is_certified_once(monkeypatch):
    # The two base vectors are skyscraper candidates too: their items reuse
    # the direct certificates, so no (claim, region) pair is certified twice.
    calls = []

    def spy(claim, region, max_depth):
        calls.append((claim, region))
        return certify_sign(claim, region, max_depth)

    monkeypatch.setattr(suite, "certify_sign", spy)
    verify_all()
    assert len(calls) == 25
    assert len(set(calls)) == len(calls)


def test_every_claim_goes_through_the_run_certifier():
    # The three certifying sections name each claim to the certifier they
    # are given: 27 claims, in report order, holding 25 distinct
    # (poly, sign, side) keys, since each base vector is a candidate too.
    claims = []

    def record(name, poly, sign, side=None, notes=()):
        claims.append((name, poly_format(poly), sign, side))
        return ReportItem(name, "certified", [{"expr": poly_format(poly), "target": sign}])

    for section in (verify_half_plane, verify_skyscraper_condition, _mu_sign_items):
        section(record)
    certified = [(item.name, item.factors) for item in verify_all().items if item.factors]
    assert len(claims) == 27
    named = [(name, [{"expr": expr, "target": sign}]) for name, expr, sign, _ in claims]
    assert named == certified
    assert len({(expr, sign, side) for _, expr, sign, side in claims}) == 25


def test_skyscraper_base_items_are_their_direct_certificates():
    # Both base vectors certify on the default and the widened region, and
    # both fail with a witness once alpha reaches 3/5.
    wide_alpha = Region(
        beta=RationalInterval(F(-1, 2), F(0)),
        alpha=RationalInterval(F(0), F(3, 5)),
        alpha_open=(True, True),
    )
    for region in (default_region(), _widened_region(), wide_alpha):
        items = _by_name(verify_skyscraper_condition(_certifier(region, 16)))
        for v in BASE_VECTORS:
            base, direct = items[f"skyscraper base {v}"], items[f"skyscraper direct {v}"]
            assert (base.status, base.witness, base.boxes, base.depth, base.factors) == (
                direct.status, direct.witness, direct.boxes, direct.depth, direct.factors
            )
            assert base.notes[len(base.notes) - len(direct.notes) :] == direct.notes
    assert all(items[f"skyscraper base {v}"].witness for v in BASE_VECTORS)


def test_alpha_margin_of_the_proof():
    # The proof holds on alpha < 1/2 as well as on the working alpha < 1/3.
    # Up to 3/5, seven items fail: five with witnesses on beta = -1/2, and
    # both (0,1,0,1) items.
    def region(alpha_hi):
        return Region(
            beta=RationalInterval(F(-1, 2), F(0)),
            alpha=RationalInterval(F(0), alpha_hi),
            alpha_open=(True, True),
        )

    assert verify_all(region=region(F(1, 2))).status == "certified"
    report = verify_all(region=region(F(3, 5)))
    assert report.status == "failed"
    assert {
        item.name: (item.status, item.witness)
        for item in report.items
        if item.status != "certified"
    } == {
        "half-plane A re S(-1)[2]": ("failed", (F(1, 2), F(-1, 2))),
        "half-plane A re O(-1)[3]": ("failed", (F(1, 2), F(-1, 2))),
        "half-plane B cross O(-1)[3]": ("failed", (F(1, 2), F(-1, 2))),
        "skyscraper base (0,2,4,1)": ("failed", (F(21, 40), F(-1, 2))),
        "skyscraper direct (0,2,4,1)": ("failed", (F(21, 40), F(-1, 2))),
        "skyscraper base (0,1,0,1)": ("failed", (F(93, 160), F(-1, 16))),
        "skyscraper direct (0,1,0,1)": ("failed", (F(93, 160), F(-1, 16))),
    }


def test_coverage_falls_back_on_the_direct_certificates():
    # On this region two sign facts fail, so the derivation falls short,
    # yet every candidate certifies directly: coverage is certified.
    region = Region(
        beta=RationalInterval(F(-1, 2), F(1, 4)),
        alpha=RationalInterval(F(0), F(1, 3)),
        alpha_open=(True, True),
    )
    items = _by_name(verify_skyscraper_condition(_certifier(region, 16)))
    assert items["im sign S(-1)[2]"].status == "failed"
    assert items["im sign O[1] alpha>=-beta"].status == "failed"
    direct = [item for name, item in items.items() if name.startswith("skyscraper direct")]
    assert len(direct) == 11
    assert all(item.status == "certified" for item in direct)
    coverage = items["skyscraper derivation coverage"]
    assert (coverage.status, coverage.witness) == ("certified", None)
    assert coverage.notes[0].startswith("sign facts do not cover:")
    assert coverage.notes[1:] == [
        "sign fact not established: im sign S(-1)[2]",
        "sign fact not established: im sign O[1] alpha>=-beta",
        "decided by the 11 skyscraper direct certificates",
    ]
    # On the widened region some candidates fail directly: coverage fails
    # with the first failed direct certificate's witness.
    coverage = _by_name(verify_skyscraper_condition(_certifier(_widened_region(), 16)))[
        "skyscraper derivation coverage"
    ]
    assert (coverage.status, coverage.witness) == ("failed", (F(1, 6), F(1, 2)))


def test_report_structures_round_trip():
    item = ReportItem(
        name="example",
        status="failed",
        factors=[],
        witness=(F(1, 6), F(-1, 4)),
        boxes=3,
        depth=2,
        notes=["note"],
    )
    payload = item.to_json_dict()
    assert payload["witness"] == {"alpha": "1/6", "beta": "-1/4"}
    report = Report("failed", [item])
    decoded = json.loads(report.to_json())
    assert decoded["status"] == "failed"
    assert decoded["items"][0]["boxes"] == 3
