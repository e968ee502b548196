"""Tests of the benchmark itself: seeded corpora, the oracle, the tracer.

    python3 -m pytest bench -q
"""

import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import corpus  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from tiltcert import certify, suite  # noqa: E402
from tiltcert.kernel import BivariatePoly, poly_format  # noqa: E402

A = BivariatePoly.alpha()
B = BivariatePoly.beta()


@pytest.mark.parametrize("make", [corpus.subdivide_corpus, corpus.refute_corpus])
def test_corpus_is_a_function_of_the_seed(make):
    first = corpus.corpus_text(make(7)).encode()
    assert corpus.corpus_text(make(7)).encode() == first
    assert corpus.corpus_text(make(8)).encode() != first
    assert corpus.zvectors_point(7) == corpus.zvectors_point(7)


def test_subdivide_corpus_covers_sides_and_bidegrees():
    entries = corpus.subdivide_corpus(3)
    assert len(entries) == 27
    sides = {region.side for _, region, _ in entries}
    assert sides == {None, certify.SIDE_LEFT, certify.SIDE_RIGHT}
    degrees = set()
    for claim, region, _ in entries:
        (factor,) = claim.factors
        degrees.add((factor.expr.degree_alpha(), factor.expr.degree_beta()))
    assert degrees == {(2, 2), (3, 4), (4, 4)}


def _failed_claim():
    claim = certify.FactoredClaim(
        (certify.Factor(A - Fraction(1, 4), ">0", "affine-vertex"),), ">0"
    )
    region = certify.default_region()
    cert = certify.certify_sign(claim, region)
    assert cert.status == "failed"
    return claim, region, cert


def test_oracle_accepts_real_certificates():
    claim, region, cert = _failed_claim()
    assert oracle.check_certificate(claim, region, cert) is None
    for claim, region, depth in corpus.refute_corpus(1)[4:16]:
        cert = certify.certify_sign(claim, region, depth)
        assert oracle.check_certificate(claim, region, cert) is None


def test_oracle_rejects_doctored_certificates():
    claim, region, cert = _failed_claim()
    flipped = replace(cert, status="certified", witness=None)
    assert "violated" in oracle.check_certificate(claim, region, flipped)
    outside = replace(cert, witness=(Fraction(1, 3), Fraction(-1, 4)))  # open edge
    assert "outside" in oracle.check_certificate(claim, region, outside)
    harmless = replace(cert, witness=(Fraction(3, 10), Fraction(-1, 4)))
    assert "does not violate" in oracle.check_certificate(claim, region, harmless)
    assert "witness" in oracle.check_certificate(claim, region, replace(cert, witness=None))


def test_oracle_rejects_doctored_reports():
    report = suite.verify_all()
    region = certify.default_region()
    assert oracle.check_report(report, "certified", region, 55) is None
    failed = replace(report, status="failed")
    assert "aggregate" in oracle.check_report(failed, "certified", region)
    item = report.items[-1]
    report.items[-1] = replace(item, witness=(Fraction(1, 6), Fraction(-1, 4)))
    assert "carries a witness" in oracle.check_report(report, "certified", region)


def test_parse_poly_reads_the_canonical_form():
    for poly in (
        (A - Fraction(1, 3)) ** 3 * (B + 2) - A * B * Fraction(1, 7),
        BivariatePoly(),
        -B**4 + Fraction(5, 2),
    ):
        assert oracle.parse_poly(poly_format(poly)) == poly.terms


def test_svg_segments_rejects_broken_documents():
    assert oracle.svg_segments(b'<svg><line class="wall"/><line/></svg>') == 1
    with pytest.raises(oracle.ET.ParseError):
        oracle.svg_segments(b"<svg><line></svg>")


def test_tracer_restores_every_patched_name():
    before = [tracing.current(owner, attr) for _, owner, attr in tracing.targets()]
    claim, region, _ = _failed_claim()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert certify.bernstein_coefficients is not before[0]
        certify.certify_sign(claim, region)
    after = [tracing.current(owner, attr) for _, owner, attr in tracing.targets()]
    assert all(a is b for a, b in zip(after, before))
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("boom")
    after = [tracing.current(owner, attr) for _, owner, attr in tracing.targets()]
    assert all(a is b for a, b in zip(after, before))


def test_tracer_self_time_excludes_children():
    claim, region, depth = corpus.subdivide_corpus(1)[0]
    tracer = tracing.Tracer()
    with tracer.installed():
        cert = certify.certify_sign(claim, region, depth)
    by_name, children = tracer.summary()
    assert by_name["certify.sign"]["calls"] == 1
    assert by_name["certify.box"]["calls"] == cert.boxes
    assert tracer.results["certify.sign"] == [(cert.status, cert.boxes, cert.depth)]
    sign = by_name["certify.sign"]
    assert 0 <= sign["self_ns"] < sign["total_ns"]
    assert children[("kernel.bernstein", "certify.box")] == by_name["kernel.bernstein"]["calls"]
    assert tracer.span_count() == sum(row["calls"] for row in by_name.values())
