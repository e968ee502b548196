"""Exceptional-heart dimension vectors: characters, candidates, dominance."""

from fractions import Fraction

import pytest

from tiltcert.certify import SIDE_LEFT, SIDE_RIGHT
from tiltcert.chern import ChernCharacter, catalog_lookup, shift
from tiltcert.heart import (
    BASE_VECTORS,
    DerivationError,
    DimensionVector,
    GENERATORS,
    GENERATOR_LABELS,
    ImSignFact,
    FULL_REGION,
    SKYSCRAPER_VECTOR,
    heart_ch,
    heart_z,
    reduce_candidates,
    skyscraper_candidates,
)
from tiltcert.tilt import TiltParams

F = Fraction


def test_dimension_vector_validation():
    with pytest.raises(ValueError):
        DimensionVector(-1, 0, 0, 0)
    v = DimensionVector(0, 1, 2, 1)
    assert v.as_tuple() == (0, 1, 2, 1)
    assert str(v) == "(0,1,2,1)"
    assert v.to_json() == [0, 1, 2, 1]
    assert DimensionVector.from_json([0, 1, 2, 1]) == v
    assert v + DimensionVector(1, 1, 0, 0) == DimensionVector(1, 2, 2, 1)


def test_dimension_vector_from_json_rejects_non_integers():
    for bad in (3.7, True, "2"):
        with pytest.raises(ValueError):
            DimensionVector.from_json([0, 1, bad, 1])


def test_generator_characters_are_shifted_catalog_entries():
    assert GENERATOR_LABELS == ("O(-1)[3]", "S(-1)[2]", "O[1]", "O(1)")
    assert tuple(k for _, _, k in GENERATORS) == (3, 2, 1, 0)
    chars = {label: ch for label, ch, _ in GENERATORS}
    assert chars["O(-1)[3]"] == shift(catalog_lookup("O(-1)").ch, 3)
    assert chars["S(-1)[2]"] == shift(catalog_lookup("S(-1)").ch, 2)
    assert chars["O[1]"] == shift(catalog_lookup("O").ch, 1)
    assert chars["O(1)"] == catalog_lookup("O(1)").ch
    # explicit values: odd shifts negate
    assert chars["O(-1)[3]"] == ChernCharacter(F(-1), F(1), F(-1, 2), F(1, 3))
    assert chars["O[1]"] == ChernCharacter(F(-1), F(0), F(0), F(0))
    assert chars["S(-1)[2]"] == ChernCharacter(F(2), F(-1), F(0), F(1, 6))


def test_heart_ch_skyscraper():
    assert heart_ch(SKYSCRAPER_VECTOR) == catalog_lookup("k(x)").ch
    assert heart_ch(DimensionVector(0, 0, 0, 0)) == ChernCharacter(F(0), F(0), F(0), F(0))
    # single-generator vectors give back the shifted characters
    chars = [ch for _, ch, _ in GENERATORS]
    units = (
        DimensionVector(1, 0, 0, 0),
        DimensionVector(0, 1, 0, 0),
        DimensionVector(0, 0, 1, 0),
        DimensionVector(0, 0, 0, 1),
    )
    for unit, expected in zip(units, chars):
        assert heart_ch(unit) == expected


def test_heart_ch_additive():
    v = DimensionVector(0, 1, 2, 1)
    w = DimensionVector(1, 1, 1, 0)
    assert heart_ch(v + w) == heart_ch(v) + heart_ch(w)


def test_heart_z_skyscraper_is_minus_one():
    for alpha, beta in ((F(1, 4), F(-1, 4)), (F(1, 8), F(0)), (F(1, 3), F(-1, 2))):
        z = heart_z(SKYSCRAPER_VECTOR, TiltParams(alpha, beta))
        assert (z.re, z.im) == (-1, 0)


def test_candidate_enumeration_default():
    cands = skyscraper_candidates()
    assert len(cands.vectors) == 11
    assert DimensionVector(0, 2, 4, 1) in cands.vectors
    assert DimensionVector(0, 2, 3, 1) not in cands.vectors  # implication b=2 -> c=4
    assert all(vec.a == 0 and vec.d == 1 for vec in cands.vectors)
    expected = {(0, b, c, 1) for b in (0, 1) for c in range(5)} | {(0, 2, 4, 1)}
    assert {vec.as_tuple() for vec in cands.vectors} == expected
    # lexicographic enumeration order
    assert list(cands.vectors) == sorted(cands.vectors, key=lambda v: v.as_tuple())


def test_reduce_candidates_full_coverage():
    cands = skyscraper_candidates()
    reduced = reduce_candidates(cands)
    assert set(reduced.vectors) == set(cands.vectors)
    assert set(reduced.bases) == set(BASE_VECTORS)
    for base in BASE_VECTORS:
        assert reduced.derivation[base] == "base"
    # spot-check a full-region edge and a split edge
    full_edge = reduced.derivation[DimensionVector(0, 1, 4, 1)]
    assert not isinstance(full_edge, str)
    assert any(edge.subregion == FULL_REGION for edge in full_edge)
    split = reduced.derivation[DimensionVector(0, 1, 2, 1)]
    assert {edge.subregion for edge in split} == {SIDE_LEFT, SIDE_RIGHT}


def test_reduce_candidates_edge_directions():
    reduced = reduce_candidates(skyscraper_candidates())
    # (0,0,4,1) = (0,2,4,1) minus two copies of S(-1)[2], valid everywhere
    edges = reduced.derivation[DimensionVector(0, 0, 4, 1)]
    edge = next(e for e in edges if e.subregion == FULL_REGION)
    assert edge.base == DimensionVector(0, 2, 4, 1)
    described = edge.describe()
    assert "remove 2 x S(-1)[2]" in described


def test_reduce_candidates_insufficient_facts():
    cands = skyscraper_candidates()
    with pytest.raises(DerivationError):
        reduce_candidates(cands, ())
    only_s = (ImSignFact("S(-1)[2]", FULL_REGION, "<0"),)
    with pytest.raises(DerivationError) as err:
        reduce_candidates(cands, only_s)
    assert "(0,1,1,1)" in str(err.value)


def test_reduce_candidates_with_s_fact_only_covers_s_removals():
    only_s = (ImSignFact("S(-1)[2]", FULL_REGION, "<0"),)
    covered = set()
    for vec in skyscraper_candidates().vectors:
        delta_from_bases = []
        for base in BASE_VECTORS:
            diff = tuple(x - y for x, y in zip(base.as_tuple(), vec.as_tuple()))
            delta_from_bases.append(diff)
        # derivable with only the S fact iff some base differs only in b, downward
        if any(d[0] == 0 and d[1] >= 0 and d[2] == 0 and d[3] == 0 for d in delta_from_bases):
            covered.add(vec)
    with pytest.raises(DerivationError) as err:
        reduce_candidates(skyscraper_candidates(), only_s)
    message = str(err.value)
    for vec in skyscraper_candidates().vectors:
        if vec not in covered:
            assert str(vec) in message


def test_im_sign_fact_semantics():
    fact = ImSignFact("S(-1)[2]", FULL_REGION, "<0")
    assert fact.allows_removal(SIDE_LEFT)
    assert fact.allows_removal(SIDE_RIGHT)
    assert not fact.allows_addition(SIDE_LEFT)
    right_pos = ImSignFact("O[1]", SIDE_RIGHT, ">=0")
    assert right_pos.allows_addition(SIDE_RIGHT)
    assert not right_pos.allows_addition(SIDE_LEFT)
    assert not right_pos.allows_removal(SIDE_RIGHT)
    with pytest.raises(ValueError, match="bad target"):
        ImSignFact("O[1]", SIDE_LEFT, "!=0")
    with pytest.raises(ValueError, match="bad subregion"):
        ImSignFact("O[1]", "left", "<=0")
