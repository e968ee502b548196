"""Exceptional-heart dimension vectors: characters, candidates, dominance."""

from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiltcert.certify import SIDE_LEFT, SIDE_RIGHT, sign_parts
from tiltcert.chern import ChernCharacter, catalog_lookup, quadric_catalog, shift
from tiltcert.heart import (
    BASE_VECTORS,
    DEFAULT_SIGN_FACTS,
    DerivationError,
    DimensionVector,
    GENERATORS,
    ImSignFact,
    FULL_REGION,
    SKYSCRAPER_VECTOR,
    heart_ch,
    reduce_candidates,
    skyscraper_candidates,
)
from tiltcert.tilt import TiltParams, central_charge

F = Fraction


def test_dimension_vector_validation():
    with pytest.raises(ValueError):
        DimensionVector(-1, 0, 0, 0)
    v = DimensionVector(0, 1, 2, 1)
    assert v.as_tuple() == (0, 1, 2, 1)
    assert str(v) == "(0,1,2,1)"


def test_dimension_vector_rejects_non_integers():
    for bad in (3.7, True, "2"):
        with pytest.raises(ValueError):
            DimensionVector(0, 1, bad, 1)


def test_generator_characters_are_shifted_catalog_entries():
    assert tuple(GENERATORS) == ("O(-1)[3]", "S(-1)[2]", "O[1]", "O(1)")
    shifts = [(o.label, o.heart_shift) for o in quadric_catalog() if o.heart_shift is not None]
    assert shifts == [("O(-1)", 3), ("S(-1)", 2), ("O", 1), ("O(1)", 0)]
    assert GENERATORS["O(-1)[3]"] == shift(catalog_lookup("O(-1)").ch, 3)
    assert GENERATORS["S(-1)[2]"] == shift(catalog_lookup("S(-1)").ch, 2)
    assert GENERATORS["O[1]"] == shift(catalog_lookup("O").ch, 1)
    assert GENERATORS["O(1)"] == catalog_lookup("O(1)").ch
    # explicit values: odd shifts negate
    assert GENERATORS["O(-1)[3]"] == ChernCharacter(F(-1), F(1), F(-1, 2), F(1, 3))
    assert GENERATORS["O[1]"] == ChernCharacter(F(-1), F(0), F(0), F(0))
    assert GENERATORS["S(-1)[2]"] == ChernCharacter(F(2), F(-1), F(0), F(1, 6))


def test_heart_ch_skyscraper():
    assert heart_ch(SKYSCRAPER_VECTOR) == catalog_lookup("k(x)").ch
    assert heart_ch(DimensionVector(0, 0, 0, 0)) == ChernCharacter(F(0), F(0), F(0), F(0))
    # single-generator vectors give back the shifted characters
    chars = list(GENERATORS.values())
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
    total = DimensionVector(*(x + y for x, y in zip(v.as_tuple(), w.as_tuple())))
    assert total == DimensionVector(1, 2, 3, 1)
    assert heart_ch(total) == heart_ch(v) + heart_ch(w)


def test_skyscraper_central_charge_is_minus_one():
    for alpha, beta in ((F(1, 4), F(-1, 4)), (F(1, 8), F(0)), (F(1, 3), F(-1, 2))):
        assert central_charge(heart_ch(SKYSCRAPER_VECTOR), TiltParams(alpha, beta)) == (-1, 0)


def test_candidate_enumeration_default():
    cands = skyscraper_candidates()
    assert type(cands) is tuple
    assert len(cands) == 11
    assert all(type(vec) is DimensionVector for vec in cands)
    assert DimensionVector(0, 2, 4, 1) in cands
    assert DimensionVector(0, 2, 3, 1) not in cands  # implication b=2 -> c=4
    assert all(vec.a == 0 and vec.d == 1 for vec in cands)
    expected = {(0, b, c, 1) for b in (0, 1) for c in range(5)} | {(0, 2, 4, 1)}
    assert {vec.as_tuple() for vec in cands} == expected
    # lexicographic enumeration order
    assert list(cands) == sorted(cands, key=lambda v: v.as_tuple())


def _line_edges(line):
    """(vector text, [edge texts]) of one derivation line."""
    vec, _, how = line.partition(": ")
    return vec, how.split("; ")


def test_reduce_candidates_full_coverage():
    cands = skyscraper_candidates()
    lines = reduce_candidates(cands)
    assert [_line_edges(line)[0] for line in lines] == [str(vec) for vec in cands]
    assert {line for line in lines if line.endswith(": base")} == {
        f"{base}: base" for base in BASE_VECTORS
    }
    # spot-check a full-region edge and a split edge
    by_vec = dict(_line_edges(line) for line in lines)
    full_edge = by_vec["(0,1,4,1)"]
    assert len(full_edge) == 1 and full_edge[0].endswith(f" on {FULL_REGION}")
    split = by_vec["(0,1,2,1)"]
    assert [edge.rsplit(" on ", 1)[1] for edge in split] == [SIDE_LEFT, SIDE_RIGHT]


def test_reduce_candidates_edge_directions():
    lines = reduce_candidates(skyscraper_candidates())
    # (0,0,4,1) = (0,2,4,1) minus two copies of S(-1)[2], valid everywhere
    assert "(0,0,4,1): (0,2,4,1) [remove 2 x S(-1)[2]] on full" in lines
    assert (
        "(0,1,1,1): (0,2,4,1) [remove 1 x S(-1)[2], remove 3 x O[1]] on alpha<=-beta; "
        "(0,1,0,1) [add 1 x O[1]] on alpha>=-beta"
    ) in lines


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
    for vec in skyscraper_candidates():
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
    for vec in skyscraper_candidates():
        if vec not in covered:
            assert str(vec) in message


def test_im_sign_fact_semantics():
    fact = ImSignFact("S(-1)[2]", FULL_REGION, "<0")
    assert fact.allows(-1, SIDE_LEFT)
    assert fact.allows(-2, SIDE_RIGHT)
    assert fact.allows(-1, FULL_REGION)
    assert not fact.allows(1, SIDE_LEFT)
    right_pos = ImSignFact("O[1]", SIDE_RIGHT, ">=0")
    assert right_pos.allows(3, SIDE_RIGHT)
    assert not right_pos.allows(1, SIDE_LEFT)
    assert not right_pos.allows(1, FULL_REGION)
    assert not right_pos.allows(-1, SIDE_RIGHT)
    with pytest.raises(ValueError, match="bad target"):
        ImSignFact("O[1]", SIDE_LEFT, "!=0")
    with pytest.raises(ValueError, match="bad subregion"):
        ImSignFact("O[1]", "left", "<=0")
    with pytest.raises(ValueError, match="bad generator"):
        ImSignFact("O[2]", FULL_REGION, "<0")


# --- the derivation against a copy of its earlier record-based form ----------


@dataclass(frozen=True)
class _RefEdge:
    base: DimensionVector
    delta: tuple
    subregion: str

    def describe(self):
        moves = []
        for label, change in zip(GENERATORS, self.delta):
            if change > 0:
                moves.append(f"add {change} x {label}")
            elif change < 0:
                moves.append(f"remove {-change} x {label}")
        action = ", ".join(moves) if moves else "identity"
        return f"{self.base} [{action}] on {self.subregion}"


def _ref_allows(label, change, subregion, facts):
    def applies(f):
        return f.generator == label and f.subregion in (FULL_REGION, subregion)

    if change < 0:
        return any(applies(f) and sign_parts(f.sign)[0] < 0 for f in facts)
    return any(applies(f) and sign_parts(f.sign)[0] > 0 for f in facts)


def _ref_edge_for(vec, subregion, facts):
    for base in BASE_VECTORS:
        delta = tuple(x - y for x, y in zip(vec.as_tuple(), base.as_tuple()))
        if all(
            _ref_allows(label, change, subregion, facts)
            for label, change in zip(GENERATORS, delta)
            if change
        ):
            return _RefEdge(base=base, delta=delta, subregion=subregion)
    return None


def _ref_reduce(vectors, facts):
    """Derivation lines as the per-edge records built them."""
    derivation = {}
    missing = []
    for vec in vectors:
        if vec in BASE_VECTORS:
            derivation[vec] = "base"
            continue
        full_edge = _ref_edge_for(vec, FULL_REGION, facts)
        if full_edge is not None:
            derivation[vec] = (full_edge,)
            continue
        edges = []
        for subregion in (SIDE_LEFT, SIDE_RIGHT):
            edge = _ref_edge_for(vec, subregion, facts)
            if edge is None:
                missing.append((vec, subregion))
            else:
                edges.append(edge)
        derivation[vec] = tuple(edges)
    if missing:
        gaps = "; ".join(f"{vec} on {side}" for vec, side in missing)
        raise DerivationError(f"sign facts do not cover: {gaps}")
    lines = []
    for vec in vectors:
        how = derivation[vec]
        text = "base" if how == "base" else "; ".join(edge.describe() for edge in how)
        lines.append(f"{vec}: {text}")
    return lines


ALL_FACTS = tuple(
    ImSignFact(label, subregion, sign)
    for label in GENERATORS
    for subregion in (FULL_REGION, SIDE_LEFT, SIDE_RIGHT)
    for sign in ("<0", "<=0", ">0", ">=0")
)


def _outcome(reduce, facts):
    try:
        return "lines", reduce(skyscraper_candidates(), facts)
    except DerivationError as err:
        return "error", str(err)


# Short fact lists mostly leave gaps (the error text is compared); a coin
# flip per fact mostly covers every candidate (the lines are compared).
fact_subsets = st.one_of(
    st.lists(st.sampled_from(ALL_FACTS), unique=True),
    st.lists(st.booleans(), min_size=48, max_size=48).map(
        lambda keep: [fact for fact, kept in zip(ALL_FACTS, keep) if kept]
    ),
).map(tuple)


@settings(max_examples=300, deadline=None)
@given(fact_subsets)
@example(())
@example(DEFAULT_SIGN_FACTS)
def test_reduce_candidates_matches_record_based_reference(facts):
    assert _outcome(reduce_candidates, facts) == _outcome(_ref_reduce, facts)
