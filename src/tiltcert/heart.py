"""The exceptional-collection heart as dimension vectors.

The heart is generated by O(-1)[3], S(-1)[2], O[1], O(1); an object is
recorded by its multiplicity vector, an int 4-tuple (a, b, c, d) against
those simple generators; heart_ch, a typed lru_cache of at most 64
results, gives its character and refuses any other vector, so a float or a
Fraction multiplicity is never cached.  This module enumerates the subobject
candidates for the skyscraper vector (1, 2, 4, 1) and reduces them to the
two base cases via Im Z dominance.  A sign fact is a row
(generator, side, sign), with side None for the whole region.  The
reduction is text: one "vec: base" or "vec: edge[; edge]" line per
candidate, where an edge reads "base [remove n x G, add m x H] on full"
or "... on <side>".
"""

from functools import lru_cache

from .certify import SIDE_LEFT, SIDE_RIGHT, SIDE_SIGNS, sign_parts
from .chern import CATALOG, ChernCharacter, shift


# Label -> character of the shifted object for each heart generator, in
# heart order, from the catalog objects that carry a heart shift.
GENERATORS = {
    obj.label + (f"[{obj.heart_shift}]" if obj.heart_shift else ""): shift(obj.ch, obj.heart_shift)
    for obj in CATALOG
    if obj.heart_shift is not None
}

SKYSCRAPER_VECTOR = (1, 2, 4, 1)
BASE_VECTORS = ((0, 2, 4, 1), (0, 1, 0, 1))


def vector_text(v):
    """The vector as "(a,b,c,d)"."""
    return "(" + ",".join(map(str, v)) + ")"


@lru_cache(maxsize=64, typed=True)
def heart_ch(v):
    """Additive extension: -a*ch(O(-1)) + b*ch(S(-1)) - c*ch(O) + d*ch(O(1)).
    Raises TypeError unless v is four ints."""
    if [type(m) for m in v] != [int] * 4:
        raise TypeError(f"not a vector of four ints: {v!r}")
    return sum((m * ch for m, ch in zip(v, GENERATORS.values())), ChernCharacter(0, 0, 0, 0))


# --- candidate enumeration ---------------------------------------------------


class DerivationError(ValueError):
    """The supplied sign facts do not cover every candidate on every side."""


def skyscraper_candidates():
    """The proper-subobject dimension vectors of SKYSCRAPER_VECTOR, in
    lexicographic order: a = 0, d = 1, and c = 4 whenever b = 2."""
    _, b_max, c_max, _ = SKYSCRAPER_VECTOR
    return tuple(
        (0, b, c, 1) for b in range(b_max + 1) for c in range(c_max + 1) if b != 2 or c == 4
    )


# Certified signs of Im Z, one (generator, side, sign) row each; side None
# is the whole region.
DEFAULT_SIGN_FACTS = (
    ("S(-1)[2]", None, "<0"),
    ("O[1]", SIDE_LEFT, "<=0"),
    ("O[1]", SIDE_RIGHT, ">=0"),
)


def _edge(vec, side, facts):
    """The dominance edge from the first base that reaches vec on `side`
    (None for the whole region), as text, or None.

    Removing a generator with Im Z <= 0 (or adding one with Im Z >= 0)
    cannot decrease Im Z, so positivity at the base propagates to vec.
    The edge ends "on full" for the whole region and "on <side>" otherwise.
    """
    for base in BASE_VECTORS:
        moves = [(label, x - y) for label, x, y in zip(GENERATORS, vec, base) if x != y]
        if all(
            any(
                g == label and s in (None, side) and sign_parts(sign)[0] * change > 0
                for g, s, sign in facts
            )
            for label, change in moves
        ):
            text = ", ".join(
                f"add {change} x {label}" if change > 0 else f"remove {-change} x {label}"
                for label, change in moves
            )
            return f"{vector_text(base)} [{text}] on {side or 'full'}"
    return None


def reduce_candidates(vectors, sign_facts=DEFAULT_SIGN_FACTS):
    """Derive every candidate vector from the base set {(0,2,4,1), (0,1,0,1)}
    by the (generator, side, sign) rows in `sign_facts`.

    Returns one line per vector, in order: "vec: base" for a base vector,
    "vec: edge" for one edge valid on the full region, or
    "vec: left edge; right edge" for one edge per side of the
    alpha = -beta split.  Raises DerivationError when the supplied facts
    leave a (vector, side) pair underived.
    """
    lines = []
    missing = []
    for vec in vectors:
        text = vector_text(vec)
        if vec in BASE_VECTORS:
            lines.append(f"{text}: base")
            continue
        edge = _edge(vec, None, sign_facts)
        if edge is not None:
            lines.append(f"{text}: {edge}")
            continue
        edges = []
        for side in SIDE_SIGNS:
            edge = _edge(vec, side, sign_facts)
            if edge is None:
                missing.append(f"{text} on {side}")
            else:
                edges.append(edge)
        lines.append(f"{text}: " + "; ".join(edges))
    if missing:
        raise DerivationError(f"sign facts do not cover: {'; '.join(missing)}")
    return lines
