"""The exceptional-collection heart as dimension vectors.

The heart is generated by O(-1)[3], S(-1)[2], O[1], O(1); an object is
recorded by its multiplicity vector (a, b, c, d) against those simple
generators.  This module enumerates the subobject candidates for the
skyscraper vector (1, 2, 4, 1) and reduces them to the two base cases
via Im Z dominance.  The reduction is text: one "vec: base" or
"vec: edge[; edge]" line per candidate, where an edge reads
"base [remove n x G, add m x H] on subregion".
"""

from dataclasses import dataclass

from .certify import SIDE_LEFT, SIDE_RIGHT, SIDE_SIGNS, sign_parts
from .chern import ChernCharacter, quadric_catalog, shift


# Label -> character of the shifted object for each heart generator, in
# heart order, from the catalog objects that carry a heart shift.
GENERATORS = {
    obj.label + (f"[{obj.heart_shift}]" if obj.heart_shift else ""): shift(obj.ch, obj.heart_shift)
    for obj in quadric_catalog()
    if obj.heart_shift is not None
}
# One row per Chern component, holding that component of each generator.
_GENERATOR_ROWS = tuple(zip(*(ch.as_tuple() for ch in GENERATORS.values())))

FULL_REGION = "full"


@dataclass(frozen=True)
class DimensionVector:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"component {name} must be a nonnegative integer")

    def as_tuple(self):
        return (self.a, self.b, self.c, self.d)

    def __str__(self):
        return "(" + ",".join(str(x) for x in self.as_tuple()) + ")"


SKYSCRAPER_VECTOR = DimensionVector(1, 2, 4, 1)


def heart_ch(v):
    """Additive extension: -a*ch(O(-1)) + b*ch(S(-1)) - c*ch(O) + d*ch(O(1))."""
    mults = v.as_tuple()
    return ChernCharacter(*(sum(m * x for m, x in zip(mults, row)) for row in _GENERATOR_ROWS))


# --- candidate enumeration ---------------------------------------------------


class DerivationError(ValueError):
    """The supplied sign facts do not cover every candidate on every side."""


def skyscraper_candidates():
    """The proper-subobject dimension vectors of SKYSCRAPER_VECTOR, in
    lexicographic order: a = 0, d = 1, and c = 4 whenever b = 2."""
    return tuple(
        DimensionVector(0, b, c, 1)
        for b in range(SKYSCRAPER_VECTOR.b + 1)
        for c in range(SKYSCRAPER_VECTOR.c + 1)
        if b != 2 or c == 4
    )


BASE_VECTORS = (DimensionVector(0, 2, 4, 1), DimensionVector(0, 1, 0, 1))


@dataclass(frozen=True)
class ImSignFact:
    """A certified sign of Im Z for one heart generator on a subregion."""

    generator: str
    subregion: str
    sign: str  # one of <0, <=0, >0, >=0

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ValueError(f"bad generator {self.generator!r}")
        sign_parts(self.sign)
        if self.subregion not in (FULL_REGION, *SIDE_SIGNS):
            raise ValueError(f"bad subregion {self.subregion!r}")

    def allows(self, change, subregion):
        """Whether adding `change` copies of the generator (removing them,
        when negative) cannot decrease Im Z on `subregion`."""
        return sign_parts(self.sign)[0] * change > 0 and self.subregion in (FULL_REGION, subregion)


DEFAULT_SIGN_FACTS = (
    ImSignFact("S(-1)[2]", FULL_REGION, "<0"),
    ImSignFact("O[1]", SIDE_LEFT, "<=0"),
    ImSignFact("O[1]", SIDE_RIGHT, ">=0"),
)


def _edge(vec, subregion, facts):
    """The dominance edge from the first base that reaches vec on
    `subregion`, as text, or None.

    Removing a generator with Im Z <= 0 (or adding one with Im Z >= 0)
    cannot decrease Im Z, so positivity at the base propagates to vec.
    """
    for base in BASE_VECTORS:
        moves = [
            (label, x - y)
            for label, x, y in zip(GENERATORS, vec.as_tuple(), base.as_tuple())
            if x != y
        ]
        if all(
            any(f.generator == label and f.allows(change, subregion) for f in facts)
            for label, change in moves
        ):
            text = ", ".join(
                f"add {change} x {label}" if change > 0 else f"remove {-change} x {label}"
                for label, change in moves
            )
            return f"{base} [{text}] on {subregion}"
    return None


def reduce_candidates(vectors, sign_facts=DEFAULT_SIGN_FACTS):
    """Derive every candidate from the base set {(0,2,4,1), (0,1,0,1)}.

    Returns one line per vector, in order: "vec: base" for a base vector,
    "vec: edge" for one edge valid on the full region, or
    "vec: left edge; right edge" for one edge per subregion of the
    alpha = -beta split.  Raises DerivationError when the supplied facts
    leave a (vector, subregion) pair underived.
    """
    lines = []
    missing = []
    for vec in vectors:
        if vec in BASE_VECTORS:
            lines.append(f"{vec}: base")
            continue
        edge = _edge(vec, FULL_REGION, sign_facts)
        if edge is not None:
            lines.append(f"{vec}: {edge}")
            continue
        edges = []
        for subregion in SIDE_SIGNS:
            edge = _edge(vec, subregion, sign_facts)
            if edge is None:
                missing.append(f"{vec} on {subregion}")
            else:
                edges.append(edge)
        lines.append(f"{vec}: " + "; ".join(edges))
    if missing:
        raise DerivationError(f"sign facts do not cover: {'; '.join(missing)}")
    return lines
