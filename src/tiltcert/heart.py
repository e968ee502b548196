"""The exceptional-collection heart as dimension vectors.

The heart is generated by O(-1)[3], S(-1)[2], O[1], O(1); an object is
recorded by its multiplicity vector (a, b, c, d) against those simple
generators.  This module enumerates the subobject candidates for the
skyscraper vector (1, 2, 4, 1) and reduces them to the two base cases
via Im Z dominance.
"""

from dataclasses import dataclass

from .certify import SIDE_LEFT, SIDE_RIGHT, sign_parts
from .chern import ChernCharacter, quadric_catalog, shift
from .tilt import central_charge


# (label, character of the shifted object, shift) for each heart generator,
# in heart order, from the catalog objects that carry a heart shift.
GENERATORS = tuple(
    (
        f"{obj.label}[{obj.heart_shift}]" if obj.heart_shift else obj.label,
        shift(obj.ch, obj.heart_shift),
        obj.heart_shift,
    )
    for obj in quadric_catalog()
    if obj.heart_shift is not None
)
GENERATOR_LABELS = tuple(label for label, _, _ in GENERATORS)

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

    def __add__(self, other):
        return DimensionVector(*(x + y for x, y in zip(self.as_tuple(), other.as_tuple())))

    def to_json(self):
        return list(self.as_tuple())

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, (list, tuple)) or len(data) != 4:
            raise ValueError("dimension vector JSON must be [a, b, c, d]")
        return cls(*data)

    def __str__(self):
        return "(" + ",".join(str(x) for x in self.as_tuple()) + ")"


SKYSCRAPER_VECTOR = DimensionVector(1, 2, 4, 1)


def heart_ch(v):
    """Additive extension: -a*ch(O(-1)) + b*ch(S(-1)) - c*ch(O) + d*ch(O(1))."""
    total = ChernCharacter(0, 0, 0, 0)
    for mult, (_, ch, _) in zip(v.as_tuple(), GENERATORS):
        total = total + mult * ch
    return total


def heart_z(v, p):
    return central_charge(heart_ch(v), p)


# --- candidate enumeration ---------------------------------------------------

@dataclass(frozen=True)
class CandidateSet:
    vectors: tuple
    bases: tuple
    derivation: dict

    def derivation_lines(self):
        """One "vector: base" or "vector: edge; edge" line per candidate."""
        lines = []
        for vec in self.vectors:
            how = self.derivation[vec]
            text = "base" if how == "base" else "; ".join(edge.describe() for edge in how)
            lines.append(f"{vec}: {text}")
        return lines


class DerivationError(ValueError):
    """The supplied sign facts do not cover every candidate on every side."""


def skyscraper_candidates():
    """The proper-subobject dimension vectors of SKYSCRAPER_VECTOR, in
    lexicographic order: a = 0, d = 1, and c = 4 whenever b = 2."""
    vectors = tuple(
        DimensionVector(0, b, c, 1)
        for b in range(SKYSCRAPER_VECTOR.b + 1)
        for c in range(SKYSCRAPER_VECTOR.c + 1)
        if b != 2 or c == 4
    )
    return CandidateSet(vectors=vectors, bases=(), derivation={})


BASE_VECTORS = (DimensionVector(0, 2, 4, 1), DimensionVector(0, 1, 0, 1))


@dataclass(frozen=True)
class ImSignFact:
    """A certified sign of Im Z for one heart generator on a subregion."""

    generator: str
    subregion: str
    sign: str  # one of <0, <=0, >0, >=0

    def __post_init__(self):
        sign_parts(self.sign)
        if self.subregion not in (FULL_REGION, SIDE_LEFT, SIDE_RIGHT):
            raise ValueError(f"bad subregion {self.subregion!r}")

    def allows_removal(self, subregion):
        return sign_parts(self.sign)[0] < 0 and self.subregion in (FULL_REGION, subregion)

    def allows_addition(self, subregion):
        return sign_parts(self.sign)[0] > 0 and self.subregion in (FULL_REGION, subregion)


DEFAULT_SIGN_FACTS = (
    ImSignFact("S(-1)[2]", FULL_REGION, "<0"),
    ImSignFact("O[1]", SIDE_LEFT, "<=0"),
    ImSignFact("O[1]", SIDE_RIGHT, ">=0"),
)


@dataclass(frozen=True)
class DominanceEdge:
    base: DimensionVector
    delta: tuple  # signed multiplicities against GENERATOR_LABELS
    subregion: str

    def describe(self):
        moves = []
        for label, change in zip(GENERATOR_LABELS, self.delta):
            if change > 0:
                moves.append(f"add {change} x {label}")
            elif change < 0:
                moves.append(f"remove {-change} x {label}")
        action = ", ".join(moves) if moves else "identity"
        return f"{self.base} [{action}] on {self.subregion}"


def _allows(label, change, subregion, facts):
    if change < 0:
        return any(f.generator == label and f.allows_removal(subregion) for f in facts)
    return any(f.generator == label and f.allows_addition(subregion) for f in facts)


def _edge_for(vec, subregion, facts):
    """Dominance edge from the first base that reaches vec on `subregion`,
    or None.

    Removing a generator with Im Z <= 0 (or adding one with Im Z >= 0)
    cannot decrease Im Z, so positivity at the base propagates to vec.
    """
    for base in BASE_VECTORS:
        delta = tuple(x - y for x, y in zip(vec.as_tuple(), base.as_tuple()))
        if all(
            _allows(label, change, subregion, facts)
            for label, change in zip(GENERATOR_LABELS, delta)
            if change
        ):
            return DominanceEdge(base=base, delta=delta, subregion=subregion)
    return None


def reduce_candidates(cands, sign_facts=DEFAULT_SIGN_FACTS):
    """Derive every candidate from the base set {(0,2,4,1), (0,1,0,1)}.

    Each non-base vector gets either one edge valid on the full region or
    one edge per subregion of the alpha = -beta split.  Raises
    DerivationError when the supplied facts leave a (vector, subregion)
    pair underived.
    """
    derivation = {}
    missing = []
    for vec in cands.vectors:
        if vec in BASE_VECTORS:
            derivation[vec] = "base"
            continue
        full_edge = _edge_for(vec, FULL_REGION, sign_facts)
        if full_edge is not None:
            derivation[vec] = (full_edge,)
            continue
        edges = []
        for subregion in (SIDE_LEFT, SIDE_RIGHT):
            edge = _edge_for(vec, subregion, sign_facts)
            if edge is None:
                missing.append((vec, subregion))
            else:
                edges.append(edge)
        derivation[vec] = tuple(edges)
    if missing:
        gaps = "; ".join(f"{vec} on {side}" for vec, side in missing)
        raise DerivationError(f"sign facts do not cover: {gaps}")
    return CandidateSet(vectors=cands.vectors, bases=BASE_VECTORS, derivation=derivation)
