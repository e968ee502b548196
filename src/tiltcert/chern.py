"""Chern characters on the smooth quadric threefold, numeric and twisted.

Coordinates: ch0 is the rank, ch1 and ch2 are coefficients of H and H^2,
and ch3 is the rational degree of the 0-cycle (point-class coefficient,
already an intersection number).  The mixed normalization keeps central
charges dimensionless; the degree d = H^3 = DEGREE enters exactly where
an H^3 is produced, so twisting threads d through the ch3 component.
ChernCharacter is a named tuple of Fractions: its + and - act by
component, and * scales by a number, in place of the tuple's + and *.  Its
constructor is the one exactness check, so a float scale is refused there.
"""

import json
from collections import namedtuple
from fractions import Fraction

from .kernel import as_fraction, checked_namedtuple, format_rational, parse_rational


# Degree d = H^3 of the quadric threefold, Pic = Z*H.
DEGREE = 2


class ChernCharacter(checked_namedtuple("ChernCharacter", "ch0 ch1 ch2 ch3")):
    __slots__ = ()

    def __new__(cls, ch0, ch1, ch2, ch3):
        return super().__new__(cls, *map(as_fraction, (ch0, ch1, ch2, ch3)))

    def __add__(self, other):
        return ChernCharacter(*(x + y for x, y in zip(self, other)))

    def __sub__(self, other):
        return ChernCharacter(*(x - y for x, y in zip(self, other)))

    def __neg__(self):
        return ChernCharacter(*(-x for x in self))

    def __mul__(self, scalar):
        return ChernCharacter(*(x * scalar for x in self))

    __rmul__ = __mul__

    def __str__(self):
        return "(" + ", ".join(map(format_rational, self)) + ")"


# Longest character file load_chern reads, in characters: four rationals
# fit many times over, and /dev/zero or a huge file cannot exhaust memory.
_MAX_FILE_CHARS = 64 * 1024


def load_chern(path):
    """Read a character from a JSON file ({"ch0": "r", ..., "ch3": "r"}) of
    at most 64 Ki characters.  Other keys, such as "name", are ignored."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read(_MAX_FILE_CHARS + 1)
    if len(text) > _MAX_FILE_CHARS:
        raise ValueError(f"file is longer than {_MAX_FILE_CHARS} characters")
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("character file must hold a JSON object")
    try:
        return ChernCharacter(*(parse_rational(data[f"ch{k}"]) for k in range(4)))
    except KeyError as err:
        raise ValueError(f"missing field {err}") from None


def line_bundle_ch(n):
    """ch(O(nH)) = (1, n, n^2/2, n^3*d/6); the d lands in the degree slot."""
    n = as_fraction(n)
    return ChernCharacter(1, n, n * n / 2, n**3 * DEGREE / 6)


def twist(v, beta):
    """Twisted character e^{-beta*H} * ch.

    ch1, ch2 transform with plain H-coordinate arithmetic; the ch3 slot is
    a degree, so every product that lands in H^3 picks up d.
    """
    beta = as_fraction(beta)
    d = DEGREE
    r, c1, c2, c3 = v
    return ChernCharacter(
        r,
        c1 - beta * r,
        c2 - beta * c1 + beta * beta / 2 * r,
        c3 - d * beta * c2 + d * beta * beta / 2 * c1 - d * beta**3 / 6 * r,
    )


def tensor_line(v, n):
    """ch(E(nH)) = e^{nH} * ch(E); same arithmetic as twist with beta = -n."""
    return twist(v, -as_fraction(n))


def shift(v, k):
    """Homological shift [k]: multiplies the character by (-1)^k."""
    return v if k % 2 == 0 else -v


CatalogObject = namedtuple("CatalogObject", "label ch heart_shift mu_stable")


# Rank-2 spinor bundle twisted down once.  Forced by the short exact
# sequence 0 -> S(-1) -> O^4 -> S -> 0 with S = S(-1) tensor O(1):
# solving ch(S(-1)) + tensor_line(ch(S(-1)), 1) = 4*ch(O) gives
# (2, -1, 0, d/12).
_SPINOR_MINUS_ONE = ChernCharacter(2, -1, 0, Fraction(DEGREE, 12))

# The exceptional-collection generators with their heart shifts, the spinor
# bundle, and a point, whose character is the alternating sum over
# 0 -> O(-1) -> S(-1)^2 -> O^4 -> O(1) -> k(x) -> 0.
CATALOG = (
    CatalogObject("O(-1)", line_bundle_ch(-1), 3, True),
    CatalogObject("S(-1)", _SPINOR_MINUS_ONE, 2, True),
    CatalogObject("O", line_bundle_ch(0), 1, True),
    CatalogObject("O(1)", line_bundle_ch(1), 0, True),
    CatalogObject("S", tensor_line(_SPINOR_MINUS_ONE, 1), None, True),
    CatalogObject("k(x)", ChernCharacter(0, 0, 0, 1), None, False),
)
_ALIASES = {
    "O(-1)": ("O-1",), "S(-1)": ("S-1",), "O": ("O(0)",), "O(1)": ("O1",), "k(x)": ("kx", "k"),
}
# Each label and each of its aliases, spaces removed, to its object.
_LOOKUP = {name: obj for obj in CATALOG for name in (obj.label, *_ALIASES.get(obj.label, ()))}


def catalog_lookup(label):
    return _LOOKUP.get(label.strip().replace(" ", ""))
