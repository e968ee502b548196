"""Chern characters on the quadric: catalog values, twists, identities."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltcert.chern import (
    CATALOG,
    DEGREE,
    ChernCharacter,
    catalog_lookup,
    line_bundle_ch,
    load_chern,
    shift,
    tensor_line,
    twist,
)

F = Fraction


def ch(c0, c1, c2, c3):
    return ChernCharacter(F(c0), F(c1), F(c2), F(c3))


def test_line_bundle_values():
    assert DEGREE == 2
    assert line_bundle_ch(0) == ch(1, 0, 0, 0)
    assert line_bundle_ch(1) == ch(1, 1, F(1, 2), F(1, 3))
    assert line_bundle_ch(-1) == ch(1, -1, F(1, 2), F(-1, 3))
    assert line_bundle_ch(2) == ch(1, 2, 2, F(8, 3))


def test_catalog_frozen_values():
    table = {obj.label: obj for obj in CATALOG}
    assert table["O(-1)"].ch == ch(1, -1, F(1, 2), F(-1, 3))
    assert table["S(-1)"].ch == ch(2, -1, 0, F(1, 6))
    assert table["O"].ch == ch(1, 0, 0, 0)
    assert table["O(1)"].ch == ch(1, 1, F(1, 2), F(1, 3))
    assert table["S"].ch == ch(2, 1, 0, F(-1, 6))
    assert table["k(x)"].ch == ch(0, 0, 0, 1)
    assert [obj.heart_shift for obj in CATALOG] == [3, 2, 1, 0, None, None]
    assert not table["k(x)"].mu_stable


def test_catalog_lookup_aliases():
    assert catalog_lookup("S-1").label == "S(-1)"
    assert catalog_lookup("O(0)").label == "O"
    assert catalog_lookup("kx").label == "k(x)"
    assert catalog_lookup("O1").label == "O(1)"
    assert catalog_lookup("nope") is None
    # A lookup returns the catalog's own objects.
    assert catalog_lookup(" S - 1 ") is CATALOG[1]


def test_resolution_alternating_sum():
    table = {obj.label: obj.ch for obj in CATALOG}
    total = (
        table["O(-1)"]
        - 2 * table["S(-1)"]
        + 4 * table["O"]
        - table["O(1)"]
        + table["k(x)"]
    )
    assert total == ch(0, 0, 0, 0)


def test_spinor_identities():
    assert catalog_lookup("S(-1)").ch == ch(2, -1, 0, F(1, 6))
    table = {obj.label: obj.ch for obj in CATALOG}
    assert table["S(-1)"] + table["S"] == 4 * table["O"]
    assert tensor_line(table["S(-1)"], 1) == table["S"]


rationals = st.builds(F, st.integers(-24, 24), st.integers(1, 12))


@settings(max_examples=300, deadline=None)
@given(
    st.builds(ChernCharacter, rationals, rationals, rationals, rationals),
    rationals,
    rationals,
)
def test_twist_is_group_action(v, x, y):
    assert twist(twist(v, x), y) == twist(v, x + y)
    assert twist(v, 0) == v


def test_twist_of_line_bundle_shifts_it():
    # Twisting O(n) by beta = n kills everything above ch0.
    for n in range(-2, 3):
        t = twist(line_bundle_ch(n), F(n))
        assert (t.ch1, t.ch2, t.ch3) == (0, 0, 0)


def test_tensor_line_matches_catalog():
    assert tensor_line(line_bundle_ch(0), 1) == line_bundle_ch(1)
    assert tensor_line(line_bundle_ch(-1), 3) == line_bundle_ch(2)


def test_twist_skyscraper_fixed():
    sky = catalog_lookup("k(x)").ch
    rng = random.Random(7)
    for _ in range(20):
        beta = F(rng.randrange(-12, 13), 12)
        assert twist(sky, beta) == sky


def test_shift_sign_rule():
    v = ch(2, -1, 0, F(1, 6))
    assert shift(v, 0) == v
    assert shift(v, 1) == -1 * v
    assert shift(v, 2) == v
    assert shift(v, 3) == -1 * v


def test_arithmetic_and_equality():
    v = ch(1, 2, F(1, 2), F(1, 3))
    w = ch(0, 1, 1, 0)
    assert v + w == ch(1, 3, F(3, 2), F(1, 3))
    assert v - w == ch(1, 1, F(-1, 2), F(1, 3))
    assert 3 * v == ch(3, 6, F(3, 2), 1)
    assert -v == ch(-1, -2, F(-1, 2), F(-1, 3))


def test_float_values_are_refused():
    # Fraction(0.1) would store the binary approximation of 0.1.
    with pytest.raises(TypeError):
        ChernCharacter(1, 0.1, 0, 0)
    with pytest.raises(TypeError, match="not an exact value: 0.5"):
        ChernCharacter(1, 0, 0, 0) * 0.5
    with pytest.raises(TypeError, match="not an exact value: 0.5"):
        0.5 * ChernCharacter(1, 0, 0, 0)
    with pytest.raises(TypeError):
        twist(ch(1, 0, 0, 0), 0.5)
    with pytest.raises(TypeError):
        line_bundle_ch(0.5)
    v = ChernCharacter(1, 2, F(1, 2), 0)
    assert all(type(x) is Fraction for x in v)


def test_json_round_trip(tmp_path):
    data = {"ch0": "2", "ch1": "-1", "ch2": "0", "ch3": "1/6", "name": "spinor twist"}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    # The "name" key is accepted and ignored.
    assert load_chern(path) == ch(2, -1, 0, F(1, 6))


def test_load_chern_reads_at_most_64_kib(tmp_path):
    text = json.dumps({"ch0": "1", "ch1": "0", "ch2": "0", "ch3": "0"})
    path = tmp_path / "padded.json"
    path.write_text(text.ljust(64 * 1024), encoding="utf-8")
    assert load_chern(path) == ch(1, 0, 0, 0)
    path.write_text(text.ljust(64 * 1024 + 1), encoding="utf-8")
    with pytest.raises(ValueError, match="longer than 65536 characters"):
        load_chern(path)


def test_load_chern_rejects_bad_payload(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"ch0": "1", "ch1": "0", "ch2": "0"}))
    with pytest.raises(ValueError, match="missing field 'ch3'"):
        load_chern(path)
    path.write_text(json.dumps({"ch0": "1.5", "ch1": "0", "ch2": "0", "ch3": "0"}))
    with pytest.raises(ValueError):
        load_chern(path)
