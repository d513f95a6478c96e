"""Wire-format round trips."""

import contextlib
import random
import sys
from fractions import Fraction as F

from hypothesis import given
from hypothesis import strategies as st

from sharkovsky_lab import (
    CrossingCase,
    Interval,
    Orbit,
    SpectrumEntry,
    TraceCase,
    connect_the_dots,
    format_rational,
    orbit_from_list,
    orbit_to_list,
    parse_rational,
    period_two_from_orbit,
    pwlmap_from_obj,
    pwlmap_to_obj,
    stefan_pattern,
    tent_map,
    truncate_at_orbit,
)
from sharkovsky_lab.serialize import to_wire

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=10_000
)


def test_integer_denominator_omitted():
    assert format_rational(F(3)) == "3"
    assert format_rational(F(1, 2)) == "1/2"
    assert format_rational(F(-2, 7)) == "-2/7"


@given(rationals)
def test_rational_roundtrip(q):
    assert format_rational(q) == str(q)
    assert parse_rational(format_rational(q)) == q


@contextlib.contextmanager
def int_str_digits(limit):
    """The interpreter's limit on int-string conversion, set for the block."""
    if not hasattr(sys, "set_int_max_str_digits"):  # before 3.10.7: no limit
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def test_rationals_past_the_int_string_limit_roundtrip():
    # about 10,000 digits each, past the default limit of 4,300
    rng = random.Random(7)
    numerator = rng.randrange(10**9_999, 10**10_000)
    denominator = rng.randrange(10**9_999, 10**10_000)
    values = (F(numerator, denominator), F(-numerator, denominator), F(-numerator))
    with int_str_digits(0):  # 0 lifts the limit
        expected = [str(q) for q in values]
    with int_str_digits(4300):
        for q, text in zip(values, expected):
            assert format_rational(q) == text
            assert parse_rational(text) == q
            assert parse_rational(f" {text}\n") == q


def test_pwlmap_wire_format():
    assert pwlmap_to_obj(tent_map()) == {
        "breakpoints": [["0", "0"], ["1/2", "1"], ["1", "0"]]
    }


def test_pwlmap_roundtrip():
    for f in (tent_map(), connect_the_dots(stefan_pattern(5)), tent_map().iterate(3)):
        assert pwlmap_from_obj(pwlmap_to_obj(f)) == f


def test_orbit_roundtrip():
    orbit = Orbit((F(2, 7), F(4, 7), F(6, 7)))
    assert orbit_to_list(orbit) == ["2/7", "4/7", "6/7"]
    assert orbit_from_list(orbit_to_list(orbit)) == orbit


class TestToWire:
    def test_a_rational_past_the_int_string_limit(self):
        value = F(-random.Random(3).randrange(10**4_999, 10**5_000), 7)
        with int_str_digits(0):
            expected = str(value)
        with int_str_digits(4300):
            assert to_wire(value) == expected
        assert to_wire(F(6, 4)) == "3/2" and to_wire(F(-2)) == "-2"

    def test_enums_by_value(self):
        assert to_wire(CrossingCase.FIXED_POINT_LEFT) == "FixedPointLeft"
        assert to_wire(TraceCase.REBOUND_BELOW) == "ReboundBelow"

    def test_orbits_intervals_and_maps_in_their_wire_formats(self):
        orbit = Orbit((F(2, 7), F(4, 7), F(6, 7)))
        assert to_wire(orbit) == orbit_to_list(orbit)
        assert to_wire(Interval(F(2, 7), 1)) == ["2/7", "1"]
        assert to_wire(tent_map()) == pwlmap_to_obj(tent_map())
        assert to_wire((orbit, Orbit((0,)))) == [["2/7", "4/7", "6/7"], ["0"]]
        assert to_wire([F(1, 2), None]) == ["1/2", None]

    def test_a_dataclass_is_its_fields_less_skip(self):
        assert to_wire(SpectrumEntry(3, 1, False)) == {
            "period": 3, "orbit_count": 1, "continuum": False,
        }
        truncated = truncate_at_orbit(tent_map(), Orbit((F(2, 7), F(4, 7), F(6, 7))))
        assert to_wire(truncated, {"base", "anchor_orbit"}) == {
            "bounds": ["2/7", "6/7"], "map": pwlmap_to_obj(truncated.map),
        }
        f = connect_the_dots(stefan_pattern(3))
        w = period_two_from_orbit(f, Orbit((0, F(1, 2), 1)))
        wire = to_wire(w, frozenset({"point"}))
        assert "point" not in wire and wire["case"] == w.case.value
        assert wire["lower"] == format_rational(w.lower)
        assert wire["left_fixed"] == (None if w.left_fixed is None else str(w.left_fixed))

    def test_plain_scalars_pass_through(self):
        for value in (None, True, False, 0, -7, 10**5_000, "p/q"):
            assert to_wire(value) is value
