"""Wire-format round trips."""

import contextlib
import random
import sys
from fractions import Fraction as F

from hypothesis import given
from hypothesis import strategies as st

from sharkovsky_lab import (
    Orbit,
    connect_the_dots,
    format_rational,
    orbit_from_list,
    orbit_to_list,
    parse_rational,
    pwlmap_from_obj,
    pwlmap_to_obj,
    stefan_pattern,
    tent_map,
)

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
