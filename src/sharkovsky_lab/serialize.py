"""Wire formats: "p/q" rationals, JSON maps and orbits, and results as JSON.

Rationals serialize as "p/q" with "/q" omitted for integers, which is
exactly ``str(Fraction)``.  A map serializes as
``{"breakpoints": [["0", "0"], ["1/2", "1"], ["1", "0"]]}``, an orbit as
its ascending "p/q" list, an interval as ``[lo, hi]`` and any other
result as its fields' wire values (:func:`to_wire`).  Every emitted value
re-parses to an equal one, at any size: past the interpreter's limit on
integer string conversion (``sys.get_int_max_str_digits()``) the digits
are split in halves until each half converts, and no process-wide
setting changes.
"""

from __future__ import annotations

import dataclasses
import functools
import re
from enum import Enum
from fractions import Fraction

from .exact_pwl import Interval, Orbit, PwlMap, as_fraction

SCHEMA = "sharkovsky-lab/1"

_RATIONAL = re.compile(r"\s*([+-]?)(\d+)(?:/(\d+))?\s*")


def _decimal(n: int) -> str:
    """The decimal digits of n >= 0."""
    try:
        return str(n)
    except ValueError:  # past the conversion limit
        half = n.bit_length() * 3 // 20  # about half of n's decimal digits
        high, low = divmod(n, 10**half)
        return _decimal(high) + _decimal(low).zfill(half)


def _integer(digits: str) -> int:
    """The value of a string of decimal digits."""
    try:
        return int(digits)
    except ValueError:  # past the conversion limit
        half = len(digits) // 2
        return _integer(digits[:-half]) * 10**half + _integer(digits[-half:])


def format_rational(value: Fraction) -> str:
    value = as_fraction(value)
    try:
        return str(value)
    except ValueError:  # past the conversion limit
        text = ("-" if value < 0 else "") + _decimal(abs(value.numerator))
        return text if value.denominator == 1 else f"{text}/{_decimal(value.denominator)}"


def parse_rational(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except ValueError:  # malformed, or past the conversion limit
        match = _RATIONAL.fullmatch(text)
        if match is None:
            raise
        sign, numerator, denominator = match.groups()
        denominator = _integer(denominator or "1")
        if denominator == 0:
            raise ZeroDivisionError(f"{text!r} has a zero denominator") from None
        value = Fraction(_integer(numerator), denominator)
        return -value if sign == "-" else value


def pwlmap_to_obj(f: PwlMap) -> dict:
    return {
        "breakpoints": [
            [format_rational(x), format_rational(y)] for x, y in f.breakpoints
        ]
    }


def pwlmap_from_obj(obj: dict) -> PwlMap:
    return PwlMap([(parse_rational(x), parse_rational(y)) for x, y in obj["breakpoints"]])


def orbit_to_list(orbit: Orbit) -> list[str]:
    return [format_rational(p) for p in orbit.points]


def orbit_from_list(values: list[str]) -> Orbit:
    return Orbit(tuple(parse_rational(v) for v in values))


def to_wire(value, skip: set[str] | frozenset[str] = frozenset()):
    """value in its wire format; enums by value, any other dataclass as its fields less skip."""
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Orbit):
        return orbit_to_list(value)
    if isinstance(value, Interval):
        return [format_rational(value.lo), format_rational(value.hi)]
    if isinstance(value, PwlMap):
        return pwlmap_to_obj(value)
    if isinstance(value, (tuple, list)):
        return [to_wire(item) for item in value]
    return {n: to_wire(getattr(value, n)) for n in _field_names(type(value)) if n not in skip}


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    """A dataclass's field names, read once per class."""
    return tuple(field.name for field in dataclasses.fields(cls))
