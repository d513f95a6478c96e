"""The Sharkovsky period-forcing order and iterate-period arithmetic.

The total order on positive integers

    3 < 5 < 7 < ... < 2*3 < 2*5 < ... < 2^2*3 < 2^2*5 < ... < 2^3 < 2^2 < 2 < 1

(written here with < for "precedes") is decided entirely by the
decomposition n = 2^k * q with q odd: numbers with odd part q > 1 come
first, ordered by k then q; powers of two come last, by descending
exponent.  "m forces n" means a period-m point guarantees a period-n
point, which holds exactly when m = n or m precedes n.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd, isqrt


class Ordering(enum.Enum):
    PRECEDES = "precedes"
    EQUAL = "equal"
    SUCCEEDS = "succeeds"


@dataclass(frozen=True)
class SharkovskyKey:
    """The decomposition n = 2^two_exponent * odd_part with odd_part odd."""

    two_exponent: int
    odd_part: int

    @property
    def n(self) -> int:
        return (1 << self.two_exponent) * self.odd_part


def _check_positive(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"expected a positive integer, got {n!r}")
    return n


def decompose(n: int) -> SharkovskyKey:
    """Split n into its dyadic exponent and odd part."""
    _check_positive(n)
    k = (n & -n).bit_length() - 1
    return SharkovskyKey(k, n >> k)


def sort_key(n: int) -> tuple[int, int, int]:
    """A tuple whose lexicographic order is the Sharkovsky order."""
    key = decompose(n)
    if key.odd_part > 1:
        return (0, key.two_exponent, key.odd_part)
    return (1, -key.two_exponent, 0)


def sharkovsky_compare(m: int, n: int) -> Ordering:
    a, b = sort_key(m), sort_key(n)
    if a < b:
        return Ordering.PRECEDES
    if a == b:
        return Ordering.EQUAL
    return Ordering.SUCCEEDS


def forces(m: int, n: int) -> bool:
    """True when a period-m point forces a period-n point (reflexively)."""
    return m == n or sort_key(m) < sort_key(n)


def forced_periods_upto(m: int, upto: int) -> list[int]:
    """All n <= upto with forces(m, n), ascending."""
    _check_positive(m)
    _check_positive(upto)
    return [n for n in range(1, upto + 1) if forces(m, n)]


def iterate_least_period(m: int, n: int) -> int:
    """Least period under the n-th iterate of a point of least period m."""
    _check_positive(m)
    _check_positive(n)
    return m // gcd(m, n)


def divisors(n: int) -> list[int]:
    """The divisors of n, ascending: those up to isqrt(n), then their cofactors."""
    _check_positive(n)
    low = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return low + [n // d for d in reversed(low) if d * d != n]


def lift_least_periods(k: int, n: int) -> set[int]:
    """Possible least periods under f of a least-period-k point of f^n.

    These are the values k*n/s over divisors s of n coprime to k.
    """
    _check_positive(k)
    _check_positive(n)
    return {k * n // s for s in divisors(n) if gcd(s, k) == 1}
