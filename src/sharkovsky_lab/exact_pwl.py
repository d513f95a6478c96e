"""Exact piecewise-linear self-maps of a compact rational interval.

Everything runs in exact rational arithmetic; no floating point enters any
computation, so least-period claims reduce to exact equality.  The public
types take and return ``fractions.Fraction`` values.  Inside, the
breakpoint kernel works on reduced integer pairs (numerator, positive
denominator): it compares by cross-multiplication and pays one gcd per
new value, and a Fraction is built only where a value leaves it.  A map is
stored as its ordered breakpoint list, kept in canonical form (no three
consecutive collinear breakpoints), which makes structural equality
coincide with functional equality on a common domain.

Two caps bound every exact claim: the piece cap on composed maps and the
walk cap on closed walks and the additions that count them.  No function
takes a cap; a ``with budgets(piece, walk):`` block sets both.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice, product
from math import gcd
from typing import Callable, Iterable, Iterator, Optional, Union

from .errors import (
    InvalidMap,
    NotAnOrbit,
    NotCovering,
    OutOfDomain,
    PieceBudgetExceeded,
    PreconditionError,
    WalkBudgetExceeded,
)

RationalLike = Union[Fraction, int, str]

#: Cap on the breakpoint count of any composed map.  Exceeding it raises
#: :class:`PieceBudgetExceeded` rather than truncating silently.
DEFAULT_PIECE_BUDGET = 1 << 20
#: Cap on the closed walks enumerated, and on the additions that count them.
DEFAULT_WALK_BUDGET = 1_000_000

#: The (piece, walk) caps in force; see budgets.
_caps: ContextVar[tuple[int, int]] = ContextVar(
    "caps", default=(DEFAULT_PIECE_BUDGET, DEFAULT_WALK_BUDGET)
)


@contextmanager
def budgets(piece: int = DEFAULT_PIECE_BUDGET, walk: int = DEFAULT_WALK_BUDGET) -> Iterator[None]:
    """Run the block under these caps; a cap left out takes its default.

    The caps live in a context variable (PEP 567), so each thread and each
    asyncio task has its own, and they are restored when the block ends,
    also by an exception.  They are read where the work runs, once per
    composition, walk count or walk generator: a generator such as
    :func:`periodic_orbits_upto` or :func:`iter_closed_walks` that is
    advanced outside the block runs under the caps in force there.
    """
    token = _caps.set((piece, walk))
    try:
        yield
    finally:
        _caps.reset(token)


def require_listable(count: int, items: str) -> None:
    """WalkBudgetExceeded past the walk cap: one item listed per unit."""
    walk = _caps.get()[1]
    if count > walk:
        raise WalkBudgetExceeded(f"more than {walk} {items} to list")


def _require_order(k: int) -> None:
    """ValueError unless k >= 1, the order of an iterate f^k."""
    if k < 1:
        raise ValueError("iterate order must be >= 1")


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, a string like ``"2/7"``, or a Fraction to a Fraction.

    Floats are rejected: the whole library is exact and a float would
    silently poison comparisons.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not allowed; use Fraction, int or 'p/q' strings")
    return Fraction(value)


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi] with rational endpoints; lo == hi is legal."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        lo = as_fraction(self.lo)
        hi = as_fraction(self.hi)
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def between(cls, a: RationalLike, b: RationalLike) -> "Interval":
        """The closed interval with a and b as endpoints, in either order."""
        a, b = as_fraction(a), as_fraction(b)
        return cls(a, b) if a <= b else cls(b, a)

    @cached_property
    def _span(self) -> tuple["Q", "Q"]:
        """The endpoints as kernel pairs, converted once per interval."""
        return _q(self.lo), _q(self.hi)

    @property
    def is_degenerate(self) -> bool:
        return self.lo == self.hi

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: RationalLike) -> bool:
        x = as_fraction(x)
        return self.lo <= x <= self.hi

    def encloses(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersection(self, other: "Interval") -> Optional["Interval"]:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True, init=False, repr=False)
class Orbit:
    """A finite periodic orbit, holding its ascending points as kernel pairs.

    Equality, hashing and the hull read the pairs; the Fraction ``points``
    are built on first use (an orbit built from Fractions keeps them).
    """

    _pairs: tuple["Q", ...]

    def __init__(self, points: Iterable[RationalLike]) -> None:
        pts = tuple(sorted(as_fraction(p) for p in points))
        if not pts:
            raise NotAnOrbit("an orbit needs at least one point")
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise NotAnOrbit(f"duplicate orbit point {a}")
        object.__setattr__(self, "_pairs", tuple(map(_q, pts)))
        self.__dict__["points"] = pts

    @classmethod
    def _of(cls, pairs: tuple["Q", ...]) -> "Orbit":
        """Wrap kernel pairs that are already ascending and distinct."""
        orbit = object.__new__(cls)
        object.__setattr__(orbit, "_pairs", pairs)
        return orbit

    @cached_property
    def points(self) -> tuple[Fraction, ...]:
        return tuple(map(_fraction, self._pairs))

    def __repr__(self) -> str:
        return f"Orbit(points={self.points!r})"

    @property
    def period(self) -> int:
        return len(self._pairs)

    @property
    def minimum(self) -> Fraction:
        return _fraction(self._pairs[0])

    @property
    def maximum(self) -> Fraction:
        return _fraction(self._pairs[-1])

    @property
    def diameter(self) -> Fraction:
        return self.maximum - self.minimum

    @property
    def hull(self) -> Interval:
        return Interval(self.minimum, self.maximum)

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.points)

    def __contains__(self, x: object) -> bool:
        return x in self.points


@dataclass(frozen=True)
class IntervalLoop:
    """A cyclic chain of closed intervals J_0 .. J_{n-1}.

    The defining property, f(J_i) covering J_{(i+1) mod n}, depends on a
    map and is checked by the witness machinery, not by this container.
    """

    intervals: tuple[Interval, ...]

    def __post_init__(self) -> None:
        ivs = tuple(self.intervals)
        if not ivs:
            raise ValueError("an interval loop needs at least one interval")
        object.__setattr__(self, "intervals", ivs)

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __getitem__(self, i: int) -> Interval:
        return self.intervals[i]


# ---------------------------------------------------------------------------
# the breakpoint kernel
#
# Inside the kernel a rational is a pair (n, d) of ints in lowest terms with
# d > 0, so two rationals are equal exactly when their pairs are, a < b is
# the cross-multiplication a_n * b_d < b_n * a_d, and each new value costs
# one gcd.  A "pairs" value is a tuple of flat breakpoints (xn, xd, yn, yd)
# with strictly increasing x.  Unlike PwlMap it need not be a self-map, so a
# map can be restricted to a window before it is composed.  Only this module
# knows the format: other modules reach the kernel through PwlMap, Orbit,
# fixed_structure_on, level_set_on, markov_partition, markov_orbit_counts,
# require_cycle and follow_cycle, which take and return Fractions or plain
# ints.
# ---------------------------------------------------------------------------

Q = tuple[int, int]
Breakpoint = tuple[int, int, int, int]
Pairs = tuple[Breakpoint, ...]
#: Solutions of f(x) = x: ascending points and identity laps (_fixed_structure).
Structure = tuple[list[Q], list[tuple[Q, Q]]]
#: A lap of f as its right end's x and its reduced form (_reduced_laps).
Lap = tuple[int, int, int, int, int]


def _q(value: Fraction) -> Q:
    return value.numerator, value.denominator


def _fraction(q: Q) -> Fraction:
    return Fraction(q[0], q[1])


def _le(a: Q, b: Q) -> bool:
    """a <= b; a breakpoint stands for its x here."""
    return a[0] * b[1] <= b[0] * a[1]


def _holds(pairs: Pairs, lo: Q, hi: Q) -> bool:
    """True when the domain of pairs encloses [lo, hi]."""
    return _le(pairs[0], lo) and _le(hi, pairs[-1])


def _laps(pairs: Pairs) -> Iterator[tuple[Breakpoint, Breakpoint]]:
    return zip(pairs, islice(pairs, 1, None))


def _locate(pairs: Pairs, n: int, d: int) -> int:
    """The number of breakpoints with x <= n/d (bisect_right on x)."""
    lo, hi = 0, len(pairs)
    while lo < hi:
        mid = (lo + hi) >> 1
        p = pairs[mid]
        if n * p[1] < p[0] * d:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _lap_form(p0: Breakpoint, p1: Breakpoint) -> tuple[int, int, int]:
    """(p, r, q) such that the lap from p0 to p1 is x -> (p x + r) / q, q > 0.

    With each breakpoint's x and y swapped: a nonflat lap's inverse, q of either sign.
    """
    (x0n, x0d, y0n, y0d), (x1n, x1d, y1n, y1d) = p0, p1
    p = (y1n * y0d - y0n * y1d) * x0d * x1d  # each over x0d x1d y0d y1d
    r = y0n * y1d * x1n * x0d - y1n * y0d * x0n * x1d
    return p, r, (x1n * x0d - x0n * x1d) * y0d * y1d


def _at(form: tuple[int, int, int], n: int, d: int) -> Q:
    """A _lap_form (p, r, q) at n/d: (p n + r d) / (q d) in lowest terms, denominator > 0."""
    p, r, q = form
    num, den = p * n + r * d, q * d
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def _value_at(pairs: Pairs, i: int, n: int, d: int) -> Q:
    """f(n/d) for a point of the domain with i == _locate(pairs, n, d)."""
    p = pairs[i - 1]
    if p[0] == n and p[1] == d:
        return p[2], p[3]
    return _at(_lap_form(p, pairs[i]), n, d)


def _index(pairs: Pairs, n: int, d: int) -> int:
    """_locate for a point that must lie in the domain; OutOfDomain otherwise."""
    i = _locate(pairs, n, d)
    if i == 0 or (i == len(pairs) and pairs[-1][:2] != (n, d)):
        raise OutOfDomain(f"{Fraction(n, d)} outside domain {_span(pairs)}")
    return i


def _eval_pairs(pairs: Pairs, x: Q) -> Q:
    n, d = x
    return _value_at(pairs, _index(pairs, n, d), n, d)


def _reduced_laps(pairs: Pairs) -> list[Lap]:
    """Each lap of f as (xn, xd, p, r, q): its right end's x and its reduced form.

    (p, r, q) is the lap's _lap_form divided by gcd(p, r, q), so q > 0.
    """
    laps = []
    for p0, p1 in _laps(pairs):
        p, r, q = _lap_form(p0, p1)
        g = gcd(p, r, q)
        laps.append((p1[0], p1[1], p // g, r // g, q // g))
    return laps


def _step(laps: list[Lap], n: int, d: int) -> Q:
    """f(n/d) for a point of f's domain, on f's _reduced_laps.

    The bisection finds the first lap whose right end is not left of the
    point.  A lap's form is exact at both its ends, so a breakpoint may
    take the lap it ends as well as the one it starts.
    """
    lo, hi = 0, len(laps) - 1
    while lo < hi:
        mid = (lo + hi) >> 1
        lap = laps[mid]
        if lap[0] * d < n * lap[1]:
            lo = mid + 1
        else:
            hi = mid
    _, _, p, r, q = laps[lo]
    num, den = p * n + r * d, q * d
    g = gcd(num, den)
    return num // g, den // g


def _eval_ascending(pairs: Pairs, xs: list[Q]) -> list[Q]:
    """f at ascending points of its domain, in one pass over its _reduced_laps."""
    laps = _reduced_laps(pairs)
    values, j, last = [], 0, len(laps) - 1
    en, ed, p, r, q = laps[0]  # lap j's right end and form
    for n, d in xs:
        while j < last and en * d < n * ed:  # the point lies right of lap j
            j += 1
            en, ed, p, r, q = laps[j]
        num, den = p * n + r * d, q * d
        g = gcd(num, den)
        values.append((num // g, den // g))
    return values


def _span(pairs: Pairs) -> str:
    """The domain of pairs as printed in error messages."""
    return f"[{_fraction(pairs[0])}, {_fraction(pairs[-1])}]"


def _crossing(p0: Breakpoint, p1: Breakpoint, c: Q) -> Q:
    """The x at which the lap from p0 to p1 takes the value c (not a flat lap)."""
    (x0n, x0d, y0n, y0d), (x1n, x1d, y1n, y1d) = p0, p1
    return _at(_lap_form((y0n, y0d, x0n, x0d), (y1n, y1d, x1n, x1d)), *c)


def _canonical(points: Iterable[Breakpoint]) -> Pairs:
    """Validate increasing x and drop breakpoints collinear with their neighbours.

    The slope of the last kept segment is carried along: a point on its
    line replaces the last kept point instead of following it.
    """
    out: list[Breakpoint] = []
    sn = sd = 0  # slope sn / sd of the last kept segment; sd == 0 before one
    for p in points:
        xn, xd, yn, yd = p
        if out:
            qn, qd, rn, rd = out[-1]
            dx = xn * qd - qn * xd
            if dx <= 0:
                if dx < 0:
                    raise InvalidMap("breakpoint x-values must increase")
                if yn != rn or yd != rd:
                    raise InvalidMap(f"two breakpoints share x = {Fraction(xn, xd)}")
                continue
            tn = (yn * rd - rn * yd) * xd * qd
            td = dx * yd * rd
            if sd and tn * sd == sn * td:
                out[-1] = p
                continue
            sn, sd = tn, td
        out.append(p)
    if len(out) < 2:
        raise InvalidMap("at least two distinct breakpoints required")
    return tuple(out)


def _check_values(pairs: Pairs, f: Pairs) -> None:
    """InvalidMap unless every value of pairs lies in f's domain."""
    (lon, lod), (hin, hid) = f[0][:2], f[-1][:2]
    for _, _, yn, yd in pairs:
        if yn * lod < lon * yd or hin * yd < yn * hid:
            raise InvalidMap(f"value {Fraction(yn, yd)} escapes domain {_span(f)}")


def _compose(outer: Pairs, inner: Pairs) -> Pairs:
    """Canonical breakpoints of x -> outer(inner(x)), in one pass.

    inner's values must lie in outer's domain.  Each lap of inner is cut
    where it crosses a breakpoint x of outer, in the order the lap meets
    them, and the cut takes that breakpoint's y; the cut's x comes from
    the lap's inverse y -> (a y + b) / c, formed once per crossing lap.
    Each value of inner is located among outer's x; one that is a breakpoint
    x of outer takes that breakpoint's y, and only others are evaluated.

    The points come in increasing x, and a cut is never collinear with its
    neighbours: the two outer laps meeting there have different slopes,
    outer being canonical, and the inner lap crosses strictly, so its slope
    is not 0.  So only the image of an inner breakpoint is tested, against
    the carried slope of the last kept segment, as in _canonical.  The kept
    list only grows or replaces its last point, so PieceBudgetExceeded as
    soon as it holds more than the piece cap's points (see budgets) is
    exactly "the canonical result has more than that many breakpoints".
    """
    cap = _caps.get()[0]

    def place(yn: int, yd: int) -> tuple[int, int, Q]:
        """How many outer x are <= y and < y, and outer's value at y."""
        i = _index(outer, yn, yd)
        p = outer[i - 1]
        if p[0] == yn and p[1] == yd:
            return i, i - 1, p[2:]
        return i, i, _at(_lap_form(p, outer[i]), yn, yd)

    laps = iter(inner)
    x0n, x0d, y0n, y0d = next(laps)
    i0, below0, v0 = place(y0n, y0d)
    out = [(x0n, x0d, *v0)]
    loose = False  # out[-1] is a kept inner breakpoint's image, which may go
    sn = sd = 0  # slope sn / sd of the last kept segment, while loose
    for x1n, x1d, y1n, y1d in laps:
        i1, below1, v1 = place(y1n, y1d)
        # outer breakpoints strictly between y0 and y1, in the lap's direction
        dy = y1n * y0d - y0n * y1d
        crossed = outer[i0:below1] if dy > 0 else outer[i1:below0][::-1]
        if crossed:
            # x = (a y + b) / c on the lap, c > 0
            a, b, c = _lap_form((y0n, y0d, x0n, x0d), (y1n, y1d, x1n, x1d))
            if c < 0:
                a, b, c = -a, -b, -c
            cuts = []
            for bn, bd, vn, vd in crossed:
                num, den = a * bn + b * bd, c * bd
                g = gcd(num, den)
                cuts.append((num // g, den // g, vn, vd))
            if loose:
                qn, qd, rn, rd = out[-1]
                xn, xd, yn, yd = cuts[0]
                if (yn * rd - rn * yd) * xd * qd * sd == sn * (xn * qd - qn * xd) * yd * rd:
                    out.pop()
            out += cuts
            loose = False
        qn, qd, rn, rd = out[-1]
        yn, yd = v1
        tn, td = (yn * rd - rn * yd) * x1d * qd, (x1n * qd - qn * x1d) * yd * rd
        if loose and tn * sd == sn * td:
            out[-1] = (x1n, x1d, yn, yd)
        else:
            out.append((x1n, x1d, yn, yd))
            sn, sd, loose = tn, td, True
            if len(out) > cap:
                raise PieceBudgetExceeded(f"composition needs more than {cap} breakpoints")
        x0n, x0d, y0n, y0d, i0, below0 = x1n, x1d, y1n, y1d, i1, below1
    return tuple(out)


def _iterates(f: Pairs, first: Pairs, upto: int) -> Iterator[Pairs]:
    """first, f o first, ..., f^(upto-1) o first: one composition per step.

    f must be a checked self-map and first's values must lie in its
    domain.  Then every value of f o g is a value of f, so each iterate's
    values lie in f's domain without a check.
    """
    pairs = first
    yield pairs
    for _ in range(upto - 1):
        pairs = _compose(f, pairs)
        yield pairs


def _last(items: Iterable[Pairs]) -> Pairs:
    for item in items:
        pass
    return item


def _restrict(pairs: Pairs, lo: Q, hi: Q) -> Pairs:
    """The same function on the nondegenerate subdomain [lo, hi]."""
    if not _holds(pairs, lo, hi) or _le(hi, lo):
        raise OutOfDomain(f"cannot restrict to {_span((lo, hi))}")
    i, j = _locate(pairs, *lo), _locate(pairs, *hi)
    # a breakpoint at hi comes twice; _canonical drops the repeat
    return _canonical([lo + _value_at(pairs, i, *lo), *pairs[i:j], hi + _value_at(pairs, j, *hi)])


def _diagonal_crossing(p0: Breakpoint, p1: Breakpoint, g0: int, g1: int) -> Q:
    """The x strictly inside the lap from p0 to p1 at which f(x) = x.

    g0 and g1 are f(x) - x at the lap's ends times their denominators,
    y d - x d' (see _fixed_structure): nonzero, of opposite signs.
    """
    (x0n, x0d, _, y0d), (x1n, x1d, _, y1d) = p0, p1
    # f(x) - x runs affinely from h0 = g0 / (y0d x0d) at x0 to h1 = g1 / (y1d x1d)
    # at x1, so it vanishes at (x0 h1 - x1 h0) / (h1 - h0); times y0d y1d x0d x1d,
    # that is (x0n u - x1n v) / (x0d u - x1d v) with u = y0d g1 and v = y1d g0
    u, v = y0d * g1, y1d * g0
    num, den = x0n * u - x1n * v, x0d * u - x1d * v
    g = gcd(num, den)
    return (num // g, den // g) if den > 0 else (-num // g, -den // g)


def _fixed_structure(pairs: Pairs) -> Structure:
    """Solutions of f(x) = x on canonical pairs: ascending points, identity laps.

    Endpoints of identity laps are included among the points.  The roots
    come out lap by lap, so they are already ascending: a breakpoint root
    is emitted once, from the lap it starts (or as the last point), and a
    root strictly inside a lap lies where f(x) - x changes sign.  Canonical
    pairs never hold two adjacent identity laps, so each is maximal.
    """
    points: list[Q] = []
    identity: list[tuple[Q, Q]] = []
    p0, rest = pairs[0], islice(pairs, 1, None)
    x0n, x0d, y0n, y0d = p0
    g0 = y0n * x0d - x0n * y0d  # f(x0) - x0 = g0 / (y0d x0d)
    for p1 in rest:
        x1n, x1d, y1n, y1d = p1
        g1 = y1n * x1d - x1n * y1d
        if g0 == 0:
            points.append(p0[:2])
            if g1 == 0:
                identity.append((p0[:2], (x1n, x1d)))
        elif g1 != 0 and (g0 < 0) != (g1 < 0):
            points.append(_diagonal_crossing(p0, p1, g0, g1))
        p0, g0 = p1, g1
    if g0 == 0:
        points.append(p0[:2])
    return points, identity


def _sort_key(qs: Iterable[Q]) -> Callable[[Q], int]:
    """An exact integer sort key for the kernel rationals qs: n / d -> (n << B) // d.

    2^B > D^2 for the largest denominator D in qs.  Two distinct such
    rationals differ by at least 1 / D^2, so times 2^B by more than 1, and
    their floors differ: the key strictly increases with the value.
    """
    bits = 2 * max((d for _, d in qs), default=1).bit_length()
    return lambda q: (q[0] << bits) // q[1]


def _image(pairs: Pairs, lo: Q, hi: Q) -> tuple[Q, Q]:
    """The least and the greatest value of f over [lo, hi]."""
    if not _holds(pairs, lo, hi):
        raise OutOfDomain(f"{_span((lo, hi))} outside domain {_span(pairs)}")
    i, j = _locate(pairs, *lo), _locate(pairs, *hi)
    values = [_value_at(pairs, i, *lo), _value_at(pairs, j, *hi)]
    values += (p[2:] for p in pairs[i:j])
    values.sort(key=_sort_key(values))
    return values[0], values[-1]


def _clip(pairs: Pairs, lo: Q, hi: Q) -> Pairs:
    """f on [lo, hi] for _branches; a point is one lap of width 0."""
    if lo == hi:
        p = lo + _eval_pairs(pairs, lo)
        return p, p
    return _restrict(pairs, lo, hi)


def _hits(p0: Breakpoint, p1: Breakpoint, e0: int, e1: int, c: Q) -> Optional[tuple[Q, Q]]:
    """The first and last x on the lap with f = c, given f - c's signs at its ends."""
    if e0 == 0:
        return p0[:2], p1[:2] if e1 == 0 else p0[:2]
    if e1 == 0:
        return p1[:2], p1[:2]
    if (e0 < 0) == (e1 < 0):
        return None
    x = _crossing(p0, p1, c)
    return x, x


def _branches(clipped: Pairs, K: tuple[Q, Q]) -> list[tuple[Q, Q]]:
    """PwlMap.preimage_branches on f clipped to J (_clip); f(J) must cover K.

    One sweep finds the components of {x in J : f(x) in K}: each lap whose
    values meet K adds its span there, and a span that starts where the
    last ended extends its component (spans in lap order never overlap).
    For degenerate K these are the level set.  Otherwise a component
    offers (first K.lo, last K.hi) and (first K.hi, last K.lo), x where f
    takes those values, when nondegenerate and not inside the other.
    """
    lo, hi = K
    comps: list[list] = []  # [start, end, first lo, last lo, first hi, last hi]
    for p0, p1 in _laps(clipped):
        (_, _, y0n, y0d), (_, _, y1n, y1d) = p0, p1
        s0, s1 = y0n * lo[1] - lo[0] * y0d, y1n * lo[1] - lo[0] * y1d  # f - K.lo
        t0, t1 = y0n * hi[1] - hi[0] * y0d, y1n * hi[1] - hi[0] * y1d  # f - K.hi
        if (s0 < 0 and s1 < 0) or (t0 > 0 and t1 > 0):
            continue  # the lap's values miss K
        at_lo = _hits(p0, p1, s0, s1, lo)
        at_hi = at_lo if lo == hi else _hits(p0, p1, t0, t1, hi)
        start = p0[:2] if s0 >= 0 >= t0 else at_lo[0] if s0 < 0 else at_hi[0]
        end = p1[:2] if s1 >= 0 >= t1 else at_lo[1] if s1 < 0 else at_hi[1]
        if not comps or comps[-1][1] != start:
            comps.append([start, end, None, None, None, None])
        comp = comps[-1]
        comp[1] = end
        if at_lo:
            comp[2], comp[3] = comp[2] or at_lo[0], at_lo[1]
        if at_hi:
            comp[4], comp[5] = comp[4] or at_hi[0], at_hi[1]
    if lo == hi:
        return [(comp[0], comp[1]) for comp in comps]
    branches: list[tuple[Q, Q]] = []
    for _, _, first_lo, last_lo, first_hi, last_hi in comps:
        if first_lo is None or first_hi is None:
            continue  # the component does not map onto all of K
        cands = []
        if not _le(last_hi, first_lo):
            cands.append((first_lo, last_hi))
        if not _le(last_lo, first_hi):
            cands.append((first_hi, last_lo))
        # inclusion-maximal only: with two candidates one may swallow the other
        branches += [
            c for c in cands
            if not any(o != c and _le(o[0], c[0]) and _le(c[1], o[1]) for o in cands)
        ]
    # no two branches start together: a start maps onto K.lo or K.hi, and
    # the components are disjoint
    if len(branches) > 1:
        key = _sort_key([c[0] for c in branches])
        branches.sort(key=lambda c: key(c[0]))
    return branches


def _intervals(spans: Iterable[tuple[Q, Q]]) -> list[Interval]:
    return [Interval(_fraction(a), _fraction(b)) for a, b in spans]


def _fixed_points(structure: Structure) -> "FixedPoints":
    """A _fixed_structure result, points and identity laps, as Fractions."""
    points, laps = structure
    return FixedPoints(tuple(map(_fraction, points)), tuple(_intervals(laps)))


def _solve_on(f: Pairs, lo: Q, hi: Q, n: int) -> Structure:
    """_fixed_structure of f^n on [lo, hi]; a degenerate window is one walk."""
    if lo == hi:
        cur = lo
        for _ in range(n):
            cur = _eval_pairs(f, cur)
        return [lo] if cur == lo else [], []
    return _fixed_structure(_last(_iterates(f, _restrict(f, lo, hi), n)))


def fixed_structure_on(f: "PwlMap", window: Interval, n: int = 1) -> "FixedPoints":
    """Solutions of f^n(x) = x for x in the window: points plus identity laps.

    f is restricted to the window before it is composed, so the work
    scales with the window's share of the breakpoints.  A degenerate
    window yields its point when f^n fixes it.
    """
    return _fixed_points(_solve_on(f._pairs, *window._span, n))


def level_set_on(f: "PwlMap", c: Fraction, window: Interval) -> list[Interval]:
    """Maximal closed components of {x in window : f(x) = c}, ascending."""
    return _intervals(_branches(_clip(f._pairs, *window._span), (_q(c),) * 2))


# ---------------------------------------------------------------------------
# the public map type
# ---------------------------------------------------------------------------


@dataclass(frozen=True, init=False, repr=False)
class PwlMap:
    """A continuous piecewise-linear self-map of a compact interval.

    ``breakpoints`` is an ordered tuple of (x, y) pairs with strictly
    increasing x; the map is the linear interpolant between consecutive
    pairs.  The domain is [first x, last x] and every y must lie inside it
    (self-map).  Breakpoints are normalised on construction, so two PwlMap
    values are equal exactly when they are the same function.  The map
    holds the kernel's integer form and builds the Fraction ``breakpoints``
    from it on first use, so an iterate that is only solved keeps one copy.

    >>> tent = PwlMap([(0, 0), ("1/2", 1), (1, 0)])
    >>> tent(Fraction(1, 3))
    Fraction(2, 3)
    """

    _pairs: Pairs

    def __init__(self, breakpoints: Iterable[tuple[RationalLike, RationalLike]]) -> None:
        flat = []
        for x, y in breakpoints:
            x, y = as_fraction(x), as_fraction(y)
            flat.append((x.numerator, x.denominator, y.numerator, y.denominator))
        pairs = _canonical(flat)
        _check_values(pairs, pairs)
        object.__setattr__(self, "_pairs", pairs)

    @classmethod
    def _of(cls, pairs: Pairs) -> "PwlMap":
        """Wrap canonical pairs the kernel made from a checked self-map."""
        f = object.__new__(cls)
        object.__setattr__(f, "_pairs", pairs)
        return f

    @cached_property
    def breakpoints(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(
            (Fraction(xn, xd), Fraction(yn, yd)) for xn, xd, yn, yd in self._pairs
        )

    def __repr__(self) -> str:
        return f"PwlMap(breakpoints={self.breakpoints!r})"

    @property
    def domain(self) -> Interval:
        return Interval(_fraction(self._pairs[0]), _fraction(self._pairs[-1]))

    def __call__(self, x: RationalLike) -> Fraction:
        return _fraction(_eval_pairs(self._pairs, _q(as_fraction(x))))

    def iterate(self, n: int) -> "PwlMap":
        """The exact n-fold composition as a PwlMap, by repeated squaring.

        floor(log2 n) + popcount(n) - 1 compositions where the chain f, f^2,
        ..., f^n takes n - 1: 5 and 16,729 breakpoints against 13 and 32,777
        for tent^14.  Each composition is one pass that keeps its result
        canonical as it cuts, and raises exactly when that result passes
        the piece cap (see :func:`budgets`).  Each power and product is an
        iterate f^j with j <= n, which the chain builds too: so
        :class:`PieceBudgetExceeded` comes only where the chain raises.
        """
        _require_order(n)
        power, result = self._pairs, None
        for i, bit in enumerate(bin(n)[:1:-1]):  # the low bit first
            if i:
                power = _compose(power, power)
            if bit == "1":
                result = power if result is None else _compose(power, result)
        return PwlMap._of(result)

    def image(self, J: Interval) -> Interval:
        """The exact image interval f(J) = [min f, max f] over J."""
        least, most = _image(self._pairs, *J._span)
        return Interval(_fraction(least), _fraction(most))

    def covers(self, J: Interval, K: Interval) -> bool:
        """True when f(J) contains K."""
        lo, hi = K._span
        if not _holds(self._pairs, lo, hi):
            raise OutOfDomain(f"{K} outside domain {self.domain}")
        least, most = _image(self._pairs, *J._span)
        return _le(least, lo) and _le(hi, most)

    def preimage_branches(self, J: Interval, K: Interval) -> list[Interval]:
        """Maximal closed L inside J with f(L) = K and endpoints onto K's endpoints.

        Requires that f(J) covers K.  The returned branches are ordered by
        left endpoint and pairwise non-nested.  For degenerate K these are
        the components of the level set inside J.  Within every component
        of {x in J : f(x) in K} whose image is all of K and whose endpoints
        map onto K's boundary, the branches cover the component.  They come
        from one sweep over f's laps clipped to J, the same core that
        follows the chains of :func:`follow_cycle`.
        """
        if not self.covers(J, K):
            raise NotCovering(f"f({J}) does not contain {K}")
        return _intervals(_branches(_clip(self._pairs, *J._span), K._span))

    def clamp(self, lo: RationalLike, hi: RationalLike) -> "PwlMap":
        """median(lo, f(x), hi) with exact breakpoints where f crosses the bounds."""
        lo, hi = as_fraction(lo), as_fraction(hi)
        dom = self.domain
        if not (dom.lo <= lo <= hi <= dom.hi):
            raise OutOfDomain(f"bounds [{lo}, {hi}] not nested in {dom}")
        lo, hi = _q(lo), _q(hi)
        cuts = [self._pairs[0]]
        for p0, p1 in _laps(self._pairs):
            for c in (lo, hi) if _le(p0[2:], p1[2:]) else (hi, lo):
                # a bound strictly between the lap's end values is crossed inside it
                if (c[0] * p0[3] - p0[2] * c[1]) * (c[0] * p1[3] - p1[2] * c[1]) < 0:
                    cuts.append(_crossing(p0, p1, c) + c)
            cuts.append(p1)
        return PwlMap._of(_canonical(
            p[:2] + (lo if _le(p[2:], lo) else hi if _le(hi, p[2:]) else p[2:])
            for p in cuts
        ))


def connect_the_dots_points(m: int) -> list[Fraction]:
    """The m equally spaced support points (i-1)/(m-1) on [0, 1]."""
    if m < 2:
        raise ValueError("need at least two points")
    return [Fraction(i, m - 1) for i in range(m)]


# ---------------------------------------------------------------------------
# periodic point enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedPoints:
    """Solutions of f^k(x) = x: isolated points plus flagged identity laps.

    Whole laps on which the iterate is the identity are reported through
    ``identity_laps`` (their endpoints also appear among the points); the
    sequence protocol exposes the isolated-plus-endpoint point list.
    """

    points: tuple[Fraction, ...]
    identity_laps: tuple[Interval, ...] = ()

    @property
    def has_continuum(self) -> bool:
        return bool(self.identity_laps)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.points)

    def __getitem__(self, i: int) -> Fraction:
        return self.points[i]

    def __contains__(self, x: object) -> bool:
        return x in self.points


@dataclass(frozen=True)
class PeriodicOrbits:
    """Finite orbits of one least period, plus intervals carrying continua.

    ``continuum`` lists identity laps of the k-th iterate that contain
    uncountably many points of least period exactly k (after removing the
    solution sets of all proper-divisor iterates).
    """

    orbits: tuple[Orbit, ...]
    continuum: tuple[Interval, ...] = ()

    def __len__(self) -> int:
        return len(self.orbits)

    def __iter__(self) -> Iterator[Orbit]:
        return iter(self.orbits)

    def __getitem__(self, i: int) -> Orbit:
        return self.orbits[i]


def fixed_points_of_iterate(f: PwlMap, k: int) -> FixedPoints:
    """All exact solutions of f^k(x) = x, ascending and deduplicated."""
    return _fixed_points(_fixed_structure(f.iterate(k)._pairs))


def _orbit_walk(f: Pairs, y: Q, k: int) -> list[Q]:
    """y, f(y), ... up to the first return to y, which must come at a divisor of k.

    The walk's length is then the least period of y.
    """
    traj = [y]
    cur = _eval_pairs(f, y)
    while cur != y and len(traj) < k:
        traj.append(cur)
        cur = _eval_pairs(f, cur)
    if cur != y or k % len(traj):
        raise NotAnOrbit(f"{_fraction(y)} is not fixed by the {k}-th iterate")
    return traj


def least_period(f: PwlMap, y: RationalLike, k: int) -> int:
    """The least period of y given that f^k(y) = y (it divides k)."""
    _require_order(k)
    return len(_orbit_walk(f._pairs, _q(as_fraction(y)), k))


def orbit_of(f: PwlMap, y: RationalLike, max_steps: int = 10_000) -> Orbit:
    """Follow y under f until it returns; error if it is not periodic.

    The points are matched as kernel pairs and sorted by one exact integer
    key each (see _sort_key), so no two Fractions are compared.
    """
    y = as_fraction(y)
    start = _q(y)
    visited, current = {start}, y
    for _ in range(max_steps):
        current = f(current)
        q = _q(current)
        if q == start:
            return Orbit._of(tuple(sorted(visited, key=_sort_key(visited))))
        if q in visited:
            raise NotAnOrbit(f"{y} is pre-periodic, not periodic")
        visited.add(q)
    raise NotAnOrbit(f"{y} did not return within {max_steps} steps")


def point_of_least_period_in_lap(f: PwlMap, k: int, lap: Interval) -> Optional[Fraction]:
    """A point of least period exactly k inside an identity lap of f^k.

    The lap's left end when it has least period k, else its midpoint when
    that has, else None: see _lap_point.  Nothing is composed.
    """
    rep = _lap_point(f._pairs, k, *lap._span)
    return None if rep is None else _fraction(rep)


def _lap_point(f: Pairs, k: int, lo: Q, hi: Q) -> Optional[Q]:
    """point_of_least_period_in_lap on the lap [lo, hi], by two orbit walks.

    Let L be the maximal interval holding [lo, hi] on which f^k = id.  Each
    f^i(L) is again one, since f^(k-i) maps it back into L, and two such
    intervals are equal or disjoint.  Let j be the least i >= 1 with
    f^i(L) = L; f^j is injective, so monotone, on L.  Increasing with
    finite order, it is the identity, and every point of L has least
    period j.  Decreasing, it has one fixed point p, of least period j,
    and f^(2j) = id on L, so every other point has least period 2j.  So
    [lo, hi] holds a point of least period k exactly when lo has one, or,
    if lo = p, when the midpoint has.
    """
    if k == 1:
        return lo
    # the midpoint: the value at 1 of the line through (0, lo) and (2, hi)
    for c in (lo, _at(_lap_form((0, 1, *lo), (2, 1, *hi)), 1, 1)):
        if len(_orbit_walk(f, c, k)) == k:
            return c
    return None


def _census(f: PwlMap, k: int, fixed: Structure) -> PeriodicOrbits:
    """Sort the solutions of f^k(x) = x into the orbits of least period k.

    ``fixed`` is the _fixed_structure of f^k, whose points f permutes.  One
    pass evaluates f once at each; the permutation's cycles, walked from the
    lowest position, are the orbits by minimum, and one ascending pass over
    the positions, labelled by cycle, fills each in order, comparing no two
    rationals.  NotAnOrbit unless f maps points to points in cycles whose lengths divide k.
    """
    points, laps = fixed
    position = {y: i for i, y in enumerate(points)}
    successor = [position.get(v) for v in _eval_ascending(f._pairs, points)]
    lowest = [-1] * len(points)  # each walked position's cycle, by its lowest position
    kept: dict[int, list[Q]] = {}  # the orbits of least period k, by lowest position
    for start in range(len(points)):
        if lowest[start] >= 0:
            continue
        i, length = start, 0
        while i is not None and lowest[i] < 0 and length < k:
            lowest[i], length, i = start, length + 1, successor[i]
        if i != start or k % length:
            y = _fraction(points[start])
            raise NotAnOrbit(f"{y} is not fixed by the {k}-th iterate")
        if length == k:
            kept[start] = []
    for y, start in zip(points, lowest):  # ascending, so each orbit fills in order
        if start in kept:
            kept[start].append(y)
    continuum = _intervals(
        (lo, hi) for lo, hi in laps if _lap_point(f._pairs, k, lo, hi) is not None
    )
    return PeriodicOrbits(tuple(map(Orbit._of, map(tuple, kept.values()))), tuple(continuum))


def periodic_orbits(f: PwlMap, k: int) -> PeriodicOrbits:
    """All orbits of least period exactly k, ordered by minimum point.

    Identity laps of f^k that still contain least-period-k points after
    removing every smaller-period solution set are reported as flagged
    continuum components rather than enumerated.  Equal to the last item
    of :func:`periodic_orbits_upto` with the same k.
    """
    return _census(f, k, _fixed_structure(f.iterate(k)._pairs))


def periodic_orbits_upto(f: PwlMap, upto: int) -> Iterator[PeriodicOrbits]:
    """periodic_orbits(f, k) for k = 1, ..., upto, in order.

    Each iterate is composed once, from the one before, so a spectrum up
    to J performs J - 1 compositions.  A composition over the piece cap
    in force at the advance that needs it raises there, at the same k in
    either order, and ends the generator.
    """
    if upto < 1:
        raise ValueError("period bound must be >= 1")
    return _censuses(f, upto)


def _censuses(f: PwlMap, upto: int) -> Iterator[PeriodicOrbits]:
    """periodic_orbits_upto's censuses, each iterate composed as f^(k-1) o f.

    Powers of f commute and canonical breakpoints are unique, so these are
    the pairs of f o f^(k-1), and _compose raises exactly when they pass
    the piece cap: at the same k, with the same message.  With f inner, its
    few laps cut f^(k-1)'s breakpoints in _compose's tight crossing loop,
    with no per-lap overhead on each of f^(k-1)'s laps.
    """
    g = f._pairs
    for k in range(1, upto + 1):
        g = g if k == 1 else _compose(g, f._pairs)
        yield _census(f, k, _fixed_structure(g))


def orbit_permutation(f: PwlMap, orbit: Orbit) -> Optional[tuple[int, ...]]:
    """The one-line rank map sigma of the orbit: f(x_i) = x_sigma(i).

    Ranks count from 1 over the ascending points, and ``sigma[i - 1]`` is
    sigma(i).  None unless f permutes the points in a single cycle.  It
    runs on kernel pairs and builds no Fraction.
    """
    pts = orbit._pairs
    rank = {p: i for i, p in enumerate(pts, start=1)}
    try:
        sigma = tuple(rank.get(_eval_pairs(f._pairs, p)) for p in pts)
    except OutOfDomain:
        return None
    if None in sigma:
        return None
    cur, steps = sigma[0], 1
    while cur != 1 and steps < len(pts):
        cur, steps = sigma[cur - 1], steps + 1
    return sigma if cur == 1 and steps == len(pts) else None


def is_orbit_of(f: PwlMap, orbit: Orbit) -> bool:
    """True when f permutes the orbit's points in a single cycle."""
    return orbit_permutation(f, orbit) is not None


def highest_orbit_below(f: PwlMap, k: int, c: RationalLike) -> Optional[Orbit]:
    """Among f's least-period-k orbits with minimum below c, the one of highest minimum.

    None when there is none.  f^k is composed whole, then solved one lap
    at a time from the lap holding c downward, and f is walked from each
    solution below c as it comes, on f's laps reduced once.  The answer is
    the first walk that returns after exactly k steps without going below
    its start: an exact orbit walk from its minimum.  The minimum of each
    orbit below c is such a solution, and every higher one was walked and
    rejected, so the laps below the answer are never solved.
    Raises PreconditionError when f^k has an identity lap left of c,
    whose points form a continuum: one pass over the breakpoints left of
    c looks for two adjacent ones on the diagonal, before any walk.
    """
    c = as_fraction(c)
    cq = _q(c)
    g = f.iterate(k)._pairs
    below = _locate(g, *cq)  # the breakpoints at or left of c
    if below and g[below - 1][:2] == cq:
        below -= 1  # now those strictly left of c
    # the breakpoints on the diagonal up to c's lap; two adjacent ones bound an identity lap
    on = [i for i, p in enumerate(islice(g, below + 1)) if p[0] == p[2] and p[1] == p[3]]
    if any(j - i == 1 for i, j in zip(on, islice(on, 1, None))):
        raise PreconditionError(f"f^{k} is the identity on a lap left of {c}")
    laps = _reduced_laps(f._pairs)
    for y in _solutions_below(g, below, cq):
        yn, yd = y
        walk, (n, d) = [y], _step(laps, yn, yd)
        # until the walk returns to y, reaches k points or goes below y
        while (n != yn or d != yd) and len(walk) < k and yn * d <= n * yd:
            walk.append((n, d))
            n, d = _step(laps, n, d)
        if n == yn and d == yd and len(walk) == k:
            return Orbit._of(tuple(sorted(walk, key=_sort_key(walk))))
    return None


def _solutions_below(pairs: Pairs, below: int, c: Q) -> Iterator[Q]:
    """The solutions of f(x) = x below c, descending, solved one lap at a time.

    ``below`` counts the breakpoints left of c, and no lap starting at one
    of them is an identity lap.  Lap i from x_i to x_(i+1) yields its
    crossing inside (x_i, x_(i+1)) when that lies below c, then x_i when
    f fixes it; the last breakpoint has no lap and yields only itself.
    """
    g1 = 0  # f(x) - x at the lap's right end, as in _fixed_structure; 0 past the last
    if below < len(pairs):
        xn, xd, yn, yd = pairs[below]
        g1 = yn * xd - xn * yd
    for i in range(below - 1, -1, -1):
        x0n, x0d, y0n, y0d = p0 = pairs[i]
        g0 = y0n * x0d - x0n * y0d
        if g0 != 0 and g1 != 0 and (g0 < 0) != (g1 < 0):
            root = _diagonal_crossing(p0, pairs[i + 1], g0, g1)
            if not _le(c, root):
                yield root
        if g0 == 0:
            yield p0[:2]
        g1 = g0


# ---------------------------------------------------------------------------
# Markov partitions and their closed-walk counts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkovGraph:
    """Edge (i, j): node i maps over node j; a node mapped to a point has none."""

    node_count: int
    edges: frozenset[tuple[int, int]]

    @classmethod
    def from_images(cls, image: list[int]) -> "MarkovGraph":
        """The graph of points 0, 1, ... with point i mapped to point image[i].

        Node i lies between points i - 1 and i, and covers every node
        between its ends' images: none when they are one point.
        """
        edges = frozenset(
            (i, j)
            for i, (a, b) in enumerate(zip(image, image[1:]), start=1)
            for j in range(min(a, b) + 1, max(a, b) + 1)
        )
        return cls(len(image) - 1, edges)

    @cached_property
    def _successors(self) -> dict[int, list[int]]:
        """Each node's successors, ascending, built once per graph."""
        succ: dict[int, list[int]] = {i: [] for i in range(1, self.node_count + 1)}
        for a, j in sorted(self.edges):
            succ.setdefault(a, []).append(j)
        return succ

    def successors(self, i: int) -> list[int]:
        return list(self._successors.get(i, ()))

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self.edges

    def to_dot(self) -> str:
        lines = ["digraph covering {"]
        for i, j in sorted(self.edges):
            lines.append(f"  {i} -> {j};")
        lines.append("}")
        return "\n".join(lines)


def _partition(f: Pairs, limit: int) -> tuple[list[int], MarkovGraph]:
    """markov_partition within limit points, and the position in S of f at each point of S."""
    closure, new = set(), {p[:2] for p in f}
    while new:
        closure |= new
        if len(closure) > limit:
            raise PieceBudgetExceeded(f"the breakpoints' closure passes {limit} points")
        new = {_eval_pairs(f, y) for y in new} - closure
    points = sorted(closure, key=_sort_key(closure))
    position = {y: i for i, y in enumerate(points)}
    image = [position[v] for v in _eval_ascending(f, points)]
    return image, MarkovGraph.from_images(image)


def markov_partition(f: PwlMap) -> MarkovGraph:
    """The covering graph of the nodes between consecutive points of S.

    S, the forward closure of f's breakpoints, holds them and f(S) lies in
    S, so each node maps affinely onto the nodes between its ends' images,
    or onto a point; for a pattern's connect-the-dots map this is
    markov_graph(pattern).  PieceBudgetExceeded past the piece cap's points.
    """
    return _partition(f._pairs, _caps.get()[0])[1]


def iter_closed_walks(graph: MarkovGraph, n: int) -> Iterator[tuple[int, ...]]:
    """Closed walks of length n, one per rotation class: the least rotations, ascending.

    The necklace generator of Fredricksen, Kessler and Maiorana, in the
    prefix-period form of Cattell et al. (J. Algorithms 37, 2000), visits
    each prenecklace (a prefix of a least rotation) once, in lexicographic
    order, with p the length of its longest Lyndon prefix: a_1 .. a_t
    extends by a_(t+1) >= a_(t+1-p), keeping p if they are equal, else p
    becomes t + 1.  A prenecklace of length n is a least rotation exactly
    when p | n.  Every prefix of a closed walk is a path, so extending only
    along edges loses none, and the closing edge decides the rest.
    WalkBudgetExceeded when walk number walk cap + 1 appears.
    """
    if n < 1:
        raise ValueError("walk length must be >= 1")
    cap, tried = _caps.get()[1], 0
    succ = graph._successors
    # stack[t] yields (node, p) for position t: explicit, so no recursion limit caps n
    walk: list[int] = []
    stack = [iter([(i, 1) for i in range(1, graph.node_count + 1)])]
    while stack:
        node, p = next(stack[-1], (0, 0))
        if not node:  # position exhausted: back up one
            stack.pop()
            del walk[-1:]
        elif len(walk) + 1 < n:
            walk.append(node)
            low, t = walk[-p], len(walk)
            stack.append(iter([(i, p if i == low else t + 1) for i in succ[node] if i >= low]))
        elif n % p == 0 and graph.has_edge(node, walk[0] if walk else node):
            tried += 1
            if tried > cap:
                raise WalkBudgetExceeded(f"more than {cap} closed walks of length {n}")
            yield (*walk, node)


def primitive_walk_counts(graph: MarkovGraph, upto: int) -> list[int]:
    """[0, p(1), ..., p(upto)]: p(k) closed walks of length k repeat no shorter walk.

    Walks count once per starting node.  tr(A^k) counts every closed walk
    of length k, and one repeating a primitive walk of length d < k is
    counted in p(d).  A is 0/1, so row i of A^k is the sum of the rows of
    A^(k-1) at i's successors, or zero without any: the powers take
    additions only.  Each length spends one unit of the walk cap per
    addition, entries and divisor terms alike, and per 64-bit word of the
    largest entry M of the power before, so the cap bounds the counts'
    time and size.  Once A^k = 0, A is nilpotent: every trace so far was 0
    and every later one is, so the remaining counts are 0 and spend nothing;
    past the walk cap of them the list is refused (:func:`require_listable`).

    Row i is one int, entry j in bits [j w, (j + 1) w) and the row sum s_i
    in field n, so one addition adds n entries and keeps s_i exact.  Sums
    of nonnegative fields carry nowhere while each result field is below
    2^w; a field is at most its row's s_i <= fan^k < 2^(k b), fan being the
    largest out-degree and b its bit length.  So w = 64 serves when
    upto b <= 62; else w is widened before the largest s_i, top, can pass
    it in the next power, where every s_i is at most fan top.  The largest
    of n entries summing to top has top // n <= M <= top, so M is read off
    the fields only when those bounds differ in 64-bit words.
    """
    n, cap = graph.node_count, _caps.get()[1]
    succ = [[j - 1 for j in graph._successors[i]] for i in range(1, n + 1)]
    additions = n * len(graph.edges)  # entry additions per power
    fan = max(map(len, succ), default=0)
    wide = upto * fan.bit_length() > 62
    spent, words, width, mask, top = 0, 1, 64, (1 << 64) - 1, 1
    rows = [(1 << i * width) + (1 << n * width) for i in range(n)]
    prim = [0]
    # sieve of proper divisors: sieve[k] lists the d < k seen so far with d | k
    sieve: dict[int, list[int]] = {}
    for k in range(1, upto + 1):
        shorter = sieve.pop(k, [])
        spent += (additions + len(shorter)) * words
        if spent > cap:
            raise WalkBudgetExceeded(f"more than {cap} walk-count additions by length {k}")
        if wide and (fan * top).bit_length() > width:
            old, width = width, 2 * (fan * top).bit_length()
            rows = [sum(((r >> j * old) & mask) << j * width for j in range(n + 1)) for r in rows]
            mask = (1 << width) - 1
        power, trace = [], 0
        for i, s in enumerate(succ):  # plain loops: the fastest way here
            row = 0
            for j in s:
                row += rows[j]
            power.append(row)
            trace += (row >> i * width) & mask
        rows = power
        if not any(rows):
            require_listable(upto, "walk counts")
            return prim + [0] * (upto + 1 - k)
        prim.append(trace - sum(prim[d] for d in shorter))
        for d in (*shorter, k):
            sieve.setdefault(k + d, []).append(d)
        if wide:
            top = max(r >> n * width for r in rows)
            words = 1 + (top // n).bit_length() // 64
            if words != 1 + top.bit_length() // 64:
                entries = ((r >> j * width) & mask for r in rows for j in range(n))
                words = 1 + max(entries).bit_length() // 64
    return prim


def markov_orbit_counts(f: PwlMap, upto: int) -> Optional[list[int]]:
    """[0, n(1), ..., n(upto)]: n(k) orbits of least period k, from walk counts.

    None when a nonflat lap has slope at most 1 in absolute value, or when
    S (see :func:`markov_partition`) does not close within the piece cap's
    points, nor within upto times f's breakpoint count, past which f is
    taken for a map that is not Markov.  The counts p(k) run under the
    walk cap and raise WalkBudgetExceeded past it.  Otherwise every
    lap is flat or steeper than slope 1, so no iterate has an identity
    lap, and f^k maps the points following a closed walk of length k
    affinely, expanding, onto its first node, which holds them: one is
    fixed, the only one following the walk forever.  So a periodic point
    whose orbit misses S follows one walk, primitive exactly when its least
    period is k.  A point x of S ends one or two nodes, its sides, and each
    leads to at most one side of f(x), so x's period q maps its sides by
    some phi.  x follows one closed walk per side on a cycle of phi, of
    primitive length q l for a cycle of length l (a shorter period d makes
    f^d fix x, so q | d, and d = q would put x on both sides).  So k n(k) =
    p(k) + k per orbit of period k in S - q per side on a phi-cycle of
    length k / q, over the orbits in S: by Mobius inversion, #Fix(f^k) =
    tr(A^k) - the sum over x in S fixed by f^k of W_k(x) - 1, W_k(x) being
    the walks x follows, the trace of the 0/1 side-transfer matrices along
    x's orbit.
    """
    if any(0 < abs(p) <= d for p, _, d in (_lap_form(*lap) for lap in _laps(f._pairs))):
        return None
    try:
        image, graph = _partition(f._pairs, min(_caps.get()[0], upto * len(f._pairs)))
    except PieceBudgetExceeded:
        return None
    points = primitive_walk_counts(graph, upto)

    periodic, on_s = set(range(len(image))), Counter()
    while (moved := {image[i] for i in periodic}) != periodic:
        periodic = moved
    while periodic:
        orbit = [periodic.pop()]
        while image[orbit[-1]] != orbit[0]:
            orbit.append(image[orbit[-1]])
        periodic -= set(orbit)
        q, phi = len(orbit), {None: None, 0: 0, 1: 1}
        for s, x in product((0, 1), orbit):  # sides: 0 left, 1 right
            end = -1 if phi[s] is None else x + 2 * phi[s] - 1  # the node's other end
            lost = not 0 <= end < len(image) or image[end] == image[x]  # no side, or flat
            phi[s] = None if lost else int(image[end] > image[x])
        on_s[q] += q
        for s in (0, 1):
            on_s[q * (1 if phi[s] == s else 2 if phi[phi[s]] == s else 0)] -= q
    return [0] + [(points[k] + on_s[k]) // k for k in range(1, upto + 1)]


# ---------------------------------------------------------------------------
# points following an interval cycle
# ---------------------------------------------------------------------------


def require_cycle(f: PwlMap, loop: IntervalLoop) -> None:
    """Raise NotCovering at the first i where f(J_i) does not cover J_(i+1 mod n)."""
    checked = set()  # a loop often repeats a step; each is checked once
    for i, J in enumerate(loop):
        K = loop[(i + 1) % len(loop)]
        if (J._span, K._span) not in checked:
            if not f.covers(J, K):
                raise NotCovering(f"f({J}) does not cover {K} at position {i}")
            checked.add((J._span, K._span))


def follow_cycle(
    f: PwlMap, loop: IntervalLoop, require_least_period: bool = False
) -> Optional[Fraction]:
    """The first point y met with f^i(y) in J_i for each i and f^n(y) = y.

    The loop must be a cycle (see :func:`require_cycle`).  When every J_i
    is nondegenerate and lies in one lap of nonzero slope, f^n is affine on
    the one chain start and is solved once, also as the identity at slope
    product +1.  Otherwise the chains are searched leftmost first, one
    sweep per level over f clipped to each distinct J_i once, and f^n is
    solved once on a lap-aligned chain, else composed on its start.  With
    ``require_least_period`` only a point of least period exactly n is
    accepted, and each identity lap of f^n on a chain start offers the
    representative of :func:`point_of_least_period_in_lap`.  None when no
    point qualifies.  Only the returned point becomes a Fraction.
    """
    pairs, spans = f._pairs, [J._span for J in loop]
    n = len(spans)
    for y in _cycle_candidates(pairs, spans, require_least_period):
        period = _return_time(pairs, y, spans)
        if period is not None and (not require_least_period or period == n):
            return _fraction(y)
    return None


def _cycle_candidates(f: Pairs, spans: list[tuple[Q, Q]], least: bool) -> Iterator[Q]:
    """The solutions of f^n(x) = x on the chain starts, in search order.

    A lap-aligned cycle offers the structure of f^n on its one chain start,
    each other chain its own: solved once when lap-aligned, else composed.
    A structure offers its points ascending and, when a least period is
    required, the representative of each identity lap that has one.
    """
    n = len(spans)
    aligned = _lap_aligned_structure(f, spans)
    structures = [aligned] if aligned is not None else (
        _lap_aligned_structure(f, chain) or _solve_on(f, *chain[0], n)
        for chain in _chains(f, spans)
    )
    for points, laps in structures:
        yield from points
        if least:
            for a, b in laps:
                rep = _lap_point(f, n, a, b)
                if rep is not None:
                    yield rep


def _lap_aligned_structure(f: Pairs, spans: list[tuple[Q, Q]]) -> Optional[Structure]:
    """_fixed_structure of f^n on the chain start, for lap-aligned spans.

    Spans are lap-aligned when each is nondegenerate and lies in one lap.
    They are a cycle J_0 .. J_(n-1), whose one chain lies in its laps, or
    a chain L_0 .. L_(n-1) of one: L_i in J_i, f(L_i) = L_(i+1), and L_n =
    J_0 holds L_0.  A flat lap covers only a point, so f^n maps L_0 in J_0
    affinely onto J_0, by x -> A x + B.  With A != 1 its one root
    B / (1 - A) lies in L_0, where f^n(x) - x keeps no strict sign, and is
    all that _fixed_structure finds for f^n restricted to L_0.  A slope
    A = 1 forces L_0 = J_0 and B = 0, and f^n is the identity there.  None
    when the spans are not lap-aligned.
    """
    u, v, w = 1, 0, 1  # f^i on L_0 is x -> (u x + v) / w, w > 0
    for lo, hi in spans:
        i = _locate(f, *lo)
        if lo == hi or not 0 < i < len(f) or not _le(hi, f[i]):
            return None
        p, r, d = _lap_form(f[i - 1], f[i])
        u, v, w = p * u, p * v + r * w, d * w
        g = gcd(u, v, w)
        u, v, w = u // g, v // g, w // g
    if u == w:
        return list(spans[0]), [spans[0]]
    return [_at((0, v, w - u), 1, 1)], []


def _chains(f: Pairs, spans: list[tuple[Q, Q]]) -> Iterator[list[tuple[Q, Q]]]:
    """Every chain [L_0, .., L_(n-1)] with L_i in J_i and f(L_i) = L_(i+1).

    Here L_n = J_0.  The chains are built backward from L_(n-1) with an
    explicit stack, leftmost branch first at every level, so the emitted
    order is deterministic and no recursion limit caps n.  Each level is
    one _branches sweep over f clipped to each distinct span once.
    """
    n = len(spans)
    clipped = {J: _clip(f, *J) for J in set(spans)}
    stack = [iter(_branches(clipped[spans[-1]], spans[0]))]
    chain = list(spans)  # chain[n - k] is the branch taken at depth k
    while stack:
        branch = next(stack[-1], None)
        if branch is None:
            stack.pop()
            continue
        chain[n - len(stack)] = branch
        if len(stack) == n:
            yield list(chain)
        else:
            stack.append(iter(_branches(clipped[spans[n - 1 - len(stack)]], branch)))


def _return_time(f: Pairs, y: Q, spans: list[tuple[Q, Q]]) -> Optional[int]:
    """The least period of y when f^i(y) lies in J_i for each i and f^n(y) = y.

    One walk of n steps checks the itinerary and notes the first return;
    None when the itinerary fails.
    """
    cur, first_return = y, None
    for i, (lo, hi) in enumerate(spans, start=1):
        if not (_le(lo, cur) and _le(cur, hi)):
            return None
        cur = _eval_pairs(f, cur)
        if first_return is None and cur == y:
            first_return = i
    return first_return if cur == y else None
