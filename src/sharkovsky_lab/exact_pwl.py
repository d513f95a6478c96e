"""Exact piecewise-linear self-maps of a compact rational interval.

Everything runs in exact rational arithmetic (``fractions.Fraction``); no
floating point enters any computation, so least-period claims reduce to
exact equality.  A map is stored as its ordered breakpoint list, kept in
canonical form (no three consecutive collinear breakpoints), which makes
structural equality coincide with functional equality on a common domain.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

from .errors import (
    BadClampBounds,
    NonMonotoneBreakpoints,
    NotAnOrbit,
    NotCovering,
    NotSelfMap,
    OutOfDomain,
    PieceBudgetExceeded,
)
from .sharkovsky_order import divisors

RationalLike = Union[Fraction, int, str]

#: Cap on the breakpoint count of any composed map.  Exceeding it raises
#: :class:`PieceBudgetExceeded` rather than truncating silently.
DEFAULT_PIECE_BUDGET = 1 << 20


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


@dataclass(frozen=True)
class Orbit:
    """A finite periodic orbit, stored as its ascending point list."""

    points: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        pts = tuple(sorted(as_fraction(p) for p in self.points))
        if not pts:
            raise NotAnOrbit("an orbit needs at least one point")
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise NotAnOrbit(f"duplicate orbit point {a}")
        object.__setattr__(self, "points", pts)

    @property
    def period(self) -> int:
        return len(self.points)

    @property
    def minimum(self) -> Fraction:
        return self.points[0]

    @property
    def maximum(self) -> Fraction:
        return self.points[-1]

    @property
    def diameter(self) -> Fraction:
        return self.maximum - self.minimum

    @property
    def hull(self) -> Interval:
        return Interval(self.minimum, self.maximum)

    def __len__(self) -> int:
        return len(self.points)

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
# A "pairs" value is a tuple of (x, y) Fractions with strictly increasing x.
# Unlike PwlMap it need not be a self-map, so a map can be restricted to a
# window before it is composed.  Only this module knows the format: other
# modules reach the kernel through PwlMap, fixed_structure_on and
# level_set_on.
# ---------------------------------------------------------------------------

Pairs = tuple[tuple[Fraction, Fraction], ...]


def _canonical(pairs: Iterable[tuple[Fraction, Fraction]]) -> Pairs:
    """Validate monotone x and drop breakpoints collinear with their neighbours."""
    out: list[tuple[Fraction, Fraction]] = []
    for x, y in pairs:
        if out:
            px, py = out[-1]
            if x == px:
                if y != py:
                    raise NonMonotoneBreakpoints(f"two breakpoints share x = {x}")
                continue
            if x < px:
                raise NonMonotoneBreakpoints("breakpoint x-values must increase")
        out.append((x, y))
        while len(out) >= 3:
            (x0, y0), (x1, y1), (x2, y2) = out[-3:]
            if (y1 - y0) * (x2 - x1) == (y2 - y1) * (x1 - x0):
                del out[-2]
            else:
                break
    if len(out) < 2:
        raise NonMonotoneBreakpoints("at least two distinct breakpoints required")
    return tuple(out)


def _laps(pairs: Pairs) -> Iterator[tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]]:
    for i in range(len(pairs) - 1):
        yield pairs[i], pairs[i + 1]


def _eval_pairs(pairs: Pairs, xs: list[Fraction], x: Fraction) -> Fraction:
    idx = bisect_right(xs, x)
    if idx == 0 or idx > len(xs):
        raise OutOfDomain(f"{x} outside [{xs[0]}, {xs[-1]}]")
    x0, y0 = pairs[idx - 1]
    if x == x0:
        return y0
    if idx == len(xs):
        raise OutOfDomain(f"{x} outside [{xs[0]}, {xs[-1]}]")
    x1, y1 = pairs[idx]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def _compose(outer: Pairs, inner: Pairs, piece_budget: int) -> Pairs:
    """Breakpoints of x -> outer(inner(x)); inner values must lie in outer's domain."""
    outer_xs = [p[0] for p in outer]
    cuts: list[Fraction] = []
    for (x0, y0), (x1, y1) in _laps(inner):
        cuts.append(x0)
        if y0 != y1:
            lo, hi = (y0, y1) if y0 < y1 else (y1, y0)
            start = bisect_right(outer_xs, lo)
            lap_cuts = [
                x0 + (bx - y0) * (x1 - x0) / (y1 - y0)
                for bx in outer_xs[start:]
                if bx < hi
            ]
            lap_cuts.sort()
            cuts.extend(lap_cuts)
        if len(cuts) > piece_budget:
            raise PieceBudgetExceeded(
                f"composition needs more than {piece_budget} breakpoints"
            )
    cuts.append(inner[-1][0])

    result: list[tuple[Fraction, Fraction]] = []
    lap = 0
    prev: Optional[Fraction] = None
    for x in cuts:
        if x == prev:
            continue
        prev = x
        while lap < len(inner) - 2 and inner[lap + 1][0] <= x:
            lap += 1
        x0, y0 = inner[lap]
        x1, y1 = inner[lap + 1]
        v = y0 if x == x0 else y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        result.append((x, _eval_pairs(outer, outer_xs, v)))
    out = _canonical(result)
    if len(out) > piece_budget:
        raise PieceBudgetExceeded(
            f"composition needs more than {piece_budget} breakpoints"
        )
    return out


def _iterates(f: Pairs, first: Pairs, upto: int, piece_budget: int) -> Iterator[Pairs]:
    """first, f o first, ..., f^(upto-1) o first: one composition per step.

    Every composed iterate gets the check PwlMap applies, that its values
    lie in f's domain, without a second copy of its breakpoints.
    """
    lo, hi = f[0][0], f[-1][0]
    pairs = first
    yield pairs
    for _ in range(upto - 1):
        pairs = _compose(f, pairs, piece_budget)
        for _, y in pairs:
            if not (lo <= y <= hi):
                raise NotSelfMap(f"value {y} escapes domain [{lo}, {hi}]")
        yield pairs


def _last(items: Iterable[Pairs]) -> Pairs:
    for item in items:
        pass
    return item


def _restrict(pairs: Pairs, lo: Fraction, hi: Fraction) -> Pairs:
    """The same function on the nondegenerate subdomain [lo, hi]."""
    xs = [p[0] for p in pairs]
    if lo < xs[0] or hi > xs[-1] or lo >= hi:
        raise OutOfDomain(f"cannot restrict to [{lo}, {hi}]")
    mid = [(x, y) for x, y in pairs if lo < x < hi]
    ends = [(lo, _eval_pairs(pairs, xs, lo))] + mid + [(hi, _eval_pairs(pairs, xs, hi))]
    return _canonical(ends)


def _coalesce(spans: Iterable[tuple[Fraction, Fraction]]) -> list[Interval]:
    """Merge closed spans that touch or overlap into ascending disjoint intervals."""
    merged: list[list[Fraction]] = []
    for a, b in sorted(spans):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [Interval(a, b) for a, b in merged]


def _fixed_structure(pairs: Pairs) -> "FixedPoints":
    """Solutions of f(x) = x: isolated points plus maximal identity laps.

    Endpoints of identity laps are included among the points.
    """
    pts: set[Fraction] = set()
    identity: list[tuple[Fraction, Fraction]] = []
    for (x0, y0), (x1, y1) in _laps(pairs):
        if y0 == y1:
            if x0 <= y0 <= x1:
                pts.add(y0)
            continue
        slope = (y1 - y0) / (x1 - x0)
        if slope == 1:
            if y0 == x0:
                identity.append((x0, x1))
            continue
        root = (y0 - slope * x0) / (1 - slope)
        if x0 <= root <= x1:
            pts.add(root)
    laps = tuple(_coalesce(identity))
    for lap in laps:
        pts.add(lap.lo)
        pts.add(lap.hi)
    return FixedPoints(tuple(sorted(pts)), laps)


def _within_levels(pairs: Pairs, lo: Fraction, hi: Fraction) -> list[Interval]:
    """Maximal closed components of {x : lo <= f(x) <= hi}, ascending.

    With lo == hi this is the level set, one crossing per monotone lap.
    """
    level = lo == hi
    spans: list[tuple[Fraction, Fraction]] = []
    for (x0, y0), (x1, y1) in _laps(pairs):
        if y0 == y1:
            if lo <= y0 <= hi:
                spans.append((x0, x1))
            continue
        vlo, vhi = (y0, y1) if y0 < y1 else (y1, y0)
        if vhi < lo or hi < vlo:
            continue
        run = (x1 - x0) / (y1 - y0)
        if level:
            x = x0 + (lo - y0) * run
            spans.append((x, x))
            continue
        a = lo if vlo < lo else vlo
        b = hi if hi < vhi else vhi
        xa = x0 + (a - y0) * run
        xb = x0 + (b - y0) * run
        spans.append((xa, xb) if xa <= xb else (xb, xa))
    return _coalesce(spans)


def fixed_structure_on(
    f: "PwlMap",
    window: Interval,
    n: int = 1,
    piece_budget: int = DEFAULT_PIECE_BUDGET,
) -> "FixedPoints":
    """Solutions of f^n(x) = x for x in the window: points plus identity laps.

    f is restricted to the window before it is composed, so the work
    scales with the window's share of the breakpoints.  A degenerate
    window yields its point when f^n fixes it.
    """
    if window.is_degenerate:
        y = cur = window.lo
        for _ in range(n):
            cur = f(cur)
        return FixedPoints((y,) if cur == y else ())
    first = _restrict(f.breakpoints, window.lo, window.hi)
    return _fixed_structure(_last(_iterates(f.breakpoints, first, n, piece_budget)))


def level_set_on(f: "PwlMap", c: Fraction, window: Interval) -> list[Interval]:
    """Maximal closed components of {x in window : f(x) = c}, ascending."""
    if window.is_degenerate:
        return [window] if f(window.lo) == c else []
    pairs = _restrict(f.breakpoints, window.lo, window.hi)
    return _within_levels(pairs, c, c)


# ---------------------------------------------------------------------------
# the public map type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PwlMap:
    """A continuous piecewise-linear self-map of a compact interval.

    ``breakpoints`` is an ordered tuple of (x, y) pairs with strictly
    increasing x; the map is the linear interpolant between consecutive
    pairs.  The domain is [first x, last x] and every y must lie inside it
    (self-map).  Breakpoints are normalised on construction, so two PwlMap
    values are equal exactly when they are the same function.

    >>> tent = PwlMap([(0, 0), ("1/2", 1), (1, 0)])
    >>> tent(Fraction(1, 3))
    Fraction(2, 3)
    """

    breakpoints: Pairs

    def __post_init__(self) -> None:
        coerced = tuple(
            (as_fraction(x), as_fraction(y)) for x, y in self.breakpoints
        )
        bps = _canonical(coerced)
        lo, hi = bps[0][0], bps[-1][0]
        for _, y in bps:
            if not (lo <= y <= hi):
                raise NotSelfMap(f"value {y} escapes domain [{lo}, {hi}]")
        object.__setattr__(self, "breakpoints", bps)

    @property
    def domain(self) -> Interval:
        return Interval(self.breakpoints[0][0], self.breakpoints[-1][0])

    def _xs(self) -> list[Fraction]:
        return [p[0] for p in self.breakpoints]

    def __call__(self, x: RationalLike) -> Fraction:
        x = as_fraction(x)
        bps = self.breakpoints
        if not (bps[0][0] <= x <= bps[-1][0]):
            raise OutOfDomain(f"{x} outside domain {self.domain}")
        return _eval_pairs(bps, self._xs(), x)

    def iterate(self, n: int, piece_budget: int = DEFAULT_PIECE_BUDGET) -> "PwlMap":
        """The exact n-fold composition as a PwlMap.

        Breakpoint counts can grow exponentially in n; when the count
        passes ``piece_budget`` a :class:`PieceBudgetExceeded` is raised.
        """
        if n < 1:
            raise ValueError("iteration count must be >= 1")
        bps = self.breakpoints
        return PwlMap(_last(_iterates(bps, bps, n, piece_budget)))

    def image(self, J: Interval) -> Interval:
        """The exact image interval f(J) = [min f, max f] over J."""
        if not self.domain.encloses(J):
            raise OutOfDomain(f"{J} outside domain {self.domain}")
        xs = self._xs()
        vals = [_eval_pairs(self.breakpoints, xs, J.lo)]
        if not J.is_degenerate:
            vals.append(_eval_pairs(self.breakpoints, xs, J.hi))
            start = bisect_right(xs, J.lo)
            for i in range(start, len(xs)):
                if xs[i] >= J.hi:
                    break
                vals.append(self.breakpoints[i][1])
        return Interval(min(vals), max(vals))

    def covers(self, J: Interval, K: Interval) -> bool:
        """True when f(J) contains K."""
        if not self.domain.encloses(K):
            raise OutOfDomain(f"{K} outside domain {self.domain}")
        return self.image(J).encloses(K)

    def preimage_branches(self, J: Interval, K: Interval) -> list[Interval]:
        """Maximal closed L inside J with f(L) = K and endpoints onto K's endpoints.

        Requires that f(J) covers K.  The returned branches are ordered by
        left endpoint and pairwise non-nested.  For degenerate K these are
        the components of the level set inside J.  Within every component
        of {x in J : f(x) in K} whose image is all of K and whose endpoints
        map onto K's boundary, the branches cover the component.
        """
        if not self.covers(J, K):
            raise NotCovering(f"f({J}) does not contain {K}")
        if K.is_degenerate:
            return level_set_on(self, K.lo, J)
        pairs = _restrict(self.breakpoints, J.lo, J.hi)
        lo_hits = _within_levels(pairs, K.lo, K.lo)
        hi_hits = _within_levels(pairs, K.hi, K.hi)

        branches: list[Interval] = []
        for comp in _within_levels(pairs, K.lo, K.hi):
            lo_in = [h for h in lo_hits if comp.encloses(h)]
            hi_in = [h for h in hi_hits if comp.encloses(h)]
            if not lo_in or not hi_in:
                continue  # the component does not map onto all of K
            first_lo, last_lo = lo_in[0].lo, lo_in[-1].hi
            first_hi, last_hi = hi_in[0].lo, hi_in[-1].hi
            cands = []
            if first_lo < last_hi:
                cands.append(Interval(first_lo, last_hi))
            if first_hi < last_lo:
                cands.append(Interval(first_hi, last_lo))
            # inclusion-maximal only: with two candidates one may swallow the other
            keep = [
                c
                for c in cands
                if not any(o != c and o.encloses(c) for o in cands)
            ]
            branches.extend(keep)
        branches.sort(key=lambda iv: (iv.lo, iv.hi))
        return branches

    def clamp(self, lo: RationalLike, hi: RationalLike) -> "PwlMap":
        """median(lo, f(x), hi) with exact breakpoints where f crosses the bounds."""
        lo, hi = as_fraction(lo), as_fraction(hi)
        dom = self.domain
        if not (dom.lo <= lo <= hi <= dom.hi):
            raise BadClampBounds(f"bounds [{lo}, {hi}] not nested in {dom}")
        cut_xs = {x for x, _ in self.breakpoints}
        for level in (lo, hi):
            for hit in _within_levels(self.breakpoints, level, level):
                cut_xs.add(hit.lo)
                cut_xs.add(hit.hi)
        xs = self._xs()
        pairs = []
        for x in sorted(cut_xs):
            v = _eval_pairs(self.breakpoints, xs, x)
            pairs.append((x, min(max(v, lo), hi)))
        return PwlMap(pairs)


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


def fixed_points_of_iterate(
    f: PwlMap, k: int, piece_budget: int = DEFAULT_PIECE_BUDGET
) -> FixedPoints:
    """All exact solutions of f^k(x) = x, ascending and deduplicated."""
    if k < 1:
        raise ValueError("iterate order must be >= 1")
    return _fixed_structure(f.iterate(k, piece_budget).breakpoints)


def _orbit_walk(f: PwlMap, y: Fraction, k: int) -> list[Fraction]:
    """y, f(y), ... up to the first return to y, which must come at a divisor of k.

    The walk's length is then the least period of y.
    """
    traj = [y]
    cur = f(y)
    while cur != y and len(traj) < k:
        traj.append(cur)
        cur = f(cur)
    if cur != y or k % len(traj):
        raise NotAnOrbit(f"{y} is not fixed by the {k}-th iterate")
    return traj


def least_period(f: PwlMap, y: RationalLike, k: int) -> int:
    """The least period of y given that f^k(y) = y (it divides k)."""
    if k < 1:
        raise ValueError("iterate order must be >= 1")
    return len(_orbit_walk(f, as_fraction(y), k))


def orbit_of(f: PwlMap, y: RationalLike, max_steps: int = 10_000) -> Orbit:
    """Follow y under f until it returns; error if it is not periodic."""
    y = as_fraction(y)
    seen = [y]
    visited = {y}
    current = y
    for _ in range(max_steps):
        current = f(current)
        if current == y:
            return Orbit(tuple(seen))
        if current in visited:
            raise NotAnOrbit(f"{y} is pre-periodic, not periodic")
        seen.append(current)
        visited.add(current)
    raise NotAnOrbit(f"{y} did not return within {max_steps} steps")


def point_of_least_period_in_lap(
    f: PwlMap,
    k: int,
    lap: Interval,
    piece_budget: int = DEFAULT_PIECE_BUDGET,
) -> Optional[Fraction]:
    """A point of least period exactly k inside an identity lap of f^k.

    On the lap every point satisfies f^k(x) = x, so a point has least
    period k exactly when no proper-divisor iterate fixes it.  Those
    iterates are composed once, on the lap alone, and the lap is cut at
    their solutions: each piece between two cuts is either wholly fixed
    by some proper-divisor iterate or holds no such solution.  The
    leftmost cut or piece midpoint of least period k is returned, or None
    when the lap has none.  A degenerate lap is its only candidate.
    """
    if k == 1:
        return lap.lo
    cuts = {lap.lo, lap.hi}
    if not lap.is_degenerate:
        first = _restrict(f.breakpoints, lap.lo, lap.hi)
        chain = _iterates(f.breakpoints, first, divisors(k)[-2], piece_budget)
        for d, g in enumerate(chain, start=1):
            if k % d == 0:
                cuts.update(_fixed_structure(g).points)
    ordered = sorted(cuts)
    candidates = [ordered[0]]
    for a, b in zip(ordered, ordered[1:]):
        candidates += [(a + b) / 2, b]
    for c in candidates:
        if least_period(f, c, k) == k:
            return c
    return None


def _census(
    f: PwlMap, k: int, fps: FixedPoints, piece_budget: int
) -> PeriodicOrbits:
    """Sort the solutions of f^k(x) = x into the orbits of least period k.

    The points are scanned in ascending order and each orbit is walked
    once, from its first point met, which is its minimum; the points it
    visits are skipped afterwards.
    """
    placed: set[Fraction] = set()
    orbits = []
    for y in fps.points:
        if y in placed:
            continue
        traj = _orbit_walk(f, y, k)
        placed.update(traj)
        if len(traj) == k:
            orbits.append(Orbit(tuple(traj)))
    continuum = tuple(
        lap
        for lap in fps.identity_laps
        if point_of_least_period_in_lap(f, k, lap, piece_budget) is not None
    )
    return PeriodicOrbits(tuple(orbits), continuum)


def periodic_orbits(
    f: PwlMap, k: int, piece_budget: int = DEFAULT_PIECE_BUDGET
) -> PeriodicOrbits:
    """All orbits of least period exactly k, ordered by minimum point.

    Identity laps of f^k that still contain least-period-k points after
    removing every smaller-period solution set are reported as flagged
    continuum components rather than enumerated.  Equal to the last item
    of :func:`periodic_orbits_upto` with the same k.
    """
    return _census(f, k, fixed_points_of_iterate(f, k, piece_budget), piece_budget)


def periodic_orbits_upto(
    f: PwlMap, upto: int, piece_budget: int = DEFAULT_PIECE_BUDGET
) -> Iterator[PeriodicOrbits]:
    """periodic_orbits(f, k) for k = 1, ..., upto, in order.

    Each iterate is composed once, from the one before, so a spectrum up
    to J performs J - 1 compositions.  A composition over the piece budget
    raises from the advance that needs it and ends the generator.
    """
    if upto < 1:
        raise ValueError("period bound must be >= 1")
    iterates = _iterates(f.breakpoints, f.breakpoints, upto, piece_budget)
    return (
        _census(f, k, _fixed_structure(g), piece_budget)
        for k, g in enumerate(iterates, start=1)
    )


def is_orbit_of(f: PwlMap, orbit: Orbit) -> bool:
    """True when f permutes the orbit's points in a single cycle."""
    pts = orbit.points
    index = {p: i for i, p in enumerate(pts)}
    try:
        images = [f(p) for p in pts]
    except OutOfDomain:
        return False
    if any(v not in index for v in images):
        return False
    perm = [index[v] for v in images]
    seen = {0}
    cur = perm[0]
    while cur not in seen:
        seen.add(cur)
        cur = perm[cur]
    return len(seen) == len(pts) and cur == 0
