"""Constructive periodic-point witnesses, certified in exact arithmetic.

Three constructions live here:

* a period-2 point from a crossed pair f(d) <= c < d <= f(c);
* a period-2 point from any orbit of period greater than 2;
* from any odd-period orbit, points of every even period and of every
  period past the orbit's own, built by chaining interval cycles and
  extracting a point that follows the chain.

Every returned point is certified by exact evaluation: the stated period
holds and no smaller one does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    CertificationFailed,
    NoLeastPeriodWitness,
    NotAnOrbit,
    PreconditionError,
    UnsupportedPeriod,
)
from .exact_pwl import (
    Interval,
    IntervalLoop,
    Orbit,
    PwlMap,
    as_fraction,
    fixed_structure_on,
    follow_cycle,
    least_period,
    level_set_on,
    orbit_of,
    orbit_permutation,
    point_of_least_period_in_lap,
    require_cycle,
)

# ---------------------------------------------------------------------------
# small exact-solving helpers on a restricted window
# ---------------------------------------------------------------------------


def _leftmost_solution(f: PwlMap, level: Fraction, window: Interval) -> Fraction:
    """The leftmost x in the window with f(x) = level; must exist."""
    hits = level_set_on(f, level, window)
    if not hits:
        raise CertificationFailed(f"no solution of f = {level} in {window}")
    return hits[0].lo


def _leftmost_period2_point(f: PwlMap, window: Interval) -> Fraction:
    """Leftmost solution of f(f(x)) = x in the window that f does not fix.

    When the solutions fill whole laps the leftmost non-fixed one may not
    be attained; each such lap then offers the representative of
    :func:`point_of_least_period_in_lap`.
    """
    fps = fixed_structure_on(f, window, 2)
    candidates = [y for y in fps.points if f(y) != y]
    for lap in fps.identity_laps:
        rep = point_of_least_period_in_lap(f, 2, lap)
        if rep is not None:
            candidates.append(rep)
    if not candidates:
        raise CertificationFailed(f"no period-2 point in {window}")
    return min(candidates)


# ---------------------------------------------------------------------------
# period 2 from a crossed pair, and from any long orbit
# ---------------------------------------------------------------------------


class CrossingCase(enum.Enum):
    NO_FIXED_POINT_LEFT = "NoFixedPointLeft"
    FIXED_POINT_LEFT = "FixedPointLeft"


@dataclass(frozen=True)
class PeriodTwoWitness:
    """The named points of the crossed-pair construction.

    ``lower`` and ``upper`` are the crossing pair (c, d); ``first_fixed``
    is the least fixed point inside [c, d]; ``upper_preimage`` maps to d.
    When a fixed point exists left of c, ``left_fixed`` is the last one
    and ``lower_preimage`` maps to c.  ``point`` is the certified period-2
    point.
    """

    lower: Fraction
    upper: Fraction
    first_fixed: Fraction
    upper_preimage: Fraction
    point: Fraction
    case: CrossingCase
    left_fixed: Optional[Fraction] = None
    lower_preimage: Optional[Fraction] = None


def period_two_from_crossing(
    f: PwlMap, c: Fraction, d: Fraction
) -> PeriodTwoWitness:
    """A certified period-2 point whenever f(d) <= c < d <= f(c)."""
    c, d = as_fraction(c), as_fraction(d)
    dom = f.domain
    if not (dom.contains(c) and dom.contains(d)):
        raise PreconditionError(f"{c}, {d} must lie in {dom}")
    if not (f(d) <= c < d <= f(c)):
        raise PreconditionError(
            f"need f(d) <= c < d <= f(c); got f({d}) = {f(d)}, f({c}) = {f(c)}"
        )
    a = dom.lo
    first_fixed = fixed_structure_on(f, Interval(c, d)).points[0]
    upper_preimage = _leftmost_solution(f, d, Interval(c, first_fixed))

    fixed_left = () if a == c else fixed_structure_on(f, Interval(a, c)).points
    left_fixed = lower_preimage = None
    if fixed_left:
        left_fixed = fixed_left[-1]
        lower_preimage = _leftmost_solution(f, c, Interval(left_fixed, c))
    # with no fixed point left of c, f fixes nothing in [a, upper_preimage],
    # and f^2 crosses the diagonal between a and upper_preimage
    start = a if lower_preimage is None else lower_preimage
    witness = PeriodTwoWitness(
        lower=c,
        upper=d,
        first_fixed=first_fixed,
        upper_preimage=upper_preimage,
        point=_leftmost_period2_point(f, Interval(start, upper_preimage)),
        case=CrossingCase.FIXED_POINT_LEFT if fixed_left else CrossingCase.NO_FIXED_POINT_LEFT,
        left_fixed=left_fixed,
        lower_preimage=lower_preimage,
    )
    p = witness.point
    if not (f(f(p)) == p and f(p) != p):
        raise CertificationFailed(f"{p} is not a point of least period 2")
    return witness


def _require_orbit(f: PwlMap, orbit: Orbit) -> tuple[int, ...]:
    """The orbit's rank permutation (see :func:`orbit_permutation`)."""
    sigma = orbit_permutation(f, orbit)
    if sigma is None:
        raise NotAnOrbit(f"{list(orbit.points)} is not a single orbit of the map")
    return sigma


def _switch_rank(sigma: tuple[int, ...]) -> int:
    """The rank s of the last point moving right: the last i with sigma(i) > i."""
    return max(i for i, r in enumerate(sigma, start=1) if r > i)


def period_two_from_orbit(f: PwlMap, orbit: Orbit) -> PeriodTwoWitness:
    """A certified period-2 point from any orbit of period at least 3.

    The last point moving right and its successor form a crossed pair.
    """
    sigma = _require_orbit(f, orbit)
    if orbit.period <= 2:
        raise UnsupportedPeriod(f"need period > 2, got {orbit.period}")
    s = _switch_rank(sigma)
    c = orbit.points[s - 1]
    d = orbit.points[s]
    return period_two_from_crossing(f, c, d)


# ---------------------------------------------------------------------------
# a periodic point following an interval cycle
# ---------------------------------------------------------------------------


def periodic_point_from_cycle(
    f: PwlMap, loop: IntervalLoop, require_least_period: bool = False
) -> Fraction:
    """A point y with f^i(y) in J_i for each i and f^n(y) = y.

    The chain of intervals must be a cycle: each f(J_i) covers J_{i+1}
    cyclically.  When every J_i is nondegenerate and lies in one lap of f
    with nonzero slope, f^n on the chain start is affine and is solved
    once, also when a slope product of +1 makes J_0 an identity lap of
    f^n.  Otherwise the point is found by nesting preimage branches
    backward, leftmost first, and solving f^n on each innermost interval.
    With ``require_least_period`` the branches are explored depth-first
    until a point of least period exactly n appears; if every branch
    yields only shorter periods, :class:`NoLeastPeriodWitness` is raised.
    """
    require_cycle(f, loop)
    return _point_on_cycle(f, loop, require_least_period)


def _point_on_cycle(f: PwlMap, loop: IntervalLoop, require_least_period: bool) -> Fraction:
    """periodic_point_from_cycle on a loop already known to be a cycle."""
    y = follow_cycle(f, loop, require_least_period)
    if y is not None:
        return y
    if require_least_period:
        raise NoLeastPeriodWitness(
            f"every branch of the length-{len(loop)} cycle has only shorter periods"
        )
    raise CertificationFailed("a covering cycle must yield a periodic point")


# ---------------------------------------------------------------------------
# the odd-period machinery
# ---------------------------------------------------------------------------


class TraceCase(enum.Enum):
    PERIOD_THREE = "PeriodThree"
    PRE_ESCAPE_AT_UPPER = "PreEscapeAtUpper"
    REBOUND_BELOW = "ReboundBelow"

    @property
    def yields_period_three(self) -> bool:
        return self is TraceCase.PRE_ESCAPE_AT_UPPER


@dataclass(frozen=True)
class OddOrbitTrace:
    """Everything the odd-period constructions need, in analysis coordinates.

    ``switch`` is the rank s of the last orbit point moving right, so the
    switch interval [x_s, x_{s+1}] holds the fixed point.  ``straddle`` is
    the rank t of the interval left of the switch whose endpoint images
    straddle the fixed point.  ``escape_time`` is the first iterate of x_s
    landing at or below x_t; the iterate before it, the pre-escape point,
    lies right of the switch interval.  ``case`` is PERIOD_THREE for a
    3-cycle, PRE_ESCAPE_AT_UPPER when the pre-escape point is x_{s+1}, and
    REBOUND_BELOW otherwise.  Only REBOUND_BELOW sets the rest:
    ``rebound_time`` is the first iterate climbing back to the pre-escape
    point, and the relay points satisfy f(fixed_preimage) = fixed_point,
    f(upper_relay) = fixed_preimage and f(lower_relay) = upper_relay.

    When ``mirrored`` is true, ``map`` and ``orbit`` are the reflections
    of the caller's originals and every field refers to the reflected
    system; witnesses are reflected back by the callers.
    """

    map: PwlMap
    orbit: Orbit
    switch: int
    straddle: int
    escape_time: int
    fixed_point: Fraction
    case: TraceCase
    mirrored: bool
    rebound_time: Optional[int] = None
    fixed_preimage: Optional[Fraction] = None
    upper_relay: Optional[Fraction] = None
    lower_relay: Optional[Fraction] = None

    @property
    def period(self) -> int:
        return self.orbit.period


def _reflect_map(f: PwlMap) -> PwlMap:
    dom = f.domain
    total = dom.lo + dom.hi
    return PwlMap([(total - x, total - y) for x, y in reversed(f.breakpoints)])


def _analyze_oriented(
    f: PwlMap, orbit: Orbit, sigma: tuple[int, ...], mirrored: bool
) -> Optional[OddOrbitTrace]:
    """The trace read off the rank permutation sigma; None without a left straddle.

    Points compare by rank, f(x_i) being x_sigma(i); f itself is solved
    only for the fixed point and the relays.
    """
    x = (None, *orbit.points)  # x[i] is the point of rank i
    m = len(sigma)
    s = _switch_rank(sigma)
    # f(x_i) lies left of the switch interval exactly when sigma(i) <= s
    straddles = [t for t in range(1, s) if (sigma[t - 1] <= s) != (sigma[t] <= s)]
    if not straddles:
        return None
    t = max(straddles)
    z = fixed_structure_on(f, Interval(x[s], x[s + 1])).points[0]

    its = [s]  # the ranks of x_s, f(x_s), ... up to the escape to x_t or below
    while its[-1] > t:
        its.append(sigma[its[-1] - 1])
    q = len(its) - 1
    if not 2 <= q <= m - 1:
        raise CertificationFailed(f"escape time {q} out of range for period {m}")

    kwargs = dict(
        map=f,
        orbit=orbit,
        switch=s,
        straddle=t,
        escape_time=q,
        fixed_point=z,
        mirrored=mirrored,
    )
    if m == 3:
        return OddOrbitTrace(case=TraceCase.PERIOD_THREE, **kwargs)

    pre_escape = its[q - 1]
    # every rank in (t, s] maps above s (t is the last straddle and
    # sigma(s) > s), so the pre-escape rank, which maps to t or below, is > s
    if pre_escape == s + 1:
        return OddOrbitTrace(case=TraceCase.PRE_ESCAPE_AT_UPPER, **kwargs)

    rebound = next(i for i in range(1, q) if its[i] >= pre_escape)
    pre_rebound = its[rebound - 1]
    # a rank above s maps to a smaller rank, so a pre-rebound rank above s
    # would itself have reached the pre-escape rank
    if not t < pre_rebound <= s:
        raise CertificationFailed(f"pre-rebound point {x[pre_rebound]} out of range")

    fixed_preimage = _leftmost_solution(f, z, Interval(x[t], x[t + 1]))
    upper_relay = _leftmost_solution(f, fixed_preimage, Interval(z, x[pre_escape]))
    lower_relay = _leftmost_solution(f, upper_relay, Interval(x[pre_rebound], z))
    return OddOrbitTrace(
        case=TraceCase.REBOUND_BELOW,
        rebound_time=rebound,
        fixed_preimage=fixed_preimage,
        upper_relay=upper_relay,
        lower_relay=lower_relay,
        **kwargs,
    )


def analyze_odd_orbit(f: PwlMap, orbit: Orbit) -> OddOrbitTrace:
    """Classify an odd-period orbit for the forcing constructions.

    The analysis prefers a straddle interval left of the switch interval;
    when only right-side straddles exist the whole problem is reflected
    (x -> lo + hi - x) and the trace marked ``mirrored``.
    """
    sigma = _require_orbit(f, orbit)
    if orbit.period % 2 == 0:
        raise UnsupportedPeriod(f"need an odd period, got {orbit.period}")
    if orbit.period < 3:
        raise UnsupportedPeriod("need period >= 3")
    trace = _analyze_oriented(f, orbit, sigma, mirrored=False)
    if trace is None:
        # x -> lo + hi - x reverses the ranks: sigma'(i) = m + 1 - sigma(m + 1 - i)
        total, m = f.domain.lo + f.domain.hi, len(sigma)
        reflected = Orbit(total - p for p in reversed(orbit.points))
        mirror = tuple(m + 1 - r for r in reversed(sigma))
        trace = _analyze_oriented(_reflect_map(f), reflected, mirror, mirrored=True)
        if trace is None:
            raise CertificationFailed("reflection must expose a left straddle")
    return trace


def forcing_cycle(trace: OddOrbitTrace, n: int) -> IntervalLoop:
    """The interval cycle whose witness realizes period n for this trace.

    PERIOD_THREE traces accept every n >= 1.  PRE_ESCAPE_AT_UPPER accepts
    only n = 3 (all other periods then flow through the period-3 orbit it
    yields).  REBOUND_BELOW accepts every even n >= 2 and every
    n >= period + 1.
    """
    if n < 1:
        raise ValueError("period must be >= 1")
    pts = trace.orbit.points
    s, t = trace.switch, trace.straddle
    z = trace.fixed_point
    switch_iv = Interval(pts[s - 1], pts[s])
    straddle_iv = Interval(pts[t - 1], pts[t])
    case = trace.case

    if case is TraceCase.PERIOD_THREE:
        loop = (
            [switch_iv]
            if n == 1
            else [straddle_iv] + [switch_iv] * (n - 1)
        )
    elif case is TraceCase.PRE_ESCAPE_AT_UPPER:
        if n != 3:
            raise UnsupportedPeriod(f"this trace only builds n = 3, not {n}")
        loop = [Interval(z, pts[s]), straddle_iv, switch_iv]
    else:  # REBOUND_BELOW
        m = trace.period
        u = trace.fixed_preimage
        w = trace.upper_relay
        v = trace.lower_relay
        uv = Interval(u, v)
        zw = Interval(z, w)
        vz = Interval(v, z)
        if n == 2:
            loop = [uv, zw]
        elif n % 2 == 0:
            loop = [uv] + [zw, vz] * ((n - 2) // 2) + [zw]
        elif n >= m + 1:
            q, k = trace.escape_time, trace.rebound_time
            walk = [pts[s - 1]]  # x_s, f(x_s), ..., up to the pre-escape point
            for _ in range(q - 1):
                walk.append(trace.map(walk[-1]))
            rungs = [Interval.between(z, p) for p in walk]
            loop = (
                rungs[:k]
                + [rungs[q - 1], straddle_iv]
                + [switch_iv] * (n - k - 2)
            )
        else:
            raise UnsupportedPeriod(
                f"period {n} is neither even nor past {m}; not forced this way"
            )

    cycle = IntervalLoop(tuple(loop))
    require_cycle(trace.map, cycle)
    return cycle


def odd_period_witness(f: PwlMap, orbit: Orbit, n: int) -> Fraction:
    """A certified point of least period exactly n forced by an odd orbit.

    Valid n: every even n >= 2, every n >= period + 1, and any n >= 1
    when the analysis reaches a period-3 orbit (which forces everything).
    """
    return witness_from_trace(f, analyze_odd_orbit(f, orbit), n)


def witness_from_trace(f: PwlMap, trace: OddOrbitTrace, n: int) -> Fraction:
    """odd_period_witness for an orbit of f already analysed into ``trace``.

    The trace must come from :func:`analyze_odd_orbit` on f.  The point is
    found on the trace's (possibly mirrored) map, carried back to f and
    certified there.
    """
    if trace.map != (_reflect_map(f) if trace.mirrored else f):
        raise PreconditionError("the trace was not analysed on this map")
    if trace.case.yields_period_three:
        seed = _point_on_cycle(trace.map, forcing_cycle(trace, 3), True)
        y = odd_period_witness(trace.map, orbit_of(trace.map, seed), n)
    else:
        y = _point_on_cycle(trace.map, forcing_cycle(trace, n), True)
    if trace.mirrored:
        dom = f.domain
        y = dom.lo + dom.hi - y
    if least_period(f, y, n) != n:
        raise CertificationFailed(f"{y} does not have least period {n}")
    return y
