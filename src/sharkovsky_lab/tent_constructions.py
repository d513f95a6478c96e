"""Tent-map machinery: minimal-diameter orbits, truncations, doubling chains.

Clamping the tent map to the hull of a minimal-diameter period-k orbit
produces a map whose least-period spectrum is exactly the forcing tail of
k; nesting minimal-diameter orbits of periods 3, 6, 12, ... produces the
clamp bounds of the period-doubling limit map.  Only finitely many levels
of that chain are ever computed here, and every claim about the limit map
is made per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificationFailed, NoSuchOrbit, NotAnOrbit
from .exact_pwl import (
    Interval,
    Orbit,
    PwlMap,
    highest_orbit_below,
    is_orbit_of,
    markov_orbit_counts,
    periodic_orbits,
    periodic_orbits_upto,
)


def tent_map() -> PwlMap:
    """The full tent map x -> 1 - |2x - 1| on [0, 1]."""
    return PwlMap([(0, 0), (Fraction(1, 2), 1), (1, 0)])


def minimal_diameter_orbit(f: PwlMap, k: int) -> Orbit:
    """Among f's least-period-k orbits, one of minimal diameter, for any map f.

    A census of every solution of f^k(x) = x.  Ties break toward the
    smallest minimum point.  Orbits carried by identity laps (a continuum)
    have no well-defined minimal diameter and are not considered.  The tent
    and its clamps take :func:`narrowest_tent_orbit`, which censuses nothing;
    this stays the route for other maps and the tests' oracle for that one.
    """
    best = min(periodic_orbits(f, k).orbits, key=lambda o: (o.diameter, o.minimum), default=None)
    if best is None:
        raise NoSuchOrbit(f"no least-period-{k} orbit of the map")
    return best


def narrowest_tent_orbit(f: PwlMap, k: int) -> Orbit:
    """minimal_diameter_orbit(f, k) for a map f whose period-k orbits are tent orbits.

    f is the tent T, or a clamp of it whose least-period-k orbits T permutes
    (each level of :func:`doubling_chain`).  The answer is f's period-k orbit
    of highest minimum below 2/5, or below 1/2 for k <= 2
    (:func:`highest_orbit_below`), by this lemma.

    Let O be a T-orbit of least period at least 2, with minimum m and
    maximum M.  Then m > 0, since 0 is fixed.  Let y in O map to m.  If
    y < 1/2 then m = 2y >= 2m > m, and y = 1/2 gives m = 1 >= M; so y > 1/2.
    T falls on [1/2, 1], so m <= T(M) <= T(y) = m: m = 2 - 2M, and
    diam O = 1 - 3m/2.  And m < 1/2: on [1/2, 1], T is x -> 2 - 2x, whose n-th iterate is
    x -> 2/3 + (-2)^n (x - 2/3), so its only periodic point is the fixed 2/3.
    So the narrowest period-k orbit has the highest minimum, below 1/2, and
    it is unique, since two orbits with one minimum are one orbit.  Sharper:
    T(m) = 2m lies in O, so 2m <= M = 1 - m/2, and m <= 2/5.  Equality
    makes T(m) = M and T(M) = m, the period-2 orbit {2/5, 4/5}; so for
    k > 2 every period-k minimum lies below 2/5.  For k = 1 the only
    solution below 1/2 is 0, the census's tie-break answer.
    The slopes of T and of its clamps are 0 and +-2, so no iterate has an
    identity lap, and the search never refuses.
    """
    orbit = highest_orbit_below(f, k, Fraction(2, 5) if k > 2 else Fraction(1, 2))
    if orbit is None:
        raise NoSuchOrbit(f"no least-period-{k} orbit of the map")
    return orbit


@dataclass(frozen=True)
class TruncatedMap:
    """A map clamped to the hull of one of its orbits.

    The anchor orbit's points all lie inside the clamp bounds, so it
    survives the truncation unchanged.
    """

    base: PwlMap
    anchor_orbit: Orbit
    bounds: Interval
    map: PwlMap


def truncate_at_orbit(f: PwlMap, orbit: Orbit) -> TruncatedMap:
    """Clamp f to [min P, max P] for one of its orbits P."""
    if not is_orbit_of(f, orbit):
        raise NotAnOrbit(f"{list(orbit.points)} is not an orbit of the map")
    bounds = orbit.hull
    return TruncatedMap(
        base=f,
        anchor_orbit=orbit,
        bounds=bounds,
        map=f.clamp(bounds.lo, bounds.hi),
    )


@dataclass(frozen=True)
class SpectrumEntry:
    period: int
    orbit_count: int
    continuum: bool


def period_spectrum(f: PwlMap, upto: int) -> list[SpectrumEntry]:
    """Exact least-period orbit counts for every period up to the bound.

    ``continuum`` flags periods whose points fill whole intervals (identity
    laps of the iterate); the count then covers the isolated orbits only.
    The map alone picks the route: tent truncations and other expanding
    Markov maps are counted from walks under the walk cap
    (:func:`markov_orbit_counts`), others censused with each iterate
    composed once under the piece cap (:func:`periodic_orbits_upto`).
    Either cap's overrun raises; the other route is not tried.
    """
    censuses = periodic_orbits_upto(f, upto)  # checks upto, lazily
    counts = markov_orbit_counts(f, upto)
    if counts is not None:
        return [SpectrumEntry(k, counts[k], False) for k in range(1, upto + 1)]
    return [
        SpectrumEntry(k, len(c.orbits), bool(c.continuum))
        for k, c in enumerate(censuses, start=1)
    ]


@dataclass(frozen=True)
class DoublingChain:
    """Nested minimal-diameter orbits of periods 3, 6, 12, ... of a base map.

    ``q0``/``q1`` are the deepest orbit's minimum and maximum, the
    innermost of the strictly nesting hulls.
    """

    base: PwlMap
    levels: tuple[Orbit, ...]
    q0: Fraction
    q1: Fraction


def doubling_chain(levels: int) -> DoublingChain:
    """Build orbits Q_{3 * 2^j} of the tent map for j = 0..levels, nesting hulls.

    Each level is the minimal-diameter orbit of twice the previous period
    of the truncation at the previous level (:func:`narrowest_tent_orbit`);
    the construction verifies that the hulls nest strictly.
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    base = tent_map()
    orbits = [narrowest_tent_orbit(base, 3)]
    for _ in range(levels):
        prev = orbits[-1]
        # g is the tent T wherever T's value lies in hull(prev), else a hull end.  The
        # ends lie on prev, of least period k, so no g-orbit of period 2k meets g != T:
        # g's are T's inside the hull, so narrowest_tent_orbit's lemma holds among them.
        k = prev.period
        g = truncate_at_orbit(base, prev).map
        orbit = narrowest_tent_orbit(g, 2 * k)
        if not (prev.minimum < orbit.minimum and orbit.maximum < prev.maximum):
            raise CertificationFailed(
                f"hull of period-{orbit.period} orbit fails to nest strictly"
            )
        orbits.append(orbit)
    deepest = orbits[-1]
    return DoublingChain(
        base=base, levels=tuple(orbits), q0=deepest.minimum, q1=deepest.maximum
    )


def t_infinity_level(chain: DoublingChain) -> PwlMap:
    """The clamp of the chain's base map at the deepest computed hull."""
    return chain.base.clamp(chain.q0, chain.q1)
