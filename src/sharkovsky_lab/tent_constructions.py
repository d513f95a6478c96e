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
from typing import Optional

from .errors import CertificationFailed, NoSuchOrbit, NotAnOrbit
from .exact_pwl import (
    DEFAULT_PIECE_BUDGET,
    DEFAULT_WALK_BUDGET,
    Interval,
    Orbit,
    PwlMap,
    is_orbit_of,
    markov_orbit_counts,
    narrowest_orbit,
    periodic_orbits,
    periodic_orbits_upto,
)


def tent_map() -> PwlMap:
    """The full tent map x -> 1 - |2x - 1| on [0, 1]."""
    return PwlMap([(0, 0), (Fraction(1, 2), 1), (1, 0)])


def minimal_diameter_orbit(
    f: PwlMap,
    k: int,
    within: Optional[Interval] = None,
    piece_budget: int = DEFAULT_PIECE_BUDGET,
) -> Orbit:
    """Among least-period-k orbits inside the window, one of minimal diameter.

    Ties break toward the smallest minimum point.  Orbits carried by
    identity laps (a continuum) have no well-defined minimal diameter and
    are not considered; they never occur for the tent family.

    A window W inside the domain is censused through the clamp
    g = median(W.lo, f, W.hi), keeping the orbits that f permutes; for the
    tent, k = 12 and W the hull of its chain's period-6 orbit, g^k has 210
    breakpoints and f^k 4,097.  The answer is the whole-domain one.  g = f
    where f maps into W, so f's orbits in W are g's orbits that f permutes.
    A census omits exactly the orbits around which the iterate is the
    identity, and around an orbit in W's interior f^k = g^k.  g^k maps
    into W, so g's census omits no orbit touching W's boundary, but f's
    may: when f permutes such an orbit, the whole domain is censused.
    """
    window = within if within is not None else f.domain
    lo, hi, orbits = window.lo, window.hi, None
    if window != f.domain and f.domain.encloses(window):
        clamped = periodic_orbits(f.clamp(lo, hi), k, piece_budget)
        orbits = [o for o in clamped if is_orbit_of(f, o)]
        if any(o.minimum == lo or o.maximum == hi for o in orbits):
            orbits = None
    if orbits is None:
        orbits = periodic_orbits(f, k, piece_budget).orbits
    best = narrowest_orbit(orbits, window)
    if best is None:
        raise NoSuchOrbit(f"no least-period-{k} orbit inside {window}")
    return best


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


def period_spectrum(
    f: PwlMap,
    upto: int,
    piece_budget: int = DEFAULT_PIECE_BUDGET,
    walk_budget: int = DEFAULT_WALK_BUDGET,
) -> list[SpectrumEntry]:
    """Exact least-period orbit counts for every period up to the bound.

    ``continuum`` flags periods whose points fill whole intervals (identity
    laps of the iterate); the count then covers the isolated orbits only.
    The map alone picks the route: tent truncations and other expanding
    Markov maps are counted from walks under walk_budget
    (:func:`markov_orbit_counts`), others censused with each iterate
    composed once under piece_budget (:func:`periodic_orbits_upto`).
    Either budget's overrun raises; the other route is not tried.
    """
    censuses = periodic_orbits_upto(f, upto, piece_budget)  # checks upto, lazily
    counts = markov_orbit_counts(f, upto, piece_budget, walk_budget)
    if counts is not None:
        return [SpectrumEntry(k, counts[k], False) for k in range(1, upto + 1)]
    return [
        SpectrumEntry(k, len(c.orbits), bool(c.continuum))
        for k, c in enumerate(censuses, start=1)
    ]


def realized_spectrum_set(entries: list[SpectrumEntry]) -> set[int]:
    """Periods with at least one orbit (isolated or continuum)."""
    return {e.period for e in entries if e.orbit_count > 0 or e.continuum}


@dataclass(frozen=True)
class DoublingChain:
    """Nested minimal-diameter orbits of periods 3, 6, 12, ... of a base map.

    ``q0``/``q1`` are the extreme clamp bounds seen so far: the largest
    minimum and the smallest maximum over the computed levels.  With the
    hulls strictly nesting these come from the deepest orbit.
    """

    base: PwlMap
    levels: tuple[Orbit, ...]
    q0: Fraction
    q1: Fraction


def doubling_chain(
    levels: int, piece_budget: int = DEFAULT_PIECE_BUDGET
) -> DoublingChain:
    """Build orbits Q_{3 * 2^j} of the tent map for j = 0..levels, nesting hulls.

    Each level is the minimal-diameter orbit of twice the previous period
    inside the previous hull; the construction verifies that the hulls
    nest strictly.
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    base = tent_map()
    window = base.domain
    orbits: list[Orbit] = []
    period = 3
    for _ in range(levels + 1):
        orbit = minimal_diameter_orbit(base, period, window, piece_budget)
        if orbits:
            prev = orbits[-1].hull
            if not (prev.lo < orbit.minimum and orbit.maximum < prev.hi):
                raise CertificationFailed(
                    f"hull of period-{period} orbit fails to nest strictly"
                )
        orbits.append(orbit)
        window = orbit.hull
        period *= 2
    return DoublingChain(
        base=base,
        levels=tuple(orbits),
        q0=max(o.minimum for o in orbits),
        q1=min(o.maximum for o in orbits),
    )


def t_infinity_level(chain: DoublingChain) -> PwlMap:
    """The clamp of the chain's base map at the deepest computed hull."""
    return chain.base.clamp(chain.q0, chain.q1)
