#!/usr/bin/env python3
"""Tent-map periodic points, truncations, and the doubling chain.

The k-th iterate of the tent map crosses the diagonal exactly 2^k times.
Clamping the map to the hull of a minimal-diameter period-k orbit kills
every period before k in the forcing order and keeps exactly one
period-k orbit, so each truncation realizes one tail of the order.  That
orbit is the one of highest minimum below 2/5 (below 1/2 for k <= 2), so
it is found with no census of the k-th iterate's solutions.
"""

from sharkovsky_lab import (
    doubling_chain,
    fixed_points_of_iterate,
    forced_periods_upto,
    narrowest_tent_orbit,
    period_spectrum,
    periodic_orbits,
    t_infinity_level,
    tent_map,
    truncate_at_orbit,
)

tent = tent_map()

print("fixed points of the k-th iterate (the 2^k law):")
for k in range(1, 11):
    count = len(fixed_points_of_iterate(tent, k))
    assert count == 2**k
    print(f"  k = {k:>2}: {count}")

print("\nperiod-3 orbits and the minimal-diameter choice:")
orbits = periodic_orbits(tent, 3)
for orbit in orbits:
    print(f"  orbit {[str(p) for p in orbit]}  diameter {orbit.diameter}")
anchor = narrowest_tent_orbit(tent, 3)
assert anchor == min(orbits, key=lambda o: o.diameter)
print(f"  chosen: {[str(p) for p in anchor]}")

print("\ntruncation spectra match the forcing tails (periods up to 10):")
for k in (1, 2, 3, 4, 5, 6, 8):
    trunc = truncate_at_orbit(tent, narrowest_tent_orbit(tent, k))
    entries = period_spectrum(trunc.map, 10)
    realized = [e.period for e in entries if e.orbit_count or e.continuum]
    tail = forced_periods_upto(k, 10)
    assert realized == tail
    print(f"  clamp at period {k}: realized {realized}")

print("\nthe doubling chain: nested minimal-diameter orbits of period 3, 6, ...")
chain = doubling_chain(1)
for orbit in chain.levels:
    print(f"  period {orbit.period}: hull [{orbit.minimum}, {orbit.maximum}]")
print(f"  clamp bounds so far: q0 = {chain.q0}, q1 = {chain.q1}")
clamped = t_infinity_level(chain)
entries = period_spectrum(clamped, 8)
print("  spectrum of the level-1 clamp:",
      {e.period: e.orbit_count for e in entries})
