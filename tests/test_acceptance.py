"""End-to-end acceptance checks.

Every check is exact (integer or rational equality); there are no
tolerances anywhere.  One line per criterion is printed, visible under
``pytest -s`` or ``pytest -v -s tests/test_acceptance.py``.
"""

import random
from contextlib import contextmanager
from fractions import Fraction as F

from sharkovsky_lab import (
    all_patterns,
    connect_the_dots,
    doubling_chain,
    fixed_points_of_iterate,
    forced_periods_upto,
    forces,
    is_orbit_of,
    is_stefan_pattern,
    iterate_least_period,
    least_period,
    lift_least_periods,
    minimal_diameter_orbit,
    odd_period_witness,
    orbit_of,
    period_spectrum,
    period_two_from_orbit,
    periodic_orbits,
    random_pattern,
    realized_periods,
    stefan_pattern,
    tent_map,
    truncate_at_orbit,
)

TENT = tent_map()


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"criterion [{label}]: FAIL")
        raise
    print(f"criterion [{label}]: PASS")


def test_a1_root_count_law():
    with criterion("A1 tent iterate has exactly 2^k fixed points, k <= 14"):
        for k in range(1, 15):
            fps = fixed_points_of_iterate(TENT, k)
            assert len(fps) == 2**k
            assert not fps.has_continuum


def test_a2_minimal_diameter_period_three_orbit():
    with criterion("A2 both period-3 orbits found; minimal diameter is 2/7-orbit"):
        census = periodic_orbits(TENT, 3)
        found = {tuple(o.points) for o in census}
        assert found == {
            (F(2, 7), F(4, 7), F(6, 7)),
            (F(2, 9), F(4, 9), F(8, 9)),
        }
        assert not census.continuum
        chosen = minimal_diameter_orbit(TENT, 3)
        assert tuple(chosen.points) == (F(2, 7), F(4, 7), F(6, 7))


def test_a3_truncation_spectra_are_forcing_tails():
    with criterion("A3 truncation spectra up to 10 equal the forcing tails"):
        for k in (1, 2, 3, 4, 5, 6, 8):
            anchor = minimal_diameter_orbit(TENT, k)
            trunc = truncate_at_orbit(TENT, anchor)
            entries = period_spectrum(trunc.map, 10)
            counts = {e.period: e.orbit_count for e in entries}
            assert not any(e.continuum for e in entries)
            if k <= 10:
                assert counts[k] == 1, f"period {k}: {counts[k]} orbits"
            realized = [e.period for e in entries if e.orbit_count or e.continuum]
            assert realized == forced_periods_upto(k, 10), (
                f"truncation at period {k}"
            )


def test_a4_spectra_upward_closed_for_all_small_patterns():
    with criterion("A4 realized spectra upward-closed, all 153 patterns m <= 6"):
        count = 0
        for m in (2, 3, 4, 5, 6):
            for pattern in all_patterns(m):
                realized = realized_periods(pattern, 8, method="walks")
                assert pattern.size in realized
                for k in realized:
                    forced = {n for n in range(1, 9) if forces(k, n)}
                    assert forced <= realized, (pattern, k, forced - realized)
                count += 1
        assert count == 153


def test_a5_period_two_witnesses_for_every_pattern():
    with criterion("A5 certified period-2 witnesses, all 872 patterns 3 <= m <= 7"):
        count = 0
        for m in (3, 4, 5, 6, 7):
            for pattern in all_patterns(m):
                f = connect_the_dots(pattern)
                witness = period_two_from_orbit(f, orbit_of(f, 0))
                y = witness.point
                assert f(f(y)) == y and f(y) != y
                count += 1
        assert count == 872


def test_a6_odd_orbit_witnesses_for_every_target_period():
    with criterion("A6 odd-orbit witnesses for evens <= 10 and m+1 .. m+5"):
        rng = random.Random(1905)
        for m in (3, 5, 7):
            # the canonical spiral plus 25 seeded random draws (duplicates
            # collapse; for m = 3 only two patterns exist at all)
            patterns = {stefan_pattern(m)}
            patterns.update(random_pattern(m, rng) for _ in range(25))
            targets = [2, 4, 6, 8, 10] + list(range(m + 1, m + 6))
            for pattern in patterns:
                f = connect_the_dots(pattern)
                orbit = orbit_of(f, 0)
                for n in targets:
                    y = odd_period_witness(f, orbit, n)
                    assert least_period(f, y, n) == n, (pattern, n)


def test_a7_iterate_period_arithmetic_on_real_orbits():
    with criterion("A7 iterate-period laws on 200 randomized orbit cases"):
        rng = random.Random(424)
        for _ in range(200):
            m = rng.randint(2, 7)
            n = rng.randint(1, 6)
            pattern = random_pattern(m, rng)
            f = connect_the_dots(pattern)
            orbit = orbit_of(f, 0)
            expected = iterate_least_period(m, n)
            for p in orbit:
                cur = p
                period_under_iterate = None
                for j in range(1, m + 1):
                    for _ in range(n):
                        cur = f(cur)
                    if cur == p:
                        period_under_iterate = j
                        break
                assert period_under_iterate == expected
            assert m in lift_least_periods(expected, n)


def test_a8_doubling_chain_and_its_clamp():
    with criterion("A8 doubling chain nests strictly; clamp isolates period 6"):
        chain = doubling_chain(1)
        q3, q6 = chain.levels
        assert q3.hull.lo < q6.hull.lo and q6.hull.hi < q3.hull.hi
        assert is_orbit_of(TENT, q6) and q6.period == 6
        assert orbit_of(TENT, q6.minimum).period == 6
        clamped = TENT.clamp(chain.q0, chain.q1)
        entries = period_spectrum(clamped, 6)
        counts = {e.period: e.orbit_count for e in entries}
        assert counts[6] == 1
        assert counts[3] == 0 and counts[5] == 0
        assert not any(e.continuum for e in entries)


def test_a9_minimal_odd_patterns_are_spirals():
    with criterion("A9 odd patterns forcing no smaller odd period are spirals"):
        for m in (3, 5):
            smaller_odds = [j for j in range(3, m, 2)]
            for pattern in all_patterns(m):
                realized = realized_periods(pattern, m, method="walks")
                if not any(j in realized for j in smaller_odds):
                    assert is_stefan_pattern(pattern), pattern
