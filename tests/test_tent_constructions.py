"""Tent-map orbits, truncations, spectra, and the doubling chain."""

from fractions import Fraction as F

import pytest

from sharkovsky_lab import (
    Interval,
    NoSuchOrbit,
    NotAnOrbit,
    Orbit,
    PwlMap,
    doubling_chain,
    forced_periods_upto,
    is_orbit_of,
    minimal_diameter_orbit,
    narrowest_tent_orbit,
    orbit_of,
    period_spectrum,
    periodic_orbits,
    realized_spectrum_set,
    t_infinity_level,
    tent_map,
    truncate_at_orbit,
)

TENT = tent_map()


class TestTentMap:
    def test_formula(self):
        assert TENT(F(1, 3)) == F(2, 3)
        assert TENT(F(1, 2)) == 1
        assert TENT(0) == 0 and TENT(1) == 0


class TestMinimalDiameterOrbit:
    def test_period_three_prefers_the_tighter_orbit(self):
        orbit = minimal_diameter_orbit(TENT, 3)
        assert list(orbit) == [F(2, 7), F(4, 7), F(6, 7)]
        assert orbit.diameter == F(4, 7)

    def test_fixed_points_tie_break_to_zero(self):
        assert list(minimal_diameter_orbit(TENT, 1)) == [0]

    def test_unique_period_two_orbit(self):
        assert list(minimal_diameter_orbit(TENT, 2)) == [F(2, 5), F(4, 5)]

    def test_a_stale_window_is_refused_at_the_call(self):
        # the search is over the whole domain, and it takes no third argument
        with pytest.raises(TypeError, match="2 positional arguments but 3 were given"):
            minimal_diameter_orbit(TENT, 6, Interval(F(2, 7), F(6, 7)))

    def test_no_such_orbit(self):
        # the truncation at the period-5 orbit realizes only the forcing tail of 5
        trunc = truncate_at_orbit(TENT, minimal_diameter_orbit(TENT, 5))
        with pytest.raises(NoSuchOrbit):
            minimal_diameter_orbit(trunc.map, 3)


class TestNarrowestTentOrbit:
    @pytest.mark.parametrize("k", range(1, 17))
    def test_equals_the_census(self, k):
        assert narrowest_tent_orbit(TENT, k) == minimal_diameter_orbit(TENT, k)

    @pytest.mark.parametrize("k", range(2, 17))
    def test_the_lemma_holds(self, k):
        # the minimum is T(max), below 1/2, so diam = 1 - 3 min / 2
        orbit = narrowest_tent_orbit(TENT, k)
        assert orbit.minimum < F(1, 2) < orbit.maximum
        assert orbit.minimum == 2 - 2 * orbit.maximum == TENT(orbit.maximum)

    def test_chain_levels_equal_the_census_on_each_truncation(self):
        chain = doubling_chain(5)
        assert chain.levels[0] == minimal_diameter_orbit(TENT, 3)
        for prev, level in zip(chain.levels, chain.levels[1:]):
            g = truncate_at_orbit(TENT, prev).map
            assert level == minimal_diameter_orbit(g, 2 * prev.period)

    def test_no_such_orbit(self):
        trunc = truncate_at_orbit(TENT, minimal_diameter_orbit(TENT, 5))
        with pytest.raises(NoSuchOrbit, match="no least-period-3 orbit"):
            narrowest_tent_orbit(trunc.map, 3)


class TestTruncation:
    def test_plateaus_of_the_period_three_truncation(self):
        trunc = truncate_at_orbit(TENT, minimal_diameter_orbit(TENT, 3))
        assert trunc.bounds == Interval(F(2, 7), F(6, 7))
        assert trunc.map.breakpoints == (
            (F(0), F(2, 7)),
            (F(1, 7), F(2, 7)),
            (F(3, 7), F(6, 7)),
            (F(4, 7), F(6, 7)),
            (F(6, 7), F(2, 7)),
            (F(1), F(2, 7)),
        )

    def test_anchor_orbit_survives(self):
        for k in (2, 3, 4, 5):
            trunc = truncate_at_orbit(TENT, minimal_diameter_orbit(TENT, k))
            assert is_orbit_of(trunc.map, trunc.anchor_orbit)

    def test_zero_diameter_truncation_is_constant(self):
        trunc = truncate_at_orbit(TENT, Orbit((F(0),)))
        assert trunc.map == PwlMap([(0, 0), (1, 0)])

    def test_rejects_non_orbit(self):
        with pytest.raises(NotAnOrbit):
            truncate_at_orbit(TENT, Orbit((F(1, 5), F(2, 5))))


class TestPeriodSpectrum:
    def test_tent_up_to_three(self):
        entries = period_spectrum(TENT, 3)
        assert [(e.period, e.orbit_count, e.continuum) for e in entries] == [
            (1, 2, False),
            (2, 1, False),
            (3, 2, False),
        ]

    def test_constant_map(self):
        constant = PwlMap([(0, 0), (1, 0)])
        entries = period_spectrum(constant, 4)
        assert [(e.period, e.orbit_count) for e in entries] == [
            (1, 1), (2, 0), (3, 0), (4, 0)
        ]

    def test_truncation_keeps_exactly_one_anchor_orbit(self):
        trunc = truncate_at_orbit(TENT, minimal_diameter_orbit(TENT, 3))
        entries = period_spectrum(trunc.map, 3)
        assert entries[2].orbit_count == 1 and not entries[2].continuum

    def test_realized_set_of_a_truncation_is_the_forcing_tail(self):
        trunc = truncate_at_orbit(TENT, minimal_diameter_orbit(TENT, 5))
        realized = realized_spectrum_set(period_spectrum(trunc.map, 10))
        assert sorted(realized) == forced_periods_upto(5, 10)

    def test_truncation_tail_for_period_seven(self):
        trunc = truncate_at_orbit(TENT, minimal_diameter_orbit(TENT, 7))
        realized = realized_spectrum_set(period_spectrum(trunc.map, 10))
        assert sorted(realized) == forced_periods_upto(7, 10)
        entries = period_spectrum(trunc.map, 7)
        assert entries[6].orbit_count == 1


class TestDoublingChain:
    def test_level_zero(self):
        chain = doubling_chain(0)
        assert [list(o) for o in chain.levels] == [[F(2, 7), F(4, 7), F(6, 7)]]
        assert (chain.q0, chain.q1) == (F(2, 7), F(6, 7))

    def test_level_one_nests_strictly(self):
        chain = doubling_chain(1)
        q3, q6 = chain.levels
        assert q6.period == 6
        assert is_orbit_of(TENT, q6)
        assert orbit_of(TENT, q6.minimum).period == 6
        assert q3.minimum < q6.minimum and q6.maximum < q3.maximum
        assert (chain.q0, chain.q1) == (q6.minimum, q6.maximum)

    @pytest.mark.parametrize(
        "levels, diameter", [(0, F(4, 7)), (1, F(10, 21)), (2, F(216, 455))]
    )
    def test_each_level_is_the_whole_domain_answer(self, levels, diameter):
        # the chain censuses each level on the truncation at the level before
        # it; the whole domain's census of period 3 * 2^L must agree
        level = doubling_chain(levels).levels[levels]
        assert minimal_diameter_orbit(TENT, 3 * 2**levels) == level
        assert level.diameter == diameter

    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_each_level_is_the_windowed_census(self, levels):
        # the route before the truncations: census the tent clamped at the
        # level before's hull, and keep the orbits the tent permutes
        chain = doubling_chain(levels)
        prev, level = chain.levels[-2:]
        hull = prev.hull
        clamped = periodic_orbits(TENT.clamp(hull.lo, hull.hi), level.period)
        kept = [o for o in clamped if is_orbit_of(TENT, o)]
        assert level == min(kept, key=lambda o: (o.diameter, o.minimum))
        # the chain's premise: every orbit of the truncation at this period is
        # a tent orbit off the hull's ends, and none is in a continuum
        census = periodic_orbits(truncate_at_orbit(TENT, prev).map, level.period)
        assert not census.continuum and len(census) == 2
        for orbit in census:
            assert is_orbit_of(TENT, orbit)
            assert hull.lo < orbit.minimum and orbit.maximum < hull.hi
        assert (chain.q0, chain.q1) == (level.minimum, level.maximum)

    def test_level_zero_clamp_is_the_period_three_truncation(self):
        chain = doubling_chain(0)
        trunc = truncate_at_orbit(TENT, minimal_diameter_orbit(TENT, 3))
        assert t_infinity_level(chain) == trunc.map

    def test_level_one_spectrum(self):
        chain = doubling_chain(1)
        clamped = t_infinity_level(chain)
        entries = period_spectrum(clamped, 8)
        counts = {e.period: e.orbit_count for e in entries}
        assert counts[6] == 1
        # every period preceding 6 in the forcing order is absent
        for j in (3, 5, 7):
            assert counts[j] == 0
        assert not any(e.continuum for e in entries)
        assert sorted(realized_spectrum_set(entries)) == forced_periods_upto(6, 8)
