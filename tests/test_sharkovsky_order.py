"""The forcing order, its key arithmetic, and cross-checks on real dynamics."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharkovsky_lab import (
    Ordering,
    all_patterns,
    connect_the_dots,
    decompose,
    divisors,
    forced_periods_upto,
    forces,
    iterate_least_period,
    lift_least_periods,
    orbit_of,
    periodic_orbits,
    sharkovsky_compare,
    sort_key,
    stefan_pattern,
    tent_map,
)

positive = st.integers(min_value=1, max_value=10_000)


class TestDecompose:
    @pytest.mark.parametrize(
        "n,k,q", [(12, 2, 3), (8, 3, 1), (7, 0, 7), (1, 0, 1), (96, 5, 3)]
    )
    def test_examples(self, n, k, q):
        key = decompose(n)
        assert (key.two_exponent, key.odd_part) == (k, q)
        assert key.n == n

    @given(positive)
    def test_roundtrip(self, n):
        assert decompose(n).n == n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            decompose(0)


class TestCompare:
    @pytest.mark.parametrize(
        "m,n,expected",
        [
            (3, 5, Ordering.PRECEDES),
            (6, 8, Ordering.PRECEDES),
            (8, 4, Ordering.PRECEDES),
            (5, 3, Ordering.SUCCEEDS),
            (10, 10, Ordering.EQUAL),
            (2, 1, Ordering.PRECEDES),
            (9, 6, Ordering.PRECEDES),
        ],
    )
    def test_examples(self, m, n, expected):
        assert sharkovsky_compare(m, n) is expected

    def test_head_of_the_order(self):
        head = [3, 5, 7, 9, 2 * 3, 2 * 5, 2 * 7, 4 * 3, 4 * 5, 8, 4, 2, 1]
        for a, b in zip(head, head[1:]):
            assert sharkovsky_compare(a, b) is Ordering.PRECEDES

    @given(positive, positive)
    def test_totality_and_antisymmetry(self, m, n):
        result = sharkovsky_compare(m, n)
        if m == n:
            assert result is Ordering.EQUAL
        else:
            assert result is not Ordering.EQUAL
            flipped = sharkovsky_compare(n, m)
            assert {result, flipped} == {Ordering.PRECEDES, Ordering.SUCCEEDS}

    @settings(max_examples=300)
    @given(positive, positive, positive)
    def test_transitivity(self, a, b, c):
        if sort_key(a) < sort_key(b) < sort_key(c):
            assert sharkovsky_compare(a, c) is Ordering.PRECEDES

    def test_totality_via_key_injectivity(self):
        # distinct keys for every n <= 10^4 means exactly one of
        # precedes/succeeds holds for every unequal pair in that range
        keys = {sort_key(n) for n in range(1, 10_001)}
        assert len(keys) == 10_000

    def test_transitivity_on_many_random_triples(self):
        rng = random.Random(2718)
        for _ in range(100_000):
            a, b, c = (rng.randint(1, 10_000) for _ in range(3))
            if sort_key(a) < sort_key(b) < sort_key(c):
                assert sort_key(a) < sort_key(c)

    def test_three_is_minimum_one_is_maximum(self):
        for n in range(1, 2_000):
            assert forces(3, n)
            assert forces(n, 1)


class TestForcing:
    def test_reflexive(self):
        assert forces(17, 17)

    def test_period_three_forces_everything(self):
        assert all(forces(3, n) for n in range(1, 200))

    def test_powers_of_two_tail(self):
        assert not forces(4, 6)
        assert forces(4, 2) and forces(4, 1) and not forces(4, 8)

    @pytest.mark.parametrize(
        "m,upto,expected",
        [
            (5, 12, [1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12]),
            (2, 12, [1, 2]),
            (12, 16, [1, 2, 4, 8, 12, 16]),
        ],
    )
    def test_forced_periods_upto(self, m, upto, expected):
        assert forced_periods_upto(m, upto) == expected

    @settings(max_examples=200)
    @given(positive, positive, positive)
    def test_upward_closed(self, a, b, c):
        if forces(a, b) and forces(b, c):
            assert forces(a, c)


class TestIteratePeriods:
    @pytest.mark.parametrize("m,n,expected", [(6, 2, 3), (5, 5, 1), (6, 4, 3), (9, 6, 3)])
    def test_iterate_least_period(self, m, n, expected):
        assert iterate_least_period(m, n) == expected

    @pytest.mark.parametrize(
        "k,n,expected", [(3, 2, {6, 3}), (4, 2, {8}), (1, 4, {4, 2, 1}), (6, 4, {24}), (3, 4, {12, 6, 3})]
    )
    def test_lift_least_periods(self, k, n, expected):
        assert lift_least_periods(k, n) == expected

    def test_divisors_match_the_full_scan(self):
        for n in range(1, 3001):
            assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]

    def test_divisors_of_a_large_number_come_at_once(self):
        # the scan stops at isqrt(n) = 10^5 and appends the cofactors
        start = time.perf_counter()
        found = divisors(10**10)
        assert time.perf_counter() - start < 1
        assert len(found) == 121 and found == sorted(found)
        assert found[:4] == [1, 2, 4, 5] and found[-1] == 10**10

    @given(positive, st.integers(min_value=1, max_value=60))
    def test_lift_contains_the_unlifted_consistency(self, m, n):
        # a least-period-m point of f is a least-period-k point of f^n with
        # k = m/(m, n); its period under f must then appear in the lift set
        k = iterate_least_period(m, n)
        assert m in lift_least_periods(k, n)


def _least_period_under_power(f, y, n, cap):
    """Least j with f^(n*j)(y) = y, by direct evaluation."""
    cur = y
    for j in range(1, cap + 1):
        for _ in range(n):
            cur = f(cur)
        if cur == y:
            return j
    raise AssertionError("point did not return")


class TestCrossValidationOnDynamics:
    def test_orbit_periods_under_iterates(self):
        # every orbit point of a realized pattern, checked against m/(m, n)
        patterns = list(all_patterns(3)) + list(all_patterns(4)) + [
            stefan_pattern(5), stefan_pattern(7)
        ]
        rng = random.Random(23)
        patterns += [p for p in all_patterns(5) if rng.random() < 0.3]
        for pattern in patterns:
            f = connect_the_dots(pattern)
            orbit = orbit_of(f, 0)
            m = orbit.period
            for n in range(1, 7):
                expected = iterate_least_period(m, n)
                for p in orbit:
                    assert _least_period_under_power(f, p, n, m) == expected

    def test_tent_orbits_of_iterates_lift_correctly(self):
        tent = tent_map()
        for n in range(1, 5):
            g = tent.iterate(n)
            for k in range(1, 13):
                if k * n > 12:
                    continue
                for orbit in periodic_orbits(g, k):
                    for p in orbit:
                        period_under_tent = orbit_of(tent, p).period
                        assert period_under_tent in lift_least_periods(k, n)
