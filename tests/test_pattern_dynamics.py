"""Patterns, covering graphs, closed walks, and period spectra."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharkovsky_lab import exact_pwl, pattern_dynamics
from sharkovsky_lab import (
    CertificationFailed,
    CyclicPattern,
    Interval,
    InvalidPattern,
    MarkovGraph,
    NotAWalk,
    PieceBudgetExceeded,
    PwlMap,
    UnsupportedPeriod,
    WalkBudgetExceeded,
    all_patterns,
    budgets,
    connect_the_dots,
    divisors,
    is_orbit_of,
    is_stefan_pattern,
    iter_closed_walks,
    loop_to_intervals,
    markov_graph,
    orbit_of,
    periodic_orbits_upto,
    random_pattern,
    realized_periods,
    stefan_pattern,
)

THREE_CYCLE = CyclicPattern((2, 3, 1))
SWAP = CyclicPattern((2, 1))
FOUR_SHIFT = CyclicPattern((2, 3, 4, 1))
FOUR_DOUBLING = CyclicPattern((3, 4, 2, 1))  # its 4th iterate has identity laps


def _pattern_of_orbit(f, orbit):
    """The spatial type of an orbit: rank i maps to the rank of its image."""
    pts = list(orbit)
    rank = {p: i + 1 for i, p in enumerate(pts)}
    return CyclicPattern(tuple(rank[f(p)] for p in pts))


class TestCyclicPattern:
    def test_valid_cycle(self):
        assert THREE_CYCLE.size == 3
        assert THREE_CYCLE.image(1) == 2

    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidPattern):
            CyclicPattern((1, 1, 2))

    def test_rejects_multi_cycle_permutation(self):
        with pytest.raises(InvalidPattern):
            CyclicPattern((2, 1, 4, 3))

    def test_rejects_fixed_point_pattern(self):
        with pytest.raises(InvalidPattern):
            CyclicPattern((1,))

    def test_cycle_string_roundtrip(self):
        for text in ("1>2>3", "1>3>2", "1>3>4>2>5"):
            assert CyclicPattern.from_cycle_string(text).cycle_string() == text

    def test_cycle_string_rejects_bad_input(self):
        with pytest.raises(InvalidPattern):
            CyclicPattern.from_cycle_string("1>2>2")
        with pytest.raises(InvalidPattern):
            CyclicPattern.from_cycle_string("1>x")

    def test_mirror_is_an_involution(self):
        for pattern in all_patterns(5):
            assert pattern.mirror().mirror() == pattern

    @pytest.mark.parametrize("m,count", [(2, 1), (3, 2), (4, 6), (5, 24)])
    def test_all_patterns_count(self, m, count):
        patterns = list(all_patterns(m))
        assert len(patterns) == count
        assert len(set(patterns)) == count


class TestConnectTheDots:
    def test_three_cycle_realization(self):
        f = connect_the_dots(THREE_CYCLE)
        assert f.breakpoints == ((F(0), F(1, 2)), (F(1, 2), F(1)), (F(1), F(0)))

    def test_swap_realization(self):
        f = connect_the_dots(SWAP)
        assert f.breakpoints == ((F(0), F(1)), (F(1), F(0)))

    def test_realization_has_the_pattern_as_spatial_type(self):
        for m in (2, 3, 4, 5):
            for pattern in all_patterns(m):
                f = connect_the_dots(pattern)
                orbit = orbit_of(f, 0)
                assert orbit.period == m
                assert is_orbit_of(f, orbit)
                assert _pattern_of_orbit(f, orbit) == pattern


class TestMarkovGraph:
    def test_three_cycle_edges(self):
        graph = markov_graph(THREE_CYCLE)
        assert sorted(graph.edges) == [(1, 2), (2, 1), (2, 2)]

    def test_swap_edges(self):
        assert sorted(markov_graph(SWAP).edges) == [(1, 1)]

    def test_stefan_five_center_loop(self):
        graph = markov_graph(stefan_pattern(5))
        # the interval holding the fixed point carries the only self-loop
        loops = [i for i in range(1, 5) if graph.has_edge(i, i)]
        assert loops == [3]

    def test_stefan_five_walks_of_every_length_through_center(self):
        graph = markov_graph(stefan_pattern(5))
        for n in range(4, 11):
            assert any(3 in walk for walk in iter_closed_walks(graph, n))

    def test_from_images_covers_between_each_nodes_image_ends(self):
        # points 0..4 map to points 2, 4, 1, 1, 3: node 2 (points 1 to 2)
        # reverses, and node 3's ends share the image 1, so it covers nothing
        graph = MarkovGraph.from_images([2, 4, 1, 1, 3])
        assert graph.node_count == 4
        assert sorted(graph.edges) == [(1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (4, 2), (4, 3)]
        assert graph.successors(3) == []

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_edges_agree_with_covering_exhaustively(self, m):
        for pattern in all_patterns(m):
            f = connect_the_dots(pattern)
            graph = markov_graph(pattern)
            xs = [F(i, m - 1) for i in range(m)]
            for i in range(1, m):
                J = Interval(xs[i - 1], xs[i])
                for j in range(1, m):
                    K = Interval(xs[j - 1], xs[j])
                    assert graph.has_edge(i, j) == f.covers(J, K)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_rank_graph_is_the_markov_partition_exhaustively(self, m):
        # the pattern's orbit is the closure of the breakpoints, so the two
        # builders meet; markov_graph reads the edges off the ranks
        for pattern in all_patterns(m):
            graph = exact_pwl.markov_partition(connect_the_dots(pattern))
            assert graph == markov_graph(pattern), pattern

    def test_dot_output(self):
        dot = markov_graph(THREE_CYCLE).to_dot()
        assert dot.splitlines() == [
            "digraph covering {",
            "  1 -> 2;",
            "  2 -> 1;",
            "  2 -> 2;",
            "}",
        ]


def _int_matrix_power_trace(graph, n):
    size = graph.node_count
    a = [[1 if graph.has_edge(i + 1, j + 1) else 0 for j in range(size)] for i in range(size)]
    result = a
    for _ in range(n - 1):
        result = [
            [sum(result[i][k] * a[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)
        ]
    return sum(result[i][i] for i in range(size))


def _rotations(walk):
    return {walk[i:] + walk[:i] for i in range(len(walk))}


class TestClosedWalks:
    def test_three_cycle_small_lengths(self):
        graph = markov_graph(THREE_CYCLE)
        assert list(iter_closed_walks(graph, 1)) == [(2,)]
        assert list(iter_closed_walks(graph, 2)) == [(1, 2), (2, 2)]
        assert list(iter_closed_walks(graph, 3)) == [(1, 2, 2), (2, 2, 2)]

    def test_length_one_is_self_loops(self):
        graph = markov_graph(FOUR_SHIFT)
        assert list(iter_closed_walks(graph, 1)) == [(3,)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_rotation_classes_match_trace_oracle(self, n):
        # summing each class's distinct rotations recovers the count of
        # based closed walks, which is the trace of the n-th matrix power
        for pattern in (THREE_CYCLE, FOUR_SHIFT, FOUR_DOUBLING, stefan_pattern(5)):
            graph = markov_graph(pattern)
            walks = list(iter_closed_walks(graph, n))
            assert len(set(walks)) == len(walks)
            assert walks == sorted(walks)
            total = sum(len(_rotations(w)) for w in walks)
            assert total == _int_matrix_power_trace(graph, n)

    def test_canonical_representatives(self):
        graph = markov_graph(stefan_pattern(5))
        for walk in iter_closed_walks(graph, 5):
            assert walk == min(walk[i:] + walk[:i] for i in range(len(walk)))

    def test_walk_budget(self):
        graph = markov_graph(THREE_CYCLE)
        with budgets(walk=1), pytest.raises(WalkBudgetExceeded):
            list(iter_closed_walks(graph, 3))

    def test_successor_table_is_built_once_per_graph(self):
        class CountedEdges(frozenset):
            passes = 0

            def __iter__(self):
                CountedEdges.passes += 1
                return super().__iter__()

        plain = markov_graph(stefan_pattern(5))
        graph = MarkovGraph(plain.node_count, CountedEdges(plain.edges))
        for n in (3, 4, 5):
            assert list(iter_closed_walks(graph, n)) == list(iter_closed_walks(plain, n))
        for i in range(1, graph.node_count + 1):
            assert graph.successors(i) == sorted(j for a, j in plain.edges if a == i)
            graph.successors(i).clear()  # a caller's copy, not the table
        assert graph.successors(1) == plain.successors(1)
        assert CountedEdges.passes == 1


class TestLoopToIntervals:
    def test_relabeling(self):
        loop = loop_to_intervals(THREE_CYCLE, (1, 2, 2))
        assert list(loop) == [
            Interval(0, F(1, 2)),
            Interval(F(1, 2), 1),
            Interval(F(1, 2), 1),
        ]

    def test_single_node(self):
        loop = loop_to_intervals(THREE_CYCLE, (2,))
        assert list(loop) == [Interval(F(1, 2), 1)]
        assert list(loop_to_intervals(SWAP, (1,))) == [Interval(0, 1)]

    def test_not_a_walk(self):
        with pytest.raises(NotAWalk):
            loop_to_intervals(THREE_CYCLE, (1, 1))
        with pytest.raises(NotAWalk):
            loop_to_intervals(THREE_CYCLE, (1, 2, 3))


class TestRealizedPeriods:
    def test_three_cycle_has_everything(self):
        assert realized_periods(THREE_CYCLE, 6) == {1, 2, 3, 4, 5, 6}

    def test_swap_has_only_one_and_two(self):
        assert realized_periods(SWAP, 4) == {1, 2}

    def test_four_shift(self):
        assert realized_periods(FOUR_SHIFT, 4, method="both") == {1, 2, 3, 4}

    def test_doubling_pattern_spectrum(self):
        # the 4th iterate is the identity on two laps; the spectrum must
        # still come out as the pure doubling tail
        assert realized_periods(FOUR_DOUBLING, 8, method="direct") == {1, 2, 4}
        assert realized_periods(FOUR_DOUBLING, 8, method="walks") == {1, 2, 4}
        # on the matrix route that lap is a walk of slope product +1
        assert realized_periods(FOUR_DOUBLING, 8, method="auto") == {1, 2, 4}

    def test_stefan_seven_spectrum_excludes_three_and_five(self):
        realized = realized_periods(stefan_pattern(7), 9, method="walks")
        assert realized == {1, 2, 4, 6, 7, 8, 9}

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_methods_agree_exhaustively(self, m):
        for pattern in all_patterns(m):
            realized_periods(pattern, 8, method="both")

    def test_methods_agree_on_sampled_larger_patterns(self):
        rng = random.Random(99)
        for m in (5, 6):
            for _ in range(4):
                realized_periods(random_pattern(m, rng), 8, method="both")

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_matrix_matches_direct_exhaustively(self, m):
        for pattern in all_patterns(m):
            matrix = realized_periods(pattern, 8, method="auto")
            assert matrix == realized_periods(pattern, 8, method="direct"), pattern

    @pytest.mark.parametrize(
        "pattern",
        [THREE_CYCLE, FOUR_DOUBLING, CyclicPattern.from_cycle_string("1>3>4>2>5>7>6")],
        ids=str,
    )
    def test_primitive_walk_counts_match_the_enumeration(self, pattern):
        graph = markov_graph(pattern)
        prim = exact_pwl.primitive_walk_counts(graph, 8)
        for k in range(1, 9):
            walks = list(iter_closed_walks(graph, k))
            primitive = [w for w in walks if len(_rotations(w)) == k]
            assert prim[k] == k * len(primitive)
            assert sum(prim[d] for d in divisors(k)) == _int_matrix_power_trace(graph, k)

    def test_matrix_takes_the_swap_from_its_size(self):
        # the swap's one node reverses onto itself: no primitive walk of length 2
        assert exact_pwl.primitive_walk_counts(markov_graph(SWAP), 4) == [0, 1, 0, 0, 0]
        assert realized_periods(SWAP, 4, method="auto") == {1, 2}

    def test_matrix_answers_far_beyond_the_budgets(self):
        pattern = CyclicPattern.from_cycle_string("1>3>4>2>5>7>6")
        assert realized_periods(pattern, 200, method="auto") == set(range(1, 201))
        assert realized_periods(stefan_pattern(7), 200) == set(range(1, 201)) - {3, 5}

    def test_both_names_the_routes_that_disagree(self, monkeypatch):
        # a matrix route that saw no walk at all: only the pattern's own period
        monkeypatch.setattr(
            pattern_dynamics,
            "primitive_walk_counts",
            lambda graph, upto: [0] * (upto + 1),
        )
        assert realized_periods(THREE_CYCLE, 4, method="auto") == {3}
        with pytest.raises(CertificationFailed) as info:
            realized_periods(THREE_CYCLE, 4, method="both")
        message = str(info.value)
        assert "at period 1" in message
        assert "matrix=False direct=True walks=True" in message

    def test_walks_route_checks_no_covering(self, monkeypatch):
        # each walk of the covering graph is a cycle of coverings by construction
        expected = {
            pattern: realized_periods(pattern, 8, method="auto")
            for m in (2, 3, 4, 5)
            for pattern in all_patterns(m)
        }

        def no_covering_check(self, J, K):
            raise AssertionError("the walks route re-checked a covering")

        monkeypatch.setattr(PwlMap, "covers", no_covering_check)
        for pattern, realized in expected.items():
            assert realized_periods(pattern, 8, method="walks") == realized, pattern
        assert not hasattr(pattern_dynamics, "witnesses")

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=8), st.randoms(use_true_random=False))
    def test_matrix_matches_walks_and_the_direct_route_within_its_budget(self, m, rng):
        pattern = random_pattern(m, rng)
        matrix = realized_periods(pattern, 8, method="auto")
        assert matrix == realized_periods(pattern, 8, method="walks")
        censuses = periodic_orbits_upto(connect_the_dots(pattern), 8)
        checked = 0
        try:
            with budgets(piece=1 << 16):
                for k, census in enumerate(censuses, start=1):
                    assert (k in matrix) == bool(census.orbits or census.continuum), k
                    checked = k
        except PieceBudgetExceeded:
            pass
        assert checked >= 4  # f^4 of an 8-point pattern has at most 7^4 laps


class TestStefanPatterns:
    def test_both_three_cycles_are_spirals(self):
        for pattern in all_patterns(3):
            assert is_stefan_pattern(pattern)

    def test_spiral_five_shape(self):
        assert stefan_pattern(5).mapping == (3, 5, 4, 2, 1)
        assert is_stefan_pattern(stefan_pattern(5))
        assert is_stefan_pattern(stefan_pattern(5).mirror())

    def test_spiral_seven_shape(self):
        assert stefan_pattern(7).mapping == (4, 7, 6, 5, 3, 2, 1)
        assert is_stefan_pattern(stefan_pattern(7))

    def test_pattern_realizing_three_is_not_a_spiral(self):
        # any 5-pattern whose realization has a period-3 point
        found = 0
        for pattern in all_patterns(5):
            if 3 in realized_periods(pattern, 3, method="walks"):
                assert not is_stefan_pattern(pattern)
                found += 1
        assert found > 0

    def test_even_period_rejected(self):
        with pytest.raises(UnsupportedPeriod, match="need an odd period >= 3, got 4"):
            stefan_pattern(4)
        with pytest.raises(UnsupportedPeriod, match="need an odd period >= 3, got 4"):
            is_stefan_pattern(FOUR_SHIFT)

    def test_seven_patterns_without_smaller_odd_periods_are_spirals(self):
        rng = random.Random(331)
        patterns = {stefan_pattern(7)}
        patterns.update(random_pattern(7, rng) for _ in range(50))
        for pattern in patterns:
            realized = realized_periods(pattern, 7, method="walks")
            if 3 not in realized and 5 not in realized:
                assert is_stefan_pattern(pattern), pattern
