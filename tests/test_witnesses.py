"""Constructive witnesses: crossed pairs, interval cycles, odd-orbit forcing."""

import ast
import hashlib
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import fields
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sharkovsky_lab
from sharkovsky_lab import (
    CertificationFailed,
    CrossingCase,
    CyclicPattern,
    Interval,
    IntervalLoop,
    NoLeastPeriodWitness,
    NotAnOrbit,
    NotCovering,
    Orbit,
    PreconditionError,
    PwlMap,
    TraceCase,
    UnsupportedPeriod,
    all_patterns,
    analyze_odd_orbit,
    connect_the_dots,
    forcing_cycle,
    iter_closed_walks,
    least_period,
    loop_to_intervals,
    markov_graph,
    minimal_diameter_orbit,
    odd_period_witness,
    orbit_of,
    period_two_from_crossing,
    period_two_from_orbit,
    periodic_orbits,
    periodic_point_from_cycle,
    point_of_least_period_in_lap,
    random_pattern,
    realized_periods,
    stefan_pattern,
    tent_map,
    truncate_at_orbit,
    witness_from_trace,
    witnesses,
)
from sharkovsky_lab import cli, exact_pwl
from sharkovsky_lab.exact_pwl import fixed_structure_on

THREE_CYCLE = CyclicPattern((2, 3, 1))
F3 = connect_the_dots(THREE_CYCLE)
ORBIT3 = orbit_of(F3, 0)
IDENTITY = PwlMap([(0, 0), (1, 1)])
NEG = PwlMap([(0, 1), (1, 0)])


class TestPeriodTwoFromCrossing:
    def test_three_cycle_crossing(self):
        w = period_two_from_crossing(F3, F(1, 2), 1)
        assert w.case is CrossingCase.NO_FIXED_POINT_LEFT
        assert w.first_fixed == F(2, 3)
        assert w.upper_preimage == F(1, 2)
        assert w.point == F(1, 3)
        assert sorted(orbit_of(F3, w.point)) == [F(1, 3), F(5, 6)]

    def test_reflection_crossing(self):
        w = period_two_from_crossing(NEG, F(1, 4), F(3, 4))
        assert w.point == 0 and NEG(w.point) == 1

    def test_identity_violates_precondition(self):
        with pytest.raises(PreconditionError, match=r"need f\(d\) <= c < d <= f\(c\)"):
            period_two_from_crossing(IDENTITY, F(1, 4), F(3, 4))

    def test_named_points_satisfy_their_equations(self):
        rng = random.Random(5)
        for m in (4, 5, 6, 7):
            for _ in range(6):
                f = connect_the_dots(random_pattern(m, rng))
                orbit = orbit_of(f, 0)
                w = period_two_from_orbit(f, orbit)
                assert f(w.first_fixed) == w.first_fixed
                assert f(w.upper_preimage) == w.upper
                assert f(w.upper) <= w.lower < w.upper <= f(w.lower)
                if w.case is CrossingCase.FIXED_POINT_LEFT:
                    assert f(w.left_fixed) == w.left_fixed
                    assert f(w.lower_preimage) == w.lower
                assert f(f(w.point)) == w.point and f(w.point) != w.point


class TestPeriodTwoFromOrbit:
    def test_three_cycle(self):
        w = period_two_from_orbit(F3, ORBIT3)
        assert w.point == F(1, 3)

    def test_stefan_five(self):
        f = connect_the_dots(stefan_pattern(5))
        w = period_two_from_orbit(f, orbit_of(f, 0))
        assert w.point == F(1, 6)
        assert sorted(orbit_of(f, w.point)) == [F(1, 6), F(5, 6)]

    def test_swap_orbit_too_small(self):
        f = connect_the_dots(CyclicPattern((2, 1)))
        with pytest.raises(UnsupportedPeriod, match="need period > 2, got 2"):
            period_two_from_orbit(f, orbit_of(f, 0))

    def test_not_an_orbit(self):
        with pytest.raises(NotAnOrbit):
            period_two_from_orbit(F3, Orbit((F(1, 5), F(2, 5), F(3, 5))))

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_exhaustive_small_patterns(self, m):
        for pattern in all_patterns(m):
            f = connect_the_dots(pattern)
            w = period_two_from_orbit(f, orbit_of(f, 0))
            assert f(f(w.point)) == w.point and f(w.point) != w.point

    def test_bogus_witness_is_refused_under_optimize(self):
        # python -O strips assert statements; the certificate must survive it
        script = textwrap.dedent(
            """
            from fractions import Fraction
            from sharkovsky_lab import CertificationFailed, CyclicPattern
            from sharkovsky_lab import connect_the_dots, orbit_of, witnesses

            assert False, "asserts must be stripped"
            f = connect_the_dots(CyclicPattern.from_cycle_string("1>2>3"))
            # 2/3 is the fixed point of f, not a period-2 point
            witnesses._leftmost_period2_point = lambda f, window: Fraction(2, 3)
            try:
                witnesses.period_two_from_orbit(f, orbit_of(f, 0))
            except CertificationFailed:
                print("refused")
            else:
                print("accepted")
            """
        )
        src = str(Path(sharkovsky_lab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert run.stdout.strip() == "refused", run.stderr

    def test_the_library_holds_no_assert_statement(self):
        # python -O strips every assert, so none may carry a certificate
        package = Path(sharkovsky_lab.__file__).resolve().parent
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Assert)
        ]
        assert not found


def reference_period2_point(f, window):
    """The leftmost period-2 point with its own rule for involution laps."""
    fps = fixed_structure_on(f, window, 2)
    candidates = list(fps.points)
    for lap in fps.identity_laps:
        fixed_inside = fixed_structure_on(f, lap).points
        if fixed_inside:
            z = fixed_inside[0]
            if z == lap.lo and lap.hi > z:
                candidates.append((z + lap.hi) / 2)
    for y in sorted(candidates):
        if f(y) != y:
            return y
    raise CertificationFailed(f"no period-2 point in {window}")


unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=8)


@st.composite
def maps_with_involution_laps(draw):
    """A small connect-the-dots map, or a self-map of [0, 1] through lattice
    points (i/m, y_i/m) with y steps of -1, 0 or 1.

    The second kind often has whole laps on which f^2 is the identity.
    """
    if draw(st.booleans()):
        m = draw(st.integers(min_value=3, max_value=5))
        return connect_the_dots(draw(st.sampled_from(list(all_patterns(m)))))
    m = draw(st.integers(min_value=1, max_value=5))
    ys = [draw(st.integers(min_value=0, max_value=m))]
    for _ in range(m):
        ys.append(min(m, max(0, ys[-1] + draw(st.sampled_from((-1, 0, 1))))))
    return PwlMap([(F(i, m), F(y, m)) for i, y in enumerate(ys)])


class TestLeftmostPeriodTwoPoint:
    @staticmethod
    def _assert_matches_the_reference(f, window):
        outcomes = []
        for search in (witnesses._leftmost_period2_point, reference_period2_point):
            try:
                outcomes.append(search(f, window))
            except CertificationFailed:
                outcomes.append(CertificationFailed)
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize(
        "f", [NEG, IDENTITY, F3], ids=["reflection", "identity", "three-cycle"]
    )
    def test_matches_the_reference_on_windows_of_eighths(self, f):
        ends = [F(i, 8) for i in range(9)]
        for i, a in enumerate(ends):
            for b in ends[i:]:
                self._assert_matches_the_reference(f, Interval(a, b))

    @settings(max_examples=200, deadline=None)
    @given(maps_with_involution_laps(), unit_fractions, unit_fractions)
    def test_matches_the_reference(self, f, a, b):
        self._assert_matches_the_reference(f, Interval.between(a, b))


class TestPeriodicPointFromCycle:
    def test_three_cycle_loop(self):
        loop = loop_to_intervals(THREE_CYCLE, (1, 2, 2))
        assert periodic_point_from_cycle(F3, loop) == 0

    def test_length_four_loop(self):
        loop = loop_to_intervals(THREE_CYCLE, (1, 2, 2, 2))
        y = periodic_point_from_cycle(F3, loop, require_least_period=True)
        assert y == F(2, 9)
        assert sorted(orbit_of(F3, y)) == [F(2, 9), F(5, 9), F(13, 18), F(8, 9)]

    def test_length_one_loop_gives_fixed_point(self):
        loop = IntervalLoop((Interval(F(1, 2), 1),))
        y = periodic_point_from_cycle(F3, loop)
        assert F3(y) == y == F(2, 3)

    def test_itinerary_constraint_holds(self):
        loop = loop_to_intervals(THREE_CYCLE, (2, 2, 1, 2))
        y = periodic_point_from_cycle(F3, loop)
        cur = y
        for J in loop:
            assert J.contains(cur)
            cur = F3(cur)
        assert cur == y

    def test_not_a_cycle(self):
        bad = IntervalLoop((Interval(0, F(1, 4)), Interval(F(3, 4), 1)))
        with pytest.raises(NotCovering, match=r"does not cover \[3/4, 1\] at position 0"):
            periodic_point_from_cycle(F3, bad)

    def test_no_least_period_witness_on_the_identity(self):
        loop = IntervalLoop((Interval(0, 1), Interval(0, 1)))
        with pytest.raises(NoLeastPeriodWitness):
            periodic_point_from_cycle(IDENTITY, loop, require_least_period=True)

    def test_identity_lap_continuum_is_searched(self):
        # the reflection's square is the identity, yet period 2 exists
        loop = IntervalLoop((Interval(0, 1), Interval(0, 1)))
        y = periodic_point_from_cycle(NEG, loop, require_least_period=True)
        assert least_period(NEG, y, 2) == 2

    def test_walk_witnesses_exist_for_small_patterns(self):
        for m in (2, 3, 4):
            for pattern in all_patterns(m):
                f = connect_the_dots(pattern)
                graph = markov_graph(pattern)
                for n in range(1, 7):
                    for walk in iter_closed_walks(graph, n):
                        loop = loop_to_intervals(pattern, walk)
                        y = periodic_point_from_cycle(f, loop)
                        cur = y
                        for J in loop:
                            assert J.contains(cur)
                            cur = f(cur)
                        assert cur == y

    def test_walk_witnesses_exist_for_larger_patterns_sampled(self):
        from itertools import islice

        for m in (5, 6):
            for pattern in all_patterns(m):
                f = connect_the_dots(pattern)
                graph = markov_graph(pattern)
                for n in range(1, 9):
                    for walk in islice(iter_closed_walks(graph, n), 5):
                        loop = loop_to_intervals(pattern, walk)
                        y = periodic_point_from_cycle(f, loop)
                        cur = y
                        for _ in range(n):
                            cur = f(cur)
                        assert cur == y


# ---------------------------------------------------------------------------
# the Fraction chain search that preceded the integer one, kept as the
# reference the cycle search must agree with
# ---------------------------------------------------------------------------


def reference_chain_starts(f, intervals):
    n = len(intervals)
    stack = [iter(f.preimage_branches(intervals[-1], intervals[0]))]
    while stack:
        branch = next(stack[-1], None)
        if branch is None:
            stack.pop()
        elif len(stack) == n:
            yield branch
        else:
            level = n - 1 - len(stack)
            stack.append(iter(f.preimage_branches(intervals[level], branch)))


def reference_return_time(f, y, loop):
    cur, first_return = y, None
    for i, J in enumerate(loop, start=1):
        if not J.contains(cur):
            return None
        cur = f(cur)
        if first_return is None and cur == y:
            first_return = i
    return first_return if cur == y else None


def reference_point_from_cycle(f, loop, require_least_period=False):
    """Nest preimage branches backward and solve f^n on every chain start."""
    n = len(loop)
    for i in range(n):
        J, K = loop[i], loop[(i + 1) % n]
        if not f.covers(J, K):
            raise NotCovering(f"f({J}) does not cover {K} at position {i}")
    for start in reference_chain_starts(f, loop.intervals):
        fps = fixed_structure_on(f, start, n)
        for y in fps.points:
            period = reference_return_time(f, y, loop)
            if period is not None and (not require_least_period or period == n):
                return y
        if require_least_period:
            for lap in fps.identity_laps:
                rep = point_of_least_period_in_lap(f, n, lap)
                if rep is not None and reference_return_time(f, rep, loop) is not None:
                    return rep
    if require_least_period:
        raise NoLeastPeriodWitness(
            f"every branch of the length-{n} cycle has only shorter periods"
        )
    raise CertificationFailed("a covering cycle must yield a periodic point")


def assert_cycle_search_matches_the_reference(f, loop, least):
    outcomes = []
    for search in (periodic_point_from_cycle, reference_point_from_cycle):
        try:
            outcomes.append(search(f, loop, require_least_period=least))
        except (NotCovering, NoLeastPeriodWitness, CertificationFailed) as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


FOUR_DOUBLING = CyclicPattern((3, 4, 2, 1))  # slopes 1, -2, -1
#: Patterns whose realizations have laps of slope +-1; IDENTITY stands in
#: for the one-lap map of slope 1, which no pattern realizes.
LAP_SLOPE_ONE_PATTERNS = [CyclicPattern((2, 1)), THREE_CYCLE, FOUR_DOUBLING]


@st.composite
def lap_aligned_cycles(draw):
    """A map and a cycle J_0 .. J_(n-1) with every J_i inside one lap.

    The laps follow a closed walk of the covering graph.  J_0 is its whole
    lap; every later J_i is a random window of its lap around the part f
    maps onto J_(i+1), so f(J_i) covers J_(i+1).  On NEG, and on the
    four-doubling map's two laps of slope 1 and -1, the slope product is
    +1 or -1.
    """
    n = draw(st.integers(min_value=1, max_value=6))
    pattern = draw(st.sampled_from([None, *LAP_SLOPE_ONE_PATTERNS]))
    if pattern is None:
        f, laps = IDENTITY, [Interval(0, 1)] * n
    else:
        f = connect_the_dots(pattern)
        walks = list(iter_closed_walks(markov_graph(pattern), n))
        laps = list(loop_to_intervals(pattern, draw(st.sampled_from(walks))))
    shares = st.fractions(min_value=0, max_value=1, max_denominator=6)
    loop = [laps[0]]
    for lap in reversed(laps[1:]):
        (branch,) = f.preimage_branches(lap, loop[-1])
        loop.append(Interval(
            branch.lo - (branch.lo - lap.lo) * draw(shares),
            branch.hi + (lap.hi - branch.hi) * draw(shares),
        ))
    return f, IntervalLoop((loop[0], *reversed(loop[1:])))


@st.composite
def cycles_through_a_point(draw):
    """A cycle with a degenerate J_i, built along a periodic orbit.

    J_0 is the point y_0 of an orbit of period k; each later J_i holds
    y_i = f^i(y_0) and is that point or a random window of f(J_(i-1))
    around it.  The cycle runs r times round the orbit and is rotated.
    """
    m = draw(st.integers(min_value=3, max_value=6))
    f = connect_the_dots(draw(st.sampled_from(list(all_patterns(m)))))
    k = draw(st.integers(min_value=1, max_value=4))
    orbits = periodic_orbits(f, k).orbits
    if not orbits:
        orbits = (orbit_of(f, 0),)
    y = draw(st.sampled_from(orbits)).minimum
    n = len(orbit_of(f, y)) * draw(st.integers(min_value=1, max_value=2))
    shares = st.fractions(min_value=0, max_value=1, max_denominator=6)
    loop = [Interval(y, y)]
    for _ in range(n - 1):
        img, y = f.image(loop[-1]), f(y)
        if draw(st.booleans()):
            loop.append(Interval(y, y))
        else:
            loop.append(Interval(
                y - (y - img.lo) * draw(shares), y + (img.hi - y) * draw(shares)
            ))
    turn = draw(st.integers(min_value=0, max_value=n - 1))
    return f, IntervalLoop(tuple(loop[turn:] + loop[:turn]))


class TestCycleSearchMatchesTheReference:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=3, max_value=7),
        st.randoms(use_true_random=False),
        st.integers(min_value=1, max_value=8),
        st.booleans(),
    )
    def test_every_closed_walk(self, m, rng, n, least):
        pattern = random_pattern(m, rng)
        f = connect_the_dots(pattern)
        for walk in iter_closed_walks(markov_graph(pattern), n):
            loop = loop_to_intervals(pattern, walk)
            assert_cycle_search_matches_the_reference(f, loop, least)

    @settings(max_examples=150, deadline=None)
    @given(lap_aligned_cycles(), st.booleans())
    def test_lap_aligned_cycles(self, case, least):
        f, loop = case
        assert_cycle_search_matches_the_reference(f, loop, least)

    @settings(max_examples=100, deadline=None)
    @given(cycles_through_a_point(), st.booleans())
    def test_cycles_with_a_degenerate_interval(self, case, least):
        f, loop = case
        assert_cycle_search_matches_the_reference(f, loop, least)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([5, 7, 9]), st.randoms(use_true_random=False), st.booleans())
    def test_forcing_cycles_of_odd_orbits(self, m, rng, least):
        f = connect_the_dots(random_pattern(m, rng))
        trace = analyze_odd_orbit(f, orbit_of(f, 0))
        lengths = [3] if trace.case.yields_period_three else [2, 4, 6, 8, 10, m + 2]
        for n in lengths:
            loop = forcing_cycle(trace, n)
            assert_cycle_search_matches_the_reference(trace.map, loop, least)

    def test_slope_products_one_and_minus_one(self):
        odd = IntervalLoop((Interval(0, 1),) * 3)  # NEG^3 reflects [0, 1]
        assert periodic_point_from_cycle(NEG, odd) == F(1, 2)
        with pytest.raises(NoLeastPeriodWitness):
            periodic_point_from_cycle(NEG, odd, require_least_period=True)
        for n in (2, 4):  # NEG^n is the identity on [0, 1]
            even = IntervalLoop((Interval(0, 1),) * n)
            assert periodic_point_from_cycle(NEG, even) == 0
            assert_cycle_search_matches_the_reference(NEG, even, True)
        with pytest.raises(NoLeastPeriodWitness):
            periodic_point_from_cycle(NEG, even, require_least_period=True)

    def test_walks_over_laps_of_slope_product_not_one_never_branch(self, monkeypatch):
        direct = realized_periods(stefan_pattern(5), 8, method="direct")
        calls = {}
        for name in ("_chains", "_branches", "_solve_on", "_compose"):
            def counted(*args, _name=name, _original=getattr(exact_pwl, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args)

            monkeypatch.setattr(exact_pwl, name, counted)
        assert realized_periods(stefan_pattern(5), 8, method="walks") == direct
        assert calls == {}
        # the swap's length-4 walk is an identity lap of f^4, solved once,
        # and its lap representative composes nothing
        assert realized_periods(CyclicPattern((2, 1)), 4, method="walks") == {1, 2}
        assert calls == {}

    def test_rebound_below_cycles_clip_each_span_once(self, monkeypatch):
        f = connect_the_dots(stefan_pattern(7))
        trace = analyze_odd_orbit(f, orbit_of(f, 0))
        assert trace.case is TraceCase.REBOUND_BELOW
        aligned = 0
        for n in (2, 4, 6, 9, 11):
            loop = forcing_cycle(trace, n)
            spans = [J._span for J in loop]
            first = next(exact_pwl._chains(f._pairs, spans))
            expected = periodic_point_from_cycle(f, loop)
            calls = {}
            for name in ("_clip", "_compose"):
                def counted(*args, _name=name, _original=getattr(exact_pwl, name)):
                    calls[_name] = calls.get(_name, 0) + 1
                    return _original(*args)

                monkeypatch.setattr(exact_pwl, name, counted)
            assert exact_pwl.follow_cycle(f, loop) == expected
            monkeypatch.undo()
            assert calls["_clip"] == len(set(spans))
            if exact_pwl._lap_aligned_structure(f._pairs, first) is not None:
                aligned += 1
                assert "_compose" not in calls
            else:
                assert calls["_compose"] > 0
        assert aligned == 3  # n = 2, 9 and 11; the middle two compose

    def test_long_witness_output_is_pinned(self, capsys):
        argv = ["witness", "odd", "--json", "--pattern", "1>2>3", "--period", "2000"]
        assert cli.run(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.md5(out.encode()).hexdigest() == "3a62a424110586ddc2839c54100936c3"

    def test_orbit_of_a_long_cycle_compares_no_fractions(self, monkeypatch):
        f = connect_the_dots(CyclicPattern.from_cycle_string("1>2>3"))
        y = odd_period_witness(f, orbit_of(f, 0), 2000)
        compared = []
        for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
            def counted(a, b, _original=getattr(F, name)):
                compared.append(name)
                return _original(a, b)

            monkeypatch.setattr(F, name, counted)
        orbit = orbit_of(f, y, max_steps=2000)
        monkeypatch.undo()
        assert compared == []
        assert orbit.period == 2000 and orbit == Orbit(orbit.points)


def assert_chains_solve_as_their_composition(f, loop):
    """Every lap-aligned chain's structure is f^n composed on its start, solved.

    A lap-aligned cycle's own structure is its one chain's.  Returns how
    many chains were lap-aligned with slope product other than +1, and how
    many with +1, whose start is an identity lap.
    """
    pairs, spans = f._pairs, [J._span for J in loop]
    n, counts, structures = len(spans), [0, 0], []
    xs = [x for x, _ in f.breakpoints]
    for chain in exact_pwl._chains(pairs, spans):
        structure = exact_pwl._lap_aligned_structure(pairs, chain)
        structures.append(structure)
        ends = [(F(*lo), F(*hi)) for lo, hi in chain]
        if not all(lo < hi and not any(lo < x < hi for x in xs) for lo, hi in ends):
            assert structure is None
            continue
        start = exact_pwl._restrict(pairs, *chain[0])
        *_, composed = exact_pwl._iterates(pairs, start, n)
        assert structure == exact_pwl._fixed_structure(composed)
        counts[bool(structure[1])] += 1
    aligned = exact_pwl._lap_aligned_structure(pairs, spans)
    if aligned is not None:
        assert structures == [aligned]
    return counts


class TestLapAlignedChains:
    @settings(max_examples=150, deadline=None)
    @given(lap_aligned_cycles())
    def test_chains_of_lap_aligned_cycles(self, case):
        assert_chains_solve_as_their_composition(*case)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([5, 7, 9]), st.randoms(use_true_random=False))
    def test_chains_of_forcing_cycles(self, m, rng):
        f = connect_the_dots(random_pattern(m, rng))
        trace = analyze_odd_orbit(f, orbit_of(f, 0))
        lengths = [3] if trace.case.yields_period_three else [2, 4, 6, m + 2]
        for n in lengths:
            assert_chains_solve_as_their_composition(trace.map, forcing_cycle(trace, n))

    def test_slope_product_one_falls_back(self):
        for f, n in ((IDENTITY, 1), (NEG, 2), (NEG, 4)):
            loop = IntervalLoop((f.domain,) * n)
            assert assert_chains_solve_as_their_composition(f, loop) == [0, 1]
        loop = IntervalLoop((NEG.domain,) * 3)
        assert assert_chains_solve_as_their_composition(NEG, loop) == [1, 0]


# ---------------------------------------------------------------------------
# the candidate search that preceded one structure per lap-aligned cycle or
# chain, kept as the reference the candidates must agree with: there a
# slope product of +1 declined the affine solve, and the cycle took the
# chain search and composed f^n on the chain start
# ---------------------------------------------------------------------------


def reference_lap_aligned_solution(f, spans):
    """The one root of the affine f^n on the chain start; None at slope 1."""
    u, v, w = 1, 0, 1
    for lo, hi in spans:
        i = exact_pwl._locate(f, *lo)
        if lo == hi or not 0 < i < len(f) or not exact_pwl._le(hi, f[i]):
            return None
        p, r, d = exact_pwl._lap_form(f[i - 1], f[i])
        u, v, w = p * u, p * v + r * w, d * w
        g = gcd(u, v, w)
        u, v, w = u // g, v // g, w // g
    if u == w:
        return None
    g = gcd(v, w - u)
    if w < u:
        g = -g
    return v // g, (w - u) // g


def reference_cycle_candidates(f, spans, least):
    y = reference_lap_aligned_solution(f, spans)
    if y is not None:
        yield y
        return
    n = len(spans)
    for chain in exact_pwl._chains(f, spans):
        y = reference_lap_aligned_solution(f, chain)
        if y is None:
            points, laps = exact_pwl._solve_on(f, *chain[0], n)
        else:
            points, laps = [y], []
        yield from points
        if least:
            for a, b in laps:
                rep = exact_pwl._lap_point(f, n, a, b)
                if rep is not None:
                    yield rep


def assert_candidates_match_the_reference(f, loop, least):
    pairs, spans = f._pairs, [J._span for J in loop]
    candidates = list(exact_pwl._cycle_candidates(pairs, spans, least))
    assert candidates == list(reference_cycle_candidates(pairs, spans, least))
    return candidates


class TestCandidatesMatchTheReference:
    @settings(max_examples=150, deadline=None)
    @given(lap_aligned_cycles(), st.booleans())
    def test_lap_aligned_cycles(self, case, least):
        assert_candidates_match_the_reference(*case, least)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([5, 7, 9]), st.randoms(use_true_random=False), st.booleans())
    def test_forcing_cycles(self, m, rng, least):
        f = connect_the_dots(random_pattern(m, rng))
        trace = analyze_odd_orbit(f, orbit_of(f, 0))
        lengths = [3] if trace.case.yields_period_three else [2, 4, 6, m + 2]
        for n in lengths:
            assert_candidates_match_the_reference(trace.map, forcing_cycle(trace, n), least)

    def test_slope_product_one(self):
        # NEG^2 is the identity on [0, 1]: both ends, then the lap's
        # representative, its leftmost point of least period 2
        loop = IntervalLoop((NEG.domain,) * 2)
        ends = [(0, 1), (1, 1)]
        assert assert_candidates_match_the_reference(NEG, loop, False) == ends
        assert assert_candidates_match_the_reference(NEG, loop, True) == [*ends, (0, 1)]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.randoms(use_true_random=False))
def test_walks_never_search_chains(m, rng):
    # every node of the covering graph is a lap of nonzero slope, so every
    # closed walk is a lap-aligned cycle: one solve, no chain search
    pattern = random_pattern(m, rng)

    def refuse(*args):
        raise AssertionError("a covering-graph walk reached the chain search")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact_pwl, "_chains", refuse)
        walks = realized_periods(pattern, 8, method="walks")
    assert walks == realized_periods(pattern, 8)


# ---------------------------------------------------------------------------
# the Fraction orbit analysis that preceded the rank one, kept as the
# reference the trace must agree with: it evaluates f on the orbit and
# compares points where the rank analysis compares ranks
# ---------------------------------------------------------------------------


def reference_switch_rank(f, orbit):
    """The 1-based rank s of the last orbit point with x < f(x)."""
    ranks = [i for i, p in enumerate(orbit.points, start=1) if f(p) > p]
    return max(ranks)


def reference_analyze_oriented(f, orbit, mirrored):
    pts = orbit.points
    m = len(pts)
    s = reference_switch_rank(f, orbit)
    x_s, x_s1 = pts[s - 1], pts[s]
    z = fixed_structure_on(f, Interval(x_s, x_s1)).points[0]

    def on_left(p):
        v = f(p)
        if v <= x_s:
            return True
        if v < x_s1:
            raise CertificationFailed("orbit values cannot enter the switch gap")
        return False

    straddles = [t for t in range(1, s) if on_left(pts[t - 1]) != on_left(pts[t])]
    if not straddles:
        return None
    t = max(straddles)
    x_t = pts[t - 1]

    its = [x_s]
    for _ in range(m):
        its.append(f(its[-1]))
    q = next(i for i in range(1, m + 1) if its[i] <= x_t)
    if not 2 <= q <= m - 1:
        raise CertificationFailed(f"escape time {q} out of range for period {m}")

    kwargs = dict(
        map=f, orbit=orbit, switch=s, straddle=t, escape_time=q, fixed_point=z,
        mirrored=mirrored,
    )
    if m == 3:
        return witnesses.OddOrbitTrace(case=TraceCase.PERIOD_THREE, **kwargs)

    pre_escape = its[q - 1]
    if pre_escape < x_s:
        if pre_escape < pts[t]:
            raise CertificationFailed(f"pre-escape point {pre_escape} left of x_(t+1)")
        return "PreEscapeLeft"
    if pre_escape == x_s1:
        return witnesses.OddOrbitTrace(case=TraceCase.PRE_ESCAPE_AT_UPPER, **kwargs)

    rebound = next(i for i in range(1, q) if its[i] >= pre_escape)
    pre_rebound = its[rebound - 1]
    if not pts[t] <= pre_rebound < pre_escape:
        raise CertificationFailed(f"pre-rebound point {pre_rebound} out of range")
    if pre_rebound >= x_s1:
        return "ReboundAbove"

    if pre_rebound > x_s:
        raise CertificationFailed(f"pre-rebound point {pre_rebound} inside the switch gap")
    solve = witnesses._leftmost_solution
    fixed_preimage = solve(f, z, Interval(x_t, pts[t]))
    upper_relay = solve(f, fixed_preimage, Interval(z, pre_escape))
    lower_relay = solve(f, upper_relay, Interval(pre_rebound, z))
    return witnesses.OddOrbitTrace(
        case=TraceCase.REBOUND_BELOW,
        rebound_time=rebound,
        fixed_preimage=fixed_preimage,
        upper_relay=upper_relay,
        lower_relay=lower_relay,
        **kwargs,
    )


def reference_analyze_odd_orbit(f, orbit):
    """The caller's orientation first, then the evaluated reflection."""
    trace = reference_analyze_oriented(f, orbit, mirrored=False)
    if trace is None:
        total = f.domain.lo + f.domain.hi
        reflected = Orbit(tuple(total - p for p in orbit.points))
        trace = reference_analyze_oriented(
            witnesses._reflect_map(f), reflected, mirrored=True
        )
    return trace


def trace_fields(trace):
    return {field.name: getattr(trace, field.name) for field in fields(trace)}


TENT = tent_map()
TENT_FIVE_TRUNCATION = truncate_at_orbit(TENT, minimal_diameter_orbit(TENT, 5)).map
#: odd orbits of the tent map, and of its truncation at the tightest
#: period-5 orbit, where period 3 is gone
ODD_ORBITS = [
    (f, orbit)
    for f, periods in ((TENT, (3, 5, 7)), (TENT_FIVE_TRUNCATION, (5, 7, 9, 11)))
    for k in periods
    for orbit in periodic_orbits(f, k).orbits
]


@st.composite
def odd_orbits(draw):
    """An odd orbit: of a random pattern of size 3-21 in either orientation,
    or of the tent map or a tent truncation."""
    if draw(st.booleans()):
        return draw(st.sampled_from(ODD_ORBITS))
    m = draw(st.sampled_from([3, 5, 7, 9, 11, 13, 15, 17, 19, 21]))
    pattern = random_pattern(m, draw(st.randoms(use_true_random=False)))
    if draw(st.booleans()):
        pattern = pattern.mirror()
    f = connect_the_dots(pattern)
    return f, orbit_of(f, 0)


class TestRankAnalysisMatchesTheReference:
    @settings(max_examples=300, deadline=None)
    @given(odd_orbits())
    def test_traces_and_period_two_witnesses(self, case):
        f, orbit = case
        trace = analyze_odd_orbit(f, orbit)
        assert trace_fields(trace) == trace_fields(reference_analyze_odd_orbit(f, orbit))
        s = reference_switch_rank(f, orbit)
        expected = period_two_from_crossing(f, orbit.points[s - 1], orbit.points[s])
        assert period_two_from_orbit(f, orbit) == expected

    def test_the_samples_meet_both_orientations_and_the_cases_seen(self):
        rng = random.Random(5)
        cases = [(f, orbit_of(f, 0)) for f in (
            connect_the_dots(random_pattern(rng.choice([5, 7, 9]), rng))
            for _ in range(100)
        )]
        seen = set()
        for f, orbit in cases + ODD_ORBITS:
            trace = analyze_odd_orbit(f, orbit)
            assert trace == reference_analyze_odd_orbit(f, orbit)
            seen.add((trace.case, trace.mirrored))
        assert {case for case, _ in seen} >= {
            TraceCase.PERIOD_THREE, TraceCase.PRE_ESCAPE_AT_UPPER, TraceCase.REBOUND_BELOW
        }
        assert {mirrored for _, mirrored in seen} == {False, True}

    def test_the_map_is_evaluated_once_per_orbit_point(self, monkeypatch):
        calls = []
        original = exact_pwl._eval_pairs

        def counted(pairs, x):
            calls.append(x)
            return original(pairs, x)

        monkeypatch.setattr(exact_pwl, "_eval_pairs", counted)
        rng = random.Random(3)
        orientations = set()
        for m in (3, 5, 7, 9, 11):
            for pattern in (stefan_pattern(m), random_pattern(m, rng)):
                for oriented in (pattern, pattern.mirror()):
                    f = connect_the_dots(oriented)
                    orbit = orbit_of(f, 0)
                    calls.clear()
                    trace = analyze_odd_orbit(f, orbit)
                    assert len(calls) == m, (oriented, trace.case)
                    orientations.add(trace.mirrored)
        assert orientations == {False, True}


class TestAnalyzeOddOrbit:
    def test_three_cycle_trace(self):
        trace = analyze_odd_orbit(F3, ORBIT3)
        assert trace.case is TraceCase.PERIOD_THREE
        assert trace.switch == 2
        assert trace.straddle == 1
        assert trace.escape_time == 2
        assert trace.fixed_point == F(2, 3)
        assert not trace.mirrored

    def test_mirrored_three_cycle(self):
        f = connect_the_dots(CyclicPattern.from_cycle_string("1>3>2"))
        trace = analyze_odd_orbit(f, orbit_of(f, 0))
        assert trace.case is TraceCase.PERIOD_THREE
        assert trace.mirrored

    def test_stefan_five_golden_trace(self):
        f = connect_the_dots(stefan_pattern(5))
        trace = analyze_odd_orbit(f, orbit_of(f, 0))
        assert trace.case is TraceCase.REBOUND_BELOW
        assert not trace.mirrored
        assert (trace.switch, trace.straddle) == (3, 1)
        assert (trace.escape_time, trace.rebound_time) == (4, 3)
        assert trace.fixed_point == F(7, 12)
        assert trace.fixed_preimage == F(1, 24)
        assert trace.upper_relay == F(23, 24)
        assert trace.lower_relay == F(7, 24)

    def test_stefan_seven_golden_trace(self):
        f = connect_the_dots(stefan_pattern(7))
        trace = analyze_odd_orbit(f, orbit_of(f, 0))
        assert trace.case is TraceCase.REBOUND_BELOW
        assert (trace.escape_time, trace.rebound_time) == (6, 5)
        assert trace.fixed_point == F(5, 9)
        assert (trace.fixed_preimage, trace.upper_relay, trace.lower_relay) == (
            F(1, 54), F(53, 54), F(5, 27)
        )

    def test_even_period_rejected(self):
        f = connect_the_dots(CyclicPattern((2, 3, 4, 1)))
        with pytest.raises(UnsupportedPeriod, match="need an odd period, got 4"):
            analyze_odd_orbit(f, orbit_of(f, 0))

    def test_fixed_point_orbit_rejected(self):
        with pytest.raises(UnsupportedPeriod, match="need period >= 3"):
            analyze_odd_orbit(F3, Orbit((F(2, 3),)))

    def test_relay_equations(self):
        rng = random.Random(17)
        for m in (5, 7):
            for _ in range(10):
                f = connect_the_dots(random_pattern(m, rng))
                trace = analyze_odd_orbit(f, orbit_of(f, 0))
                g, orbit = trace.map, trace.orbit
                pts = orbit.points
                s = trace.switch
                assert pts[s - 1] == max(p for p in pts if g(p) > p)
                assert g(trace.fixed_point) == trace.fixed_point
                assert pts[s - 1] <= trace.fixed_point <= pts[s]
                assert 2 <= trace.escape_time <= m - 1
                if trace.rebound_time is not None:
                    assert 1 <= trace.rebound_time <= trace.escape_time - 1
                if trace.case is TraceCase.REBOUND_BELOW:
                    assert g(trace.fixed_preimage) == trace.fixed_point
                    assert g(trace.upper_relay) == trace.fixed_preimage
                    assert g(trace.lower_relay) == trace.upper_relay


class TestForcingCycle:
    def test_period_three_trace_builds_every_length(self):
        trace = analyze_odd_orbit(F3, ORBIT3)
        assert list(forcing_cycle(trace, 1)) == [Interval(F(1, 2), 1)]
        loop4 = forcing_cycle(trace, 4)
        assert list(loop4) == [
            Interval(0, F(1, 2)),
            Interval(F(1, 2), 1),
            Interval(F(1, 2), 1),
            Interval(F(1, 2), 1),
        ]

    def test_rebound_below_even_cycle(self):
        f = connect_the_dots(stefan_pattern(5))
        trace = analyze_odd_orbit(f, orbit_of(f, 0))
        loop = forcing_cycle(trace, 2)
        assert list(loop) == [
            Interval(F(1, 24), F(7, 24)),
            Interval(F(7, 12), F(23, 24)),
        ]

    def test_rebound_below_own_period_unsupported(self):
        f = connect_the_dots(stefan_pattern(5))
        trace = analyze_odd_orbit(f, orbit_of(f, 0))
        with pytest.raises(UnsupportedPeriod, match="period 5 is neither even nor past 5"):
            forcing_cycle(trace, 5)

    def test_rebound_below_odd_small_unsupported(self):
        f = connect_the_dots(stefan_pattern(7))
        trace = analyze_odd_orbit(f, orbit_of(f, 0))
        with pytest.raises(UnsupportedPeriod, match="period 3 is neither even nor past 7"):
            forcing_cycle(trace, 3)

    def test_loop_lengths(self):
        f = connect_the_dots(stefan_pattern(5))
        trace = analyze_odd_orbit(f, orbit_of(f, 0))
        for n in (2, 4, 6, 8, 10, 6, 7, 8):
            if n % 2 == 0 or n >= 6:
                assert len(forcing_cycle(trace, n)) == n

    def test_every_odd_pattern_up_to_seven_takes_one_of_the_three_cases(self):
        seen = set()
        for m in (3, 5, 7):
            for pattern in all_patterns(m):  # both orientations of each
                f = connect_the_dots(pattern)
                trace = analyze_odd_orbit(f, orbit_of(f, 0))
                seen.add(trace.case)
                if trace.case is TraceCase.PERIOD_THREE:
                    lengths = range(1, 6)
                elif trace.case is TraceCase.PRE_ESCAPE_AT_UPPER:
                    lengths = [3]
                else:
                    lengths = [2, 4, m + 1, m + 2]
                for n in lengths:
                    forcing_cycle(trace, n)  # raises NotCovering unless f covers it
        assert seen == set(TraceCase)


class TestOddPeriodWitness:
    def test_three_cycle_period_five(self):
        y = odd_period_witness(F3, ORBIT3, 5)
        assert y == F(2, 15)
        assert least_period(F3, y, 5) == 5

    def test_stefan_seven_even_and_long(self):
        f = connect_the_dots(stefan_pattern(7))
        orbit = orbit_of(f, 0)
        y2 = odd_period_witness(f, orbit, 2)
        assert y2 == F(1, 8) and least_period(f, y2, 2) == 2
        y8 = odd_period_witness(f, orbit, 8)
        assert y8 == F(2, 75) and least_period(f, y8, 8) == 8

    def test_stefan_five_full_target_set(self):
        f = connect_the_dots(stefan_pattern(5))
        orbit = orbit_of(f, 0)
        for n in (2, 4, 6, 8, 10, 6, 7, 8, 9, 10):
            y = odd_period_witness(f, orbit, n)
            assert least_period(f, y, n) == n

    def test_mirrored_pattern_witnesses(self):
        f = connect_the_dots(stefan_pattern(5).mirror())
        orbit = orbit_of(f, 0)
        trace = analyze_odd_orbit(f, orbit)
        assert trace.mirrored
        for n in (2, 4, 6, 7, 8):
            y = odd_period_witness(f, orbit, n)
            assert least_period(f, y, n) == n

    def test_witness_from_trace_matches_a_fresh_analysis(self):
        for pattern in (stefan_pattern(5), stefan_pattern(5).mirror(), THREE_CYCLE):
            f = connect_the_dots(pattern)
            orbit = orbit_of(f, 0)
            trace = analyze_odd_orbit(f, orbit)
            for n in (2, 6, 7):
                assert witness_from_trace(f, trace, n) == odd_period_witness(
                    f, orbit, n
                )

    def test_witness_from_trace_rejects_a_trace_of_another_map(self):
        f = connect_the_dots(stefan_pattern(5))
        trace = analyze_odd_orbit(F3, ORBIT3)
        with pytest.raises(PreconditionError, match="the trace was not analysed on this map"):
            witness_from_trace(f, trace, 4)

    def test_reduction_cases_reach_any_period(self):
        # hunt for patterns classified into each period-3 reduction case
        rng = random.Random(71)
        seen = set()
        for _ in range(300):
            m = rng.choice([5, 7, 9])
            pattern = random_pattern(m, rng)
            f = connect_the_dots(pattern)
            orbit = orbit_of(f, 0)
            trace = analyze_odd_orbit(f, orbit)
            if trace.case.yields_period_three and trace.case not in seen:
                seen.add(trace.case)
                for n in (1, 2, 3, 4, 5):
                    y = odd_period_witness(f, orbit, n)
                    assert least_period(f, y, n) == n
        assert seen == {TraceCase.PRE_ESCAPE_AT_UPPER}
