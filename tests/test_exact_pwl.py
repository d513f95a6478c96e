"""Exact map representation, enumeration, and preimage machinery."""

import ast
import asyncio
import itertools
import random
import threading
import time
from bisect import bisect_right
from fractions import Fraction as F
from functools import cmp_to_key
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharkovsky_lab import (
    CyclicPattern,
    FixedPoints,
    Interval,
    InvalidMap,
    NoSuchOrbit,
    NotAnOrbit,
    NotCovering,
    Orbit,
    OutOfDomain,
    PeriodicOrbits,
    PieceBudgetExceeded,
    PreconditionError,
    PwlMap,
    SharkovskyLabError,
    SpectrumEntry,
    WalkBudgetExceeded,
    all_patterns,
    budgets,
    connect_the_dots,
    divisors,
    fixed_points_of_iterate,
    highest_orbit_below,
    is_orbit_of,
    least_period,
    minimal_diameter_orbit,
    orbit_of,
    period_spectrum,
    periodic_orbits,
    periodic_orbits_upto,
    point_of_least_period_in_lap,
    random_pattern,
    realized_periods,
    tent_map,
    truncate_at_orbit,
)
from sharkovsky_lab import exact_pwl, pattern_dynamics, tent_constructions
from sharkovsky_lab.exact_pwl import fixed_structure_on, level_set_on

TENT = tent_map()
IDENTITY = PwlMap([(0, 0), (1, 1)])
NEG = PwlMap([(0, 1), (1, 0)])  # x -> 1 - x
THREE_CYCLE = PwlMap([(0, F(1, 2)), (F(1, 2), 1), (1, 0)])
INVOLUTION = PwlMap([(0, 1), (F(1, 4), F(1, 4)), (1, 0)])  # fixes 1/4
IDENTITY_LAP_MAPS = [
    IDENTITY,
    NEG,
    THREE_CYCLE,
    connect_the_dots(CyclicPattern((3, 4, 2, 1))),
    connect_the_dots(CyclicPattern((4, 3, 1, 2))),
    # on each of these f^j is not affine on the lap, where j is the lap's
    # return time: an involution and a reversing pair, whose f^j reverses
    # the lap and fixes a multiple of an eighth of it, so a window of the
    # lap search starts there, and an increasing interval 3-cycle
    INVOLUTION,
    PwlMap(
        [
            (0, F(2, 5)), (F(1, 5), F(3, 5)), (F(2, 5), F(4, 5)), (F(1, 2), F(17, 20)),
            (F(3, 5), 1), (F(4, 5), 0), (F(17, 20), F(1, 10)), (1, F(1, 5)),
        ]
    ),
    PwlMap([(0, F(2, 3)), (F(1, 3), 1), (F(2, 3), F(1, 3)), (F(3, 4), F(1, 12)), (1, 0)]),
]
IDENTITY_LAP_IDS = [
    "identity",
    "reflection",
    "three-cycle",
    "four-doubling",
    "mirror",
    "involution",
    "interval-three-cycle",
    "reversing-pair",
]


# ---------------------------------------------------------------------------
# the Fraction breakpoint kernel that preceded the integer one, kept as the
# reference the integer kernel must agree with; pairs are (x, y) Fractions
# ---------------------------------------------------------------------------


def ref_canonical(pairs):
    out = []
    for x, y in pairs:
        if out:
            px, py = out[-1]
            if x == px:
                if y != py:
                    raise InvalidMap(f"two breakpoints share x = {x}")
                continue
            if x < px:
                raise InvalidMap("breakpoint x-values must increase")
        out.append((x, y))
        while len(out) >= 3:
            (x0, y0), (x1, y1), (x2, y2) = out[-3:]
            if (y1 - y0) * (x2 - x1) == (y2 - y1) * (x1 - x0):
                del out[-2]
            else:
                break
    if len(out) < 2:
        raise InvalidMap("at least two distinct breakpoints required")
    return tuple(out)


def ref_laps(pairs):
    for i in range(len(pairs) - 1):
        yield pairs[i], pairs[i + 1]


def ref_eval(pairs, xs, x):
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


def ref_compose(outer, inner, piece_budget):
    outer_xs = [p[0] for p in outer]
    cuts = []
    for (x0, y0), (x1, y1) in ref_laps(inner):
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
    cuts.append(inner[-1][0])

    result = []
    lap = 0
    prev = None
    for x in cuts:
        if x == prev:
            continue
        prev = x
        while lap < len(inner) - 2 and inner[lap + 1][0] <= x:
            lap += 1
        x0, y0 = inner[lap]
        x1, y1 = inner[lap + 1]
        v = y0 if x == x0 else y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        result.append((x, ref_eval(outer, outer_xs, v)))
    out = ref_canonical(result)
    if len(out) > piece_budget:
        raise PieceBudgetExceeded(
            f"composition needs more than {piece_budget} breakpoints"
        )
    return out


def ref_iterates(f, first, upto, piece_budget):
    lo, hi = f[0][0], f[-1][0]
    pairs = first
    yield pairs
    for _ in range(upto - 1):
        pairs = ref_compose(f, pairs, piece_budget)
        for _, y in pairs:
            if not (lo <= y <= hi):
                raise InvalidMap(f"value {y} escapes domain [{lo}, {hi}]")
        yield pairs


def ref_restrict(pairs, lo, hi):
    xs = [p[0] for p in pairs]
    if lo < xs[0] or hi > xs[-1] or lo >= hi:
        raise OutOfDomain(f"cannot restrict to [{lo}, {hi}]")
    mid = [(x, y) for x, y in pairs if lo < x < hi]
    ends = [(lo, ref_eval(pairs, xs, lo))] + mid + [(hi, ref_eval(pairs, xs, hi))]
    return ref_canonical(ends)


def ref_coalesce(spans):
    merged = []
    for a, b in sorted(spans):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [Interval(a, b) for a, b in merged]


def ref_fixed_structure(pairs):
    pts = set()
    identity = []
    for (x0, y0), (x1, y1) in ref_laps(pairs):
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
    laps = tuple(ref_coalesce(identity))
    for lap in laps:
        pts.add(lap.lo)
        pts.add(lap.hi)
    return FixedPoints(tuple(sorted(pts)), laps)


def ref_within_levels(pairs, lo, hi):
    level = lo == hi
    spans = []
    for (x0, y0), (x1, y1) in ref_laps(pairs):
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
    return ref_coalesce(spans)


def fractions_of(pairs):
    """Integer-kernel pairs as (x, y) Fractions."""
    return tuple((F(xn, xd), F(yn, yd)) for xn, xd, yn, yd in pairs)


def intervals_of(spans):
    return [Interval(F(*a), F(*b)) for a, b in spans]


def result_or_error(fn, *args):
    """fn's result, or the type and text of the library error it raised."""
    try:
        return fn(*args)
    except SharkovskyLabError as exc:
        return type(exc), str(exc)


def capped(fn, piece=exact_pwl.DEFAULT_PIECE_BUDGET, walk=exact_pwl.DEFAULT_WALK_BUDGET):
    """fn, called inside a budgets(piece, walk) block."""
    def run(*args):
        with budgets(piece, walk):
            return fn(*args)
    return run


def reference_iterate(f, n, piece_budget=exact_pwl.DEFAULT_PIECE_BUDGET):
    """f^n by the sequential chain f, f^2, ..., f^n, as iterate composed it before."""
    with budgets(piece_budget):
        *_, last = exact_pwl._iterates(f._pairs, f._pairs, n)
    return PwlMap._of(last)


def lerp_fixed_structure(pairs):
    """_fixed_structure with each root solved in Fraction: x0 + (x1 - x0) g0 / (g0 - g1)."""
    points, identity = [], []
    (x0n, x0d, y0n, y0d), rest = pairs[0], pairs[1:]
    g0 = F(y0n, y0d) - F(x0n, x0d)  # f(x0) - x0
    for x1n, x1d, y1n, y1d in rest:
        g1 = F(y1n, y1d) - F(x1n, x1d)
        if g0 == 0:
            points.append((x0n, x0d))
            if g1 == 0:
                identity.append(((x0n, x0d), (x1n, x1d)))
        elif g1 != 0 and (g0 < 0) != (g1 < 0):
            x0 = F(x0n, x0d)
            root = x0 + (F(x1n, x1d) - x0) * g0 / (g0 - g1)
            points.append((root.numerator, root.denominator))
        x0n, x0d, g0 = x1n, x1d, g1
    if g0 == 0:
        points.append((x0n, x0d))
    return points, identity


def three_pass_levels(pairs, lo, hi):
    """Maximal closed components of {x : lo <= f(x) <= hi}, by lap and merged
    where they touch: _within_levels as _branches ran it before the sweep."""
    spans = []
    for p0, p1 in exact_pwl._laps(pairs):
        low, high = (p0, p1) if exact_pwl._le(p0[2:], p1[2:]) else (p1, p0)
        if not (exact_pwl._le(lo, high[2:]) and exact_pwl._le(low[2:], hi)):
            continue
        if low[2:] == high[2:]:
            spans.append((p0[:2], p1[:2]))
            continue
        a = low[:2] if exact_pwl._le(lo, low[2:]) else exact_pwl._crossing(p0, p1, lo)
        b = (a if lo == hi else high[:2] if exact_pwl._le(high[2:], hi)
             else exact_pwl._crossing(p0, p1, hi))
        spans.append((a, b) if exact_pwl._le(a, b) else (b, a))
    merged = []
    for a, b in spans:
        if merged and merged[-1][1] == a:
            merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    return merged


def three_pass_branches(pairs, J, K):
    """_branches before the sweep: restrict f to J, take the level components
    of K.lo, of K.hi and of K in three passes, and match them by component."""
    if J[0] == J[1]:
        return [J]
    pairs = exact_pwl._restrict(pairs, *J)
    lo, hi = K
    if lo == hi:
        return three_pass_levels(pairs, lo, lo)
    lo_hits, hi_hits = three_pass_levels(pairs, lo, lo), three_pass_levels(pairs, hi, hi)

    def within(a, b, hits):
        return [h for h in hits if exact_pwl._le(a, h[0]) and exact_pwl._le(h[1], b)]

    branches = []
    for a, b in three_pass_levels(pairs, lo, hi):
        lo_in, hi_in = within(a, b, lo_hits), within(a, b, hi_hits)
        if not lo_in or not hi_in:
            continue
        first_lo, last_lo = lo_in[0][0], lo_in[-1][1]
        first_hi, last_hi = hi_in[0][0], hi_in[-1][1]
        cands = []
        if not exact_pwl._le(last_hi, first_lo):
            cands.append((first_lo, last_hi))
        if not exact_pwl._le(last_lo, first_hi):
            cands.append((first_hi, last_lo))
        branches += [
            c for c in cands
            if not any(o != c and exact_pwl._le(o[0], c[0]) and exact_pwl._le(c[1], o[1])
                       for o in cands)
        ]
    ascending = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])
    branches.sort(key=lambda c: ascending(c[0]))
    return branches


def mobius(n):
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


class TestConstruction:
    def test_tent_breakpoints(self):
        assert TENT.breakpoints == ((F(0), F(0)), (F(1, 2), F(1)), (F(1), F(0)))

    def test_accepts_strings_and_ints(self):
        f = PwlMap([("0", "0"), ("1/2", "1"), ("1", "0")])
        assert f == TENT

    def test_collinear_breakpoints_merge(self):
        f = PwlMap([(0, 0), (F(1, 2), F(1, 2)), (1, 1)])
        assert f == IDENTITY

    def test_non_monotone_rejected(self):
        with pytest.raises(InvalidMap, match="breakpoint x-values must increase"):
            PwlMap([(0, 0), (1, 1), (F(1, 2), 0)])
        with pytest.raises(InvalidMap, match="two breakpoints share x = 0"):
            PwlMap([(0, 0), (0, 1)])

    def test_too_few_breakpoints_rejected(self):
        with pytest.raises(InvalidMap, match="at least two distinct breakpoints required"):
            PwlMap([(0, 0)])

    def test_escaping_value_rejected(self):
        with pytest.raises(InvalidMap, match=r"value 2 escapes domain \[0, 1\]"):
            PwlMap([(0, 0), (1, 2)])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            PwlMap([(0, 0), (0.5, 1), (1, 0)])


class TestEval:
    def test_tent_values(self):
        assert TENT(F(1, 3)) == F(2, 3)
        assert TENT(F(1, 2)) == 1
        assert TENT(F(3, 4)) == F(1, 2)

    def test_identity(self):
        assert IDENTITY(F(5, 7)) == F(5, 7)

    def test_breakpoints_hit_exactly(self):
        for x, y in THREE_CYCLE.breakpoints:
            assert THREE_CYCLE(x) == y

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            TENT(F(3, 2))
        with pytest.raises(OutOfDomain):
            TENT(F(-1, 2))


class TestIterate:
    def test_tent_square_has_five_breakpoints(self):
        square = TENT.iterate(2)
        assert len(square.breakpoints) == 5
        assert [x for x, _ in square.breakpoints] == [
            F(0), F(1, 4), F(1, 2), F(3, 4), F(1)
        ]

    def test_first_iterate_is_the_map(self):
        assert TENT.iterate(1) == TENT

    def test_identity_is_idempotent(self):
        assert IDENTITY.iterate(9) == IDENTITY

    def test_semigroup_identities_at_random_rationals(self):
        rng = random.Random(7)
        f2 = THREE_CYCLE.iterate(2)
        f3 = THREE_CYCLE.iterate(3)
        f5 = THREE_CYCLE.iterate(5)
        f6_nested = f2.iterate(3)  # (f^2)^3 = f^6
        f6 = THREE_CYCLE.iterate(6)
        for _ in range(100):
            x = F(rng.randrange(0, 1001), 1000)
            assert f5(x) == f2(f3(x)) == f3(f2(x))
            assert f6_nested(x) == f6(x)

    def test_piece_budget(self):
        with budgets(piece=10), pytest.raises(PieceBudgetExceeded):
            TENT.iterate(8)

    @pytest.mark.parametrize("k", [1, 2, 5, 14])
    def test_canonical_pass_runs_once_per_composition(self, monkeypatch, k):
        calls = []
        canonical, compose = exact_pwl._canonical, exact_pwl._compose

        def counted_canonical(points):
            calls.append("canonical")
            return canonical(points)

        def counted_compose(*args):
            calls.append("compose")
            return compose(*args)

        monkeypatch.setattr(exact_pwl, "_canonical", counted_canonical)
        monkeypatch.setattr(exact_pwl, "_compose", counted_compose)
        assert len(TENT.iterate(k).breakpoints) == 2**k + 1
        # repeated squaring: floor(log2 k) squarings, popcount(k) - 1 products;
        # each composition keeps its result canonical as it cuts, no second pass
        compositions = k.bit_length() - 1 + bin(k).count("1") - 1
        assert calls == ["compose"] * compositions

    def test_an_overrun_of_the_cuts_alone_answers_by_squaring(self, monkeypatch):
        # f^2 o f^2 cuts at 1/4 and 1/2 of f^2 and at 5/16 and 3/8 of f^4:
        # six cuts, where no iterate up to f^4 has more than four breakpoints
        f = PwlMap([(0, 1), (F(1, 2), 0), (1, 0)])
        expected = reference_iterate(f, 4)
        with budgets(piece=4):
            square = exact_pwl._compose(*[f.iterate(2)._pairs] * 2)
        assert PwlMap._of(square) == expected

        def refuse(*args):
            raise AssertionError("iterate squares and runs no chain")

        monkeypatch.setattr(exact_pwl, "_iterates", refuse)
        with budgets(piece=4):
            assert f.iterate(4) == expected

    def test_squaring_matches_the_chain_on_the_tent_family(self):
        for f in (TENT, THREE_CYCLE, _truncation(3), _truncation(6), NEG):
            for n in range(1, 12):
                assert f.iterate(n) == reference_iterate(f, n)

    def test_invalid_count(self):
        # one refusal of an order k < 1, wherever an iterate f^k is asked for
        for call in (
            lambda: TENT.iterate(0),
            lambda: fixed_points_of_iterate(TENT, 0),
            lambda: periodic_orbits(TENT, -3),
            lambda: least_period(TENT, 0, 0),
        ):
            with pytest.raises(ValueError, match="iterate order must be >= 1"):
                call()


class TestImageAndCovers:
    def test_monotone_lap(self):
        assert TENT.image(Interval(0, F(1, 2))) == Interval(0, 1)

    def test_interior_maximum(self):
        assert TENT.image(Interval(F(1, 4), F(3, 4))) == Interval(F(1, 2), 1)

    def test_identity_image(self):
        assert IDENTITY.image(Interval(F(1, 5), F(2, 5))) == Interval(F(1, 5), F(2, 5))

    def test_degenerate_image(self):
        assert TENT.image(Interval(F(1, 3), F(1, 3))) == Interval(F(2, 3), F(2, 3))

    def test_image_matches_refined_minmax(self):
        rng = random.Random(11)
        g = TENT.iterate(3)
        for _ in range(50):
            a = F(rng.randrange(0, 500), 1000)
            b = a + F(rng.randrange(1, 500), 1000)
            J = Interval(a, b)
            xs = [a, b] + [x for x, _ in g.breakpoints if a < x < b]
            vals = [g(x) for x in xs]
            assert g.image(J) == Interval(min(vals), max(vals))

    def test_covers(self):
        assert TENT.covers(Interval(0, F(1, 2)), Interval(F(1, 2), 1))
        assert not IDENTITY.covers(Interval(0, F(1, 2)), Interval(F(1, 2), 1))
        assert not TENT.covers(Interval(0, F(1, 4)), Interval(F(3, 4), 1))

    def test_covers_degenerate_target_is_membership(self):
        assert TENT.covers(Interval(0, F(1, 2)), Interval(F(1, 3), F(1, 3)))
        assert not TENT.covers(Interval(0, F(1, 8)), Interval(F(1, 2), F(1, 2)))


class TestPreimageBranches:
    def test_two_full_laps(self):
        branches = TENT.preimage_branches(Interval(0, 1), Interval(0, 1))
        assert branches == [Interval(0, F(1, 2)), Interval(F(1, 2), 1)]

    def test_single_branch(self):
        branches = TENT.preimage_branches(Interval(0, F(1, 2)), Interval(F(1, 2), 1))
        assert branches == [Interval(F(1, 4), F(1, 2))]

    def test_identity_branch(self):
        J = Interval(F(1, 3), F(2, 3))
        assert IDENTITY.preimage_branches(J, J) == [J]

    def test_not_covering(self):
        with pytest.raises(NotCovering):
            TENT.preimage_branches(Interval(0, F(1, 4)), Interval(F(3, 4), 1))

    def test_four_monotone_branches_of_the_square(self):
        square = TENT.iterate(2)
        K = Interval(F(1, 4), F(3, 4))
        branches = square.preimage_branches(Interval(0, 1), K)
        assert branches == [
            Interval(F(1, 16), F(3, 16)),
            Interval(F(5, 16), F(7, 16)),
            Interval(F(9, 16), F(11, 16)),
            Interval(F(13, 16), F(15, 16)),
        ]
        for L in branches:
            assert square.image(L) == K

    def test_plateau_branches_cover_the_component(self):
        clamped = TENT.clamp(F(1, 4), F(3, 4))
        K = Interval(F(1, 4), F(3, 4))
        branches = clamped.preimage_branches(Interval(0, 1), K)
        assert branches == [Interval(0, F(5, 8)), Interval(F(3, 8), 1)]
        for L in branches:
            assert clamped.image(L) == K
        # the two branches cover every point mapping into K
        assert branches[0].lo == 0 and branches[1].hi == 1
        assert branches[1].lo <= branches[0].hi

    def test_nested_candidate_is_dropped(self):
        # hits of 0 at 0 and 1/2, of 1 at 1/4 and 3/4: [1/4, 1/2] maps onto
        # [0, 1] too, but lies inside [0, 3/4], so it is not maximal
        zigzag = PwlMap([(0, 0), (F(1, 4), 1), (F(1, 2), 0), (F(3, 4), 1), (1, F(1, 2))])
        assert zigzag.preimage_branches(Interval(0, 1), Interval(0, 1)) == [
            Interval(0, F(3, 4))
        ]

    def test_degenerate_target_components(self):
        clamped = TENT.clamp(0, F(1, 2))
        hits = clamped.preimage_branches(Interval(0, 1), Interval(F(1, 2), F(1, 2)))
        assert hits == [Interval(F(1, 4), F(3, 4))]

    def test_completeness_on_strictly_interior_targets(self):
        # for tent iterates with K strictly inside (0, 1), every lap is a
        # full monotone sweep, so each component of {f(x) in K} maps onto
        # K and must be swallowed by the branches
        g = TENT.iterate(3)
        K = Interval(F(3, 10), F(7, 10))
        branches = g.preimage_branches(Interval(0, 1), K)
        assert len(branches) == 8  # one monotone branch per lap
        for a, b in zip(branches, branches[1:]):
            assert a.hi < b.lo
        step = F(1, 1000)
        x = F(0)
        while x <= 1:
            if K.contains(g(x)):
                assert any(L.contains(x) for L in branches), x
            x += step

    def test_soundness_on_random_windows(self):
        rng = random.Random(13)
        g = TENT.iterate(3)
        J = Interval(0, 1)
        for _ in range(40):
            a = F(rng.randrange(0, 900), 1000)
            b = a + F(rng.randrange(50, 100), 1000)
            K = Interval(a, b)
            if not g.covers(J, K):
                continue
            for L in g.preimage_branches(J, K):
                assert g.image(L) == K
                assert g(L.lo) in (K.lo, K.hi) and g(L.hi) in (K.lo, K.hi)
                assert g(L.lo) != g(L.hi)


unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=8)


@st.composite
def maps_windows_orders(draw):
    """A random self-map of [0, 1], a window in it (maybe a point) and an order."""
    xs = sorted({F(0), F(1), *draw(st.lists(unit_fractions, max_size=4))})
    f = PwlMap([(x, draw(unit_fractions)) for x in xs])
    a, b = sorted((draw(unit_fractions), draw(unit_fractions)))
    return f, Interval(a, b), draw(st.integers(min_value=1, max_value=3))


@st.composite
def maps_and_targets(draw):
    """A random map, a window J in it and a target K, inside f(J) 7 times in 8."""
    f, J, _ = draw(maps_windows_orders())
    if draw(st.integers(min_value=0, max_value=7)):
        img = f.image(J)
        a, b = sorted(img.lo + img.length * draw(unit_fractions) for _ in range(2))
    else:
        a, b = sorted((draw(unit_fractions), draw(unit_fractions)))
    return f, J, Interval(a, b)


@st.composite
def lattice_maps(draw):
    """A self-map of [0, 1] through points (i/m, y_i/m) with y steps of -1, 0 or 1.

    Every lap has slope 0 or +-1, so every iterate breaks only on the
    lattice and identity laps of iterates are common.
    """
    m = draw(st.integers(min_value=1, max_value=5))
    ys = [draw(st.integers(min_value=0, max_value=m))]
    for _ in range(m):
        ys.append(min(m, max(0, ys[-1] + draw(st.sampled_from((-1, 0, 1))))))
    return PwlMap([(F(i, m), F(y, m)) for i, y in enumerate(ys)])


def outcome(fn, *args):
    """fn's result, or the type of the precondition error it raised."""
    try:
        return fn(*args)
    except (NotCovering, NotAnOrbit) as exc:
        return type(exc)


def reference_preimage_branches(f, J, K):
    """preimage_branches restricting to every component and solving its levels there."""
    if not f.covers(J, K):
        raise NotCovering(f"f({J}) does not contain {K}")
    if J.is_degenerate:
        return [Interval(J.lo, J.hi)]
    return ref_branches(ref_restrict(f.breakpoints, J.lo, J.hi), K)


def ref_branches(pairs, K):
    """The branches onto K of the map pairs, whether or not it covers K."""
    if K.is_degenerate:
        return ref_within_levels(pairs, K.lo, K.lo)
    branches = []
    for comp in ref_within_levels(pairs, K.lo, K.hi):
        if comp.is_degenerate:
            continue
        sub = ref_restrict(pairs, comp.lo, comp.hi)
        lo_hits = ref_within_levels(sub, K.lo, K.lo)
        hi_hits = ref_within_levels(sub, K.hi, K.hi)
        if not lo_hits or not hi_hits:
            continue
        first_lo, last_lo = lo_hits[0].lo, lo_hits[-1].hi
        first_hi, last_hi = hi_hits[0].lo, hi_hits[-1].hi
        cands = []
        if first_lo < last_hi:
            cands.append(Interval(first_lo, last_hi))
        if first_hi < last_lo:
            cands.append(Interval(first_hi, last_lo))
        branches.extend(
            c for c in cands if not any(o != c and o.encloses(c) for o in cands)
        )
    branches.sort(key=lambda iv: (iv.lo, iv.hi))
    return branches


def reference_lap_point(f, k, lap):
    """The lap search on whole-domain iterates: every proper-divisor solution
    set is clipped to the lap and subtracted from it."""
    if k == 1:
        return lap.lo
    blocked_pts = set()
    blocked_spans = []
    for d in divisors(k)[:-1]:
        sub = fixed_points_of_iterate(f, d)
        blocked_pts.update(p for p in sub.points if lap.contains(p))
        for iv in sub.identity_laps:
            inter = iv.intersection(lap)
            if inter is not None:
                blocked_spans.append((inter.lo, inter.hi))
    merged = ref_coalesce(blocked_spans)
    boundaries = {lap.lo, lap.hi} | blocked_pts
    for iv in merged:
        boundaries.update((iv.lo, iv.hi))
    ordered = sorted(boundaries)
    candidates = []
    for i, b in enumerate(ordered):
        candidates.append(b)
        if i + 1 < len(ordered):
            candidates.append((b + ordered[i + 1]) / 2)
    for c in candidates:
        blocked = c in blocked_pts or any(iv.contains(c) for iv in merged)
        if lap.contains(c) and not blocked and least_period(f, c, k) == k:
            return c
    return None


class TestKernelInterface:
    PLATEAU = PwlMap([(0, 0), (F(1, 3), F(1, 2)), (F(2, 3), F(1, 2)), (1, 1)])

    def test_no_module_reaches_into_a_private_kernel_name(self):
        # outside exact_pwl no module imports a _name from it or reads a
        # single-underscore attribute such as f._pairs or J._span
        found = []
        for path in sorted(Path(exact_pwl.__file__).resolve().parent.glob("*.py")):
            if path.name == "exact_pwl.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("exact_pwl"):
                    names = [alias.name for alias in node.names]
                else:
                    names = [node.attr] if isinstance(node, ast.Attribute) else []
                found += [
                    f"{path.name}:{node.lineno}: {name}"
                    for name in names
                    if name.startswith("_") and not name.startswith("__")
                ]
        assert not found

    def test_level_set_on_flat_lap_is_the_lap(self):
        hits = level_set_on(self.PLATEAU, F(1, 2), Interval(0, 1))
        assert hits == [Interval(F(1, 3), F(2, 3))]
        hits = level_set_on(self.PLATEAU, F(1, 2), Interval(F(1, 2), 1))
        assert hits == [Interval(F(1, 2), F(2, 3))]

    def test_level_set_on_at_a_breakpoint_value_is_one_point(self):
        assert level_set_on(TENT, F(1), Interval(0, 1)) == [Interval(F(1, 2), F(1, 2))]
        assert level_set_on(TENT, F(1, 2), Interval(0, 1)) == [
            Interval(F(1, 4), F(1, 4)),
            Interval(F(3, 4), F(3, 4)),
        ]

    def test_level_set_on_degenerate_window(self):
        point = Interval(F(1, 2), F(1, 2))
        assert level_set_on(TENT, F(1), point) == [point]
        assert level_set_on(TENT, F(0), point) == []

    def test_fixed_structure_on_degenerate_window(self):
        assert fixed_structure_on(TENT, Interval(F(2, 3), F(2, 3))) == FixedPoints((F(2, 3),))
        assert fixed_structure_on(TENT, Interval(F(1, 3), F(1, 3))) == FixedPoints(())
        two = Interval(F(2, 5), F(2, 5))  # 2/5 -> 4/5 -> 2/5
        assert fixed_structure_on(TENT, two) == FixedPoints(())
        assert fixed_structure_on(TENT, two, 2) == FixedPoints((F(2, 5),))
        assert fixed_structure_on(TENT, two, 4) == FixedPoints((F(2, 5),))
        assert fixed_structure_on(TENT, two, 3) == FixedPoints(())

    def test_fixed_structure_on_window_cuts_identity_laps(self):
        fps = fixed_structure_on(NEG, Interval(F(1, 4), F(1, 2)), 2)
        assert fps.identity_laps == (Interval(F(1, 4), F(1, 2)),)
        assert fps.points == (F(1, 4), F(1, 2))

    @settings(max_examples=200, deadline=None)
    @given(maps_windows_orders())
    def test_restricting_first_matches_iterating_first(self, case):
        f, window, n = case
        assert fixed_structure_on(f, window, n) == fixed_structure_on(
            f.iterate(n), window
        )

    @settings(max_examples=200, deadline=None)
    @given(maps_and_targets())
    def test_preimage_branches_match_the_reference(self, case):
        f, J, K = case
        assert outcome(f.preimage_branches, J, K) == outcome(
            reference_preimage_branches, f, J, K
        )


@st.composite
def general_maps(draw, domain=None):
    """A self-map with up to 7 breakpoints on a domain that is rarely [0, 1].

    Domains may be negative and denominators run up to 10^9, so slopes are
    rarely integers; a breakpoint may repeat the last value (a flat lap) or
    sit on the diagonal (two in a row make an identity lap).
    """
    if domain is None:
        den = draw(st.sampled_from((1, 12, 10**9)))
        lo = draw(st.fractions(min_value=-5, max_value=5, max_denominator=den))
        width = draw(st.fractions(min_value=F(1, den), max_value=9, max_denominator=den))
        domain = (lo, lo + width)
    lo, hi = domain
    shares = st.fractions(
        min_value=0, max_value=1, max_denominator=draw(st.sampled_from((4, 12, 10**6)))
    )
    xs = sorted({lo, hi, *(lo + (hi - lo) * t for t in draw(st.lists(shares, max_size=5)))})
    ys = []
    for x in xs:
        kind = draw(st.sampled_from(("free", "free", "flat", "diagonal")))
        if kind == "flat" and ys:
            ys.append(ys[-1])
        else:
            ys.append(x if kind == "diagonal" else lo + (hi - lo) * draw(shares))
    return PwlMap(list(zip(xs, ys)))


@st.composite
def maps_and_windows(draw):
    """A general map and a window [a, b] of its domain, a < b."""
    f = draw(general_maps())
    dom = f.domain
    shares = st.fractions(min_value=0, max_value=1, max_denominator=1000)
    a, b = sorted(dom.lo + dom.length * draw(shares) for _ in range(2))
    if a == b:
        a, b = dom.lo, dom.hi
    return f, a, b


RATIONALS = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**12)


@st.composite
def laps(draw):
    """(x0, y0, x1, y1) with x0 < x1: a rising, falling or flat lap."""
    x0, x1 = sorted(draw(st.lists(RATIONALS, min_size=2, max_size=2, unique=True)))
    y0 = draw(RATIONALS)
    rise = draw(st.fractions(min_value=0, max_value=10**6, max_denominator=10**12))
    y1 = y0 + draw(st.sampled_from((1, -1, 0))) * rise
    return x0, y0, x1, y1


class TestLapForm:
    """_lap_form and _at, the kernel's one statement of a lap's line, against Fraction."""

    @settings(max_examples=400, deadline=None)
    @given(laps(), RATIONALS, RATIONALS)
    def test_every_use_of_the_form_is_the_fraction_line(self, lap, t, c):
        _q = exact_pwl._q
        x0, y0, x1, y1 = lap
        p0, p1 = (*_q(x0), *_q(y0)), (*_q(x1), *_q(y1))
        y = y0 + (y1 - y0) * (t - x0) / (x1 - x0)
        assert exact_pwl._at(exact_pwl._lap_form(p0, p1), *_q(t)) == _q(y)
        # _lap_point's midpoint: the line through (0, a) and (2, b) at 1
        midpoint = exact_pwl._lap_form((0, 1, *_q(y0)), (2, 1, *_q(y1)))
        assert exact_pwl._at(midpoint, 1, 1) == _q((y0 + y1) / 2)
        if y0 != y1:
            inverse = exact_pwl._lap_form((*_q(y0), *_q(x0)), (*_q(y1), *_q(x1)))
            assert exact_pwl._at(inverse, *_q(y)) == _q(t)
            x = x0 + (x1 - x0) * (c - y0) / (y1 - y0)
            assert exact_pwl._crossing(p0, p1, _q(c)) == _q(x)


class TestIntegerKernel:
    """The integer kernel gives what the Fraction kernel before it gave."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_compose_matches_the_reference(self, data):
        f = data.draw(general_maps())
        g = data.draw(general_maps(domain=(f.domain.lo, f.domain.hi)))
        budget = data.draw(st.integers(min_value=2, max_value=40))
        got = result_or_error(capped(exact_pwl._compose, budget), f._pairs, g._pairs)
        if not isinstance(got, tuple) or got[0] is not PieceBudgetExceeded:
            got = fractions_of(got)
        assert got == result_or_error(ref_compose, f.breakpoints, g.breakpoints, budget)

    def test_compose_drops_an_inner_breakpoints_collinear_image(self):
        # g's breakpoint 1/2 maps onto f's breakpoint 1/4, and the slopes
        # 1/2 * 2 and 3/2 * 2/3 agree there: f o g is the identity
        f = PwlMap([(0, 0), (F(1, 4), F(1, 2)), (1, 1)])
        g = PwlMap([(0, 0), (F(1, 2), F(1, 4)), (1, 1)])
        with budgets(piece=2):
            assert exact_pwl._compose(f._pairs, g._pairs) == IDENTITY._pairs

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_compose_raises_exactly_past_the_budget(self, data):
        f = data.draw(general_maps())
        g = data.draw(general_maps(domain=(f.domain.lo, f.domain.hi)))
        with budgets(piece=2**20):
            full = exact_pwl._compose(f._pairs, g._pairs)
        # half the budgets sit within two of the result, where the cuts'
        # count and the result's part
        near = st.integers(-2, 2).map(lambda d: min(40, max(2, len(full) + d)))
        budget = data.draw(st.integers(2, 40) | near)
        with budgets(piece=budget):
            if len(full) > budget:
                with pytest.raises(PieceBudgetExceeded):
                    exact_pwl._compose(f._pairs, g._pairs)
            else:
                assert exact_pwl._compose(f._pairs, g._pairs) == full

    @settings(max_examples=150, deadline=None)
    @given(general_maps(), st.integers(min_value=1, max_value=4), st.integers(2, 200))
    def test_iterates_match_the_reference_up_to_the_same_budget(self, f, n, budget):
        def chain(iterates, pairs, convert, *budget):
            out = []
            try:
                for g in iterates(pairs, pairs, n, *budget):
                    out.append(convert(g))
            except PieceBudgetExceeded as exc:
                out.append(str(exc))
            return out

        with budgets(piece=budget):
            got = chain(exact_pwl._iterates, f._pairs, fractions_of)
        assert got == chain(ref_iterates, f.breakpoints, tuple, budget)

    @settings(max_examples=200, deadline=None)
    @given(general_maps(), st.integers(min_value=1, max_value=9), st.integers(2, 300))
    def test_squaring_matches_the_sequential_chain(self, f, n, budget):
        squared = result_or_error(capped(f.iterate, budget), n)
        chained = result_or_error(reference_iterate, f, n, budget)
        if isinstance(squared, PwlMap):
            assert chained == squared or chained[0] is PieceBudgetExceeded
        else:
            assert squared[0] is PieceBudgetExceeded
            assert chained[0] is PieceBudgetExceeded  # squaring raises only where the chain does

    @settings(max_examples=150, deadline=None)
    @given(general_maps(), st.lists(st.fractions(0, 1, max_denominator=10**6), max_size=9))
    def test_one_pass_evaluation_matches_the_pointwise_one(self, f, shares):
        dom = f.domain
        xs = {dom.lo + dom.length * t for t in shares} | {x for x, _ in f.breakpoints}
        qs = [(x.numerator, x.denominator) for x in sorted(xs)]
        pointwise = [exact_pwl._eval_pairs(f._pairs, q) for q in qs]
        assert exact_pwl._eval_ascending(f._pairs, qs) == pointwise

    @settings(max_examples=300, deadline=None)
    @given(general_maps(), st.lists(st.fractions(0, 1, max_denominator=10**6), max_size=9))
    def test_a_reduced_lap_step_matches_the_pointwise_evaluation(self, f, shares):
        # the walks of highest_orbit_below step on f's laps reduced once
        dom = f.domain
        xs = {dom.lo + dom.length * t for t in shares} | {x for x, _ in f.breakpoints}
        laps = exact_pwl._reduced_laps(f._pairs)
        for x in xs:
            q = (x.numerator, x.denominator)
            assert exact_pwl._step(laps, *q) == exact_pwl._eval_pairs(f._pairs, q)

    @settings(max_examples=150, deadline=None)
    @given(maps_and_windows(), st.integers(min_value=1, max_value=4), st.booleans())
    def test_every_iterate_takes_values_in_the_domain(self, case, n, whole):
        # _iterates checks no values: f o g only takes values of the self-map f
        f, a, b = case
        first = f._pairs if whole else exact_pwl._restrict(
            f._pairs, (a.numerator, a.denominator), (b.numerator, b.denominator)
        )
        dom = f.domain
        for g in exact_pwl._iterates(f._pairs, first, n):
            assert all(dom.contains(F(yn, yd)) for _, _, yn, yd in g)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=-3, max_value=3, max_denominator=6),
                st.fractions(min_value=-3, max_value=3, max_denominator=6),
            ),
            max_size=8,
        ),
        st.booleans(),
    )
    def test_canonical_matches_the_reference(self, points, ordered):
        if ordered:
            points.sort(key=lambda p: p[0])
        flat = [(x.numerator, x.denominator, y.numerator, y.denominator) for x, y in points]
        got = result_or_error(exact_pwl._canonical, flat)
        if not isinstance(got[0], type):
            got = fractions_of(got)
        assert got == result_or_error(ref_canonical, points)

    @settings(max_examples=200, deadline=None)
    @given(maps_and_windows(), st.integers(min_value=-1, max_value=1))
    def test_restrict_matches_the_reference(self, case, shift):
        f, a, b = case
        a -= shift  # shift 1 moves the window out of the domain, -1 may empty it
        got = result_or_error(exact_pwl._restrict, f._pairs, (a.numerator, a.denominator),
                              (b.numerator, b.denominator))
        if not isinstance(got[0], type):
            got = fractions_of(got)
        assert got == result_or_error(ref_restrict, f.breakpoints, a, b)

    @settings(max_examples=200, deadline=None)
    @given(general_maps(), st.integers(min_value=1, max_value=3))
    def test_fixed_structure_matches_the_reference(self, f, n):
        g = f.iterate(n)
        got = exact_pwl._fixed_points(exact_pwl._fixed_structure(g._pairs))
        assert got == ref_fixed_structure(g.breakpoints)

    @settings(max_examples=200, deadline=None)
    @given(general_maps(), st.integers(min_value=1, max_value=3))
    def test_fixed_structure_matches_the_lerp_solve(self, f, n):
        # the same integer pairs, root for root, as the Fraction solve gives
        g = f.iterate(n)._pairs
        assert exact_pwl._fixed_structure(g) == lerp_fixed_structure(g)

    @settings(max_examples=200, deadline=None)
    @given(maps_and_windows(), st.integers(min_value=1, max_value=3))
    def test_fixed_structure_on_windows_matches_the_reference(self, case, n):
        f, a, b = case
        first = ref_restrict(f.breakpoints, a, b)
        chain = list(ref_iterates(f.breakpoints, first, n, exact_pwl.DEFAULT_PIECE_BUDGET))
        assert fixed_structure_on(f, Interval(a, b), n) == ref_fixed_structure(chain[-1])

    @settings(max_examples=150, deadline=None)
    @given(maps_and_windows(), st.data())
    def test_level_components_match_the_reference(self, case, data):
        f, a, b = case
        dom = f.domain
        shares = st.fractions(min_value=0, max_value=1, max_denominator=1000)
        values = st.one_of(
            st.sampled_from([y for _, y in f.breakpoints]),
            shares.map(lambda t: dom.lo + dom.length * t),
        )
        lo, hi = sorted((data.draw(values), data.draw(values)))
        if data.draw(st.booleans()):
            hi = lo  # a level set
        # the sweep gives the level set for lo == hi, and otherwise the
        # branches that ref_branches builds from ref_within_levels' components
        clipped = exact_pwl._clip(f._pairs, (a.numerator, a.denominator),
                                  (b.numerator, b.denominator))
        got = exact_pwl._branches(clipped, ((lo.numerator, lo.denominator),
                                            (hi.numerator, hi.denominator)))
        ref = ref_branches(ref_restrict(f.breakpoints, a, b), Interval(lo, hi))
        assert intervals_of(got) == ref

    @settings(max_examples=300, deadline=None)
    @given(general_maps(), st.data())
    def test_sweep_matches_the_three_pass_branches(self, f, data):
        dom = f.domain
        shares = st.fractions(min_value=0, max_value=1, max_denominator=1000)
        a, b = sorted(dom.lo + dom.length * data.draw(shares) for _ in range(2))
        if data.draw(st.booleans()):
            b = a  # a degenerate J
        J = (a.numerator, a.denominator), (b.numerator, b.denominator)
        img = f.image(Interval(a, b))
        # K inside f(J), often at breakpoint values, sometimes a point
        values = st.one_of(
            st.sampled_from([img.lo, img.hi, *(y for _, y in f.breakpoints if img.contains(y))]),
            shares.map(lambda t: img.lo + img.length * t),
        )
        lo, hi = sorted((data.draw(values), data.draw(values)))
        if data.draw(st.booleans()):
            hi = lo
        K = (lo.numerator, lo.denominator), (hi.numerator, hi.denominator)
        got = exact_pwl._branches(exact_pwl._clip(f._pairs, *J), K)
        assert got == three_pass_branches(f._pairs, J, K)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.fractions(min_value=-10, max_value=10, max_denominator=10**12), max_size=10),
        st.integers(min_value=2, max_value=2**70),
        st.data(),
    )
    def test_sort_key_orders_as_cross_multiplication(self, values, d, data):
        # 1/d and 1/(d - 1) are Farey neighbours, 1 / (d (d - 1)) apart
        values += [F(1, d), F(1, d - 1), F(-1, d), F(-1, d - 1)]
        values += data.draw(st.lists(st.sampled_from(values), max_size=4))  # equal values
        qs = [(v.numerator, v.denominator) for v in values]
        key = exact_pwl._sort_key(qs)
        for p, q in itertools.product(qs, repeat=2):
            cross = p[0] * q[1] - q[0] * p[1]
            assert (key(p) > key(q)) - (key(p) < key(q)) == (cross > 0) - (cross < 0)
        assert sorted(qs, key=key) == [(v.numerator, v.denominator) for v in sorted(values)]

    def test_error_messages_print_values_as_before(self):
        cases = [
            (lambda: TENT(F(3, 2)), OutOfDomain, "3/2 outside domain [0, 1]"),
            (lambda: least_period(TENT, F(5, 4), 2), OutOfDomain, "5/4 outside domain [0, 1]"),
            (lambda: TENT.image(Interval(F(1, 2), 2)), OutOfDomain,
             "[1/2, 2] outside domain [0, 1]"),
            (lambda: TENT.covers(Interval(0, 1), Interval(F(1, 2), 2)), OutOfDomain,
             "[1/2, 2] outside domain [0, 1]"),
            (lambda: level_set_on(TENT, 0, Interval(F(-1, 2), F(1, 2))), OutOfDomain,
             "cannot restrict to [-1/2, 1/2]"),
            (lambda: PwlMap([(-1, 0), (F(1, 3), F(7, 5))]), InvalidMap,
             "value 7/5 escapes domain [-1, 1/3]"),
            (lambda: PwlMap([(0, 0), (1, 1), (F(1, 2), 0)]), InvalidMap,
             "breakpoint x-values must increase"),
            (lambda: PwlMap([(0, 0), (F(2, 3), 1), (F(2, 3), 0)]), InvalidMap,
             "two breakpoints share x = 2/3"),
            (lambda: least_period(TENT, F(1, 3), 2), NotAnOrbit,
             "1/3 is not fixed by the 2-th iterate"),
        ]
        for call, error, text in cases:
            with pytest.raises(error) as info:
                call()
            assert str(info.value) == text


class TestFixedPoints:
    def test_tent_base_cases(self):
        assert list(fixed_points_of_iterate(TENT, 1)) == [0, F(2, 3)]
        assert list(fixed_points_of_iterate(TENT, 2)) == [
            0, F(2, 5), F(2, 3), F(4, 5)
        ]

    @pytest.mark.parametrize("k", range(1, 11))
    def test_closed_form_oracle(self, k):
        # On each dyadic lap the k-th iterate is x -> +/- 2^k x + even,
        # so its fixed points are the 2m/(2^k +/- 1) family.
        plus = {F(2 * m, 2**k + 1) for m in range(2 ** (k - 1) + 1)}
        minus = {F(2 * m, 2**k - 1) for m in range(2 ** (k - 1))}
        expected = sorted(plus | minus)
        assert list(fixed_points_of_iterate(TENT, k)) == expected
        assert len(expected) == 2**k

    def test_identity_lap_flagged(self):
        fps = fixed_points_of_iterate(NEG, 2)
        assert fps.has_continuum
        assert fps.identity_laps == (Interval(0, 1),)
        assert list(fps) == [0, 1]

    def test_tent_never_flags(self):
        assert not fixed_points_of_iterate(TENT, 6).has_continuum


class TestPeriodicOrbits:
    def test_tent_period_two(self):
        census = periodic_orbits(TENT, 2)
        assert [list(o) for o in census] == [[F(2, 5), F(4, 5)]]
        assert not census.continuum

    def test_tent_period_three_ordered_by_minimum(self):
        census = periodic_orbits(TENT, 3)
        assert [list(o) for o in census] == [
            [F(2, 9), F(4, 9), F(8, 9)],
            [F(2, 7), F(4, 7), F(6, 7)],
        ]

    def test_identity_has_no_period_two(self):
        census = periodic_orbits(IDENTITY, 2)
        assert len(census) == 0
        assert not census.continuum

    def test_reflection_carries_a_continuum_of_period_two(self):
        census = periodic_orbits(NEG, 2)
        assert [list(o) for o in census] == [[0, 1]]
        assert census.continuum == (Interval(0, 1),)

    def test_orbit_points_cycle_exactly(self):
        for k in (2, 3, 4, 5):
            for orbit in periodic_orbits(TENT, k):
                assert is_orbit_of(TENT, orbit)
                for p in orbit:
                    assert least_period(TENT, p, k) == k

    @pytest.mark.parametrize("k", range(1, 15))
    def test_mobius_orbit_count_identity(self, k):
        count = len(periodic_orbits(TENT, k))
        expected = sum(
            mobius(k // d) * 2**d for d in range(1, k + 1) if k % d == 0
        )
        assert k * count == expected


class TestContinuumExtraction:
    def test_representative_for_the_reflection(self):
        rep = point_of_least_period_in_lap(NEG, 2, Interval(0, 1))
        assert rep is not None
        assert least_period(NEG, rep, 2) == 2

    def test_exhausted_lap_returns_none(self):
        # every point of the reflection has period 1 or 2, never 4
        assert point_of_least_period_in_lap(NEG, 4, Interval(0, 1)) is None

    def test_identity_lap_period_one(self):
        assert point_of_least_period_in_lap(IDENTITY, 1, Interval(0, 1)) == 0

    def _assert_matches_on_laps(self, f, k, shares):
        """Compare on every window of an identity lap between two of its shares."""
        shares = sorted(set(shares))
        for lap in fixed_points_of_iterate(f, k).identity_laps:
            ends = [lap.lo + s * lap.length for s in shares]
            for i, a in enumerate(ends):
                for b in ends[i:]:
                    window = Interval(a, b)
                    assert point_of_least_period_in_lap(f, k, window) == (
                        reference_lap_point(f, k, window)
                    )

    @pytest.mark.parametrize("f", IDENTITY_LAP_MAPS, ids=IDENTITY_LAP_IDS)
    def test_matches_the_reference_on_identity_lap_maps(self, f):
        for k in range(1, 9):
            self._assert_matches_on_laps(f, k, [F(i, 8) for i in range(9)])

    @settings(max_examples=150, deadline=None)
    @given(
        lattice_maps(),
        st.integers(min_value=1, max_value=8),
        unit_fractions,
        unit_fractions,
    )
    def test_matches_the_reference_on_lattice_maps(self, f, k, s, t):
        self._assert_matches_on_laps(f, k, [F(0), s, F(1, 2), t, F(1)])

    @settings(max_examples=100, deadline=None)
    @given(maps_windows_orders(), st.integers(min_value=1, max_value=8))
    def test_matches_the_reference_on_degenerate_laps(self, case, k):
        f, window, _ = case
        point = Interval(window.lo, window.lo)
        assert outcome(point_of_least_period_in_lap, f, k, point) == outcome(
            reference_lap_point, f, k, point
        )

    @pytest.mark.parametrize("k", [2, 4, 6, 8, 12])
    def test_nothing_is_composed_on_the_lap(self, monkeypatch, k):
        """The lap's chain of iterates is empty: two orbit walks decide it."""
        calls = []
        original = exact_pwl._compose

        def counted(*args):
            calls.append(len(args[1]))
            return original(*args)

        monkeypatch.setattr(exact_pwl, "_compose", counted)
        rep = point_of_least_period_in_lap(NEG, k, Interval(0, 1))
        assert rep == (0 if k == 2 else None)
        assert calls == []

    def test_a_piece_budget_below_the_lap_does_not_bind(self):
        # f^6 is the identity, two breakpoints; f itself has three, so a
        # chain of iterates composed on the lap would pass this budget
        with budgets(piece=2):
            census = periodic_orbits(INVOLUTION, 6)
        assert census == PeriodicOrbits((), ())


class TestClamp:
    def test_truncation_has_exact_plateaus(self):
        clamped = TENT.clamp(F(2, 7), F(6, 7))
        assert clamped.breakpoints == (
            (F(0), F(2, 7)),
            (F(1, 7), F(2, 7)),
            (F(3, 7), F(6, 7)),
            (F(4, 7), F(6, 7)),
            (F(6, 7), F(2, 7)),
            (F(1), F(2, 7)),
        )

    def test_noop_bounds(self):
        assert TENT.clamp(0, 1) == TENT
        dom = THREE_CYCLE.domain
        assert THREE_CYCLE.clamp(dom.lo, dom.hi) == THREE_CYCLE

    def test_bad_bounds(self):
        with pytest.raises(OutOfDomain, match=r"bounds \[3/4, 1/4\] not nested in \[0, 1\]"):
            TENT.clamp(F(3, 4), F(1, 4))
        with pytest.raises(OutOfDomain, match=r"bounds \[-1/2, 1\] not nested in \[0, 1\]"):
            TENT.clamp(F(-1, 2), 1)


class TestOrbits:
    def test_orbit_of_periodic_point(self):
        orbit = orbit_of(TENT, F(2, 7))
        assert list(orbit) == [F(2, 7), F(4, 7), F(6, 7)]
        assert orbit.period == 3
        assert orbit.diameter == F(4, 7)

    def test_preperiodic_point_rejected(self):
        with pytest.raises(NotAnOrbit):
            orbit_of(TENT, F(1, 2))  # 1/2 -> 1 -> 0 -> 0

    def test_long_orbit_costs_linear_comparisons(self, monkeypatch):
        n = 300
        shift = connect_the_dots(CyclicPattern(tuple(range(2, n + 1)) + (1,)))
        with pytest.raises(NotAnOrbit, match="did not return"):
            orbit_of(shift, 0, max_steps=n - 1)
        calls = []
        original = F.__eq__

        def counted(self, other):
            calls.append(None)
            return original(self, other)

        monkeypatch.setattr(F, "__eq__", counted)
        orbit = orbit_of(shift, 0)
        monkeypatch.undo()
        assert orbit.period == n
        assert len(calls) <= 10 * n  # a list scan per step would take n^2 / 2

    def test_duplicate_points_rejected(self):
        with pytest.raises(NotAnOrbit):
            Orbit((F(1, 2), F(1, 2)))

    def test_is_orbit_of(self):
        assert is_orbit_of(TENT, Orbit((F(2, 5), F(4, 5))))
        assert not is_orbit_of(TENT, Orbit((F(2, 5), F(3, 5))))
        # a proper subset of a 3-cycle of the square is not an orbit
        square = TENT.iterate(2)
        assert not is_orbit_of(square, Orbit((F(2, 7), F(4, 7))))

    def test_orbit_permutation_is_the_one_line_rank_map(self):
        sigma = exact_pwl.orbit_permutation
        assert sigma(TENT, Orbit((F(2, 7), F(4, 7), F(6, 7)))) == (2, 3, 1)
        assert sigma(TENT, Orbit((F(2, 5), F(4, 5)))) == (2, 1)
        assert sigma(TENT, Orbit((0,))) == (1,)
        for m in (3, 5, 8):
            pattern = random_pattern(m, random.Random(m))
            f = connect_the_dots(pattern)
            assert sigma(f, orbit_of(f, 0)) == pattern.mapping

    @pytest.mark.parametrize(
        "f, points",
        [
            (TENT, (F(2, 5), F(3, 5))),  # f(2/5) = 4/5 is not a point
            (TENT, (0, F(2, 3))),  # two fixed points: two cycles
            (TENT, (0, F(2, 5), F(4, 5))),  # a fixed point and a 2-cycle
            (TENT, (0, 1)),  # both points map to 0
            (TENT.iterate(2), (F(2, 7), F(4, 7))),  # part of a 3-cycle
            (TENT, (F(1, 2), 2)),  # 2 is out of the domain
        ],
        ids=[
            "outside", "two-fixed", "fixed-and-swap", "not-one-to-one", "subset",
            "out-of-domain",
        ],
    )
    def test_orbit_permutation_refuses_what_is_not_one_cycle(self, f, points):
        assert exact_pwl.orbit_permutation(f, Orbit(points)) is None
        assert not is_orbit_of(f, Orbit(points))


def reference_census(f, k):
    """The k-step trajectory census: every solution of f^k(x) = x walks k steps."""
    fps = fixed_points_of_iterate(f, k)
    proper = divisors(k)[:-1]
    orbits = {}
    for y in fps.points:
        traj = [y]
        for _ in range(k - 1):
            traj.append(f(traj[-1]))
        if any(traj[d] == y for d in proper):
            continue
        orbit = Orbit(tuple(traj))
        orbits.setdefault(orbit.minimum, orbit)
    continuum = tuple(
        lap
        for lap in fps.identity_laps
        if point_of_least_period_in_lap(f, k, lap) is not None
    )
    return PeriodicOrbits(tuple(orbits[m] for m in sorted(orbits)), continuum)


def _truncation(k):
    return truncate_at_orbit(TENT, minimal_diameter_orbit(TENT, k)).map


@st.composite
def patterns_and_orders(draw):
    m = draw(st.integers(min_value=3, max_value=7))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    k = draw(st.integers(min_value=1, max_value=7))
    return random_pattern(m, random.Random(seed)), k


class TestCensus:
    def _assert_matches_reference(self, f, upto):
        censuses = list(periodic_orbits_upto(f, upto))
        assert censuses == [reference_census(f, k) for k in range(1, upto + 1)]
        assert periodic_orbits(f, upto) == censuses[-1]

    @settings(max_examples=25, deadline=None)
    @given(patterns_and_orders())
    def test_matches_the_trajectory_census_on_patterns(self, case):
        pattern, k = case
        self._assert_matches_reference(connect_the_dots(pattern), k)

    @pytest.mark.parametrize("k", [3, 5])
    def test_matches_the_trajectory_census_on_tent_truncations(self, k):
        self._assert_matches_reference(_truncation(k), 7)

    @pytest.mark.parametrize("f", IDENTITY_LAP_MAPS, ids=IDENTITY_LAP_IDS)
    def test_matches_the_trajectory_census_with_identity_laps(self, f):
        self._assert_matches_reference(f, 6)

    def test_identity_laps_are_exercised(self):
        # the four-doubling realization's 4th iterate carries identity laps
        f = connect_the_dots(CyclicPattern((3, 4, 2, 1)))
        assert fixed_points_of_iterate(f, 4).has_continuum

    def test_each_tent_orbit_is_walked_once(self, monkeypatch):
        evaluated = []
        one, batch = exact_pwl._eval_pairs, exact_pwl._eval_ascending

        def counted_one(pairs, x):
            evaluated.append(x)
            return one(pairs, x)

        def counted_batch(pairs, xs):
            evaluated.extend(xs)
            return batch(pairs, xs)

        monkeypatch.setattr(exact_pwl, "_eval_pairs", counted_one)
        monkeypatch.setattr(exact_pwl, "_eval_ascending", counted_batch)
        census = periodic_orbits(TENT, 10)
        assert len(census) == 99
        # all 2^10 solutions of tent^10(x) = x, each evaluated once
        assert len(evaluated) == len(set(evaluated)) == 2**10

    @pytest.mark.parametrize(
        "k, points",
        [
            (2, [(1, 3)]),  # f(1/3) = 2/3 is not a listed solution
            (2, [(2, 7), (4, 7), (6, 7)]),  # a 3-cycle longer than k
            (4, [(2, 7), (4, 7), (6, 7)]),  # a cycle whose length does not divide k
            (1, [(0, 1), (1, 1)]),  # 0 and 1 both map to 0
        ],
        ids=["unlisted-value", "long-cycle", "non-divisor", "not-one-to-one"],
    )
    def test_census_certifies_the_solutions_it_is_given(self, k, points):
        with pytest.raises(NotAnOrbit, match="is not fixed by the"):
            exact_pwl._census(TENT, k, (points, []))

    def test_spectrum_composes_each_iterate_once(self, monkeypatch):
        calls = []
        original = exact_pwl._compose

        def counted(*args):
            calls.append(len(args[1]))
            return original(*args)

        f = _truncation(3)
        monkeypatch.setattr(exact_pwl, "_compose", counted)
        censuses = list(periodic_orbits_upto(f, 9))
        assert len(censuses) == 9
        assert len(calls) == 8

        def refuse(*args):
            raise AssertionError("a truncation's spectrum is read off its walk counts")

        monkeypatch.setattr(exact_pwl, "_compose", refuse)
        entries = period_spectrum(f, 9)
        assert [e.period for e in entries] == list(range(1, 10))
        assert [e.orbit_count for e in entries] == [len(c.orbits) for c in censuses]

    def test_non_positive_bounds_are_rejected(self):
        for upto in (0, -3):
            with pytest.raises(ValueError):
                periodic_orbits_upto(TENT, upto)
            with pytest.raises(ValueError):
                period_spectrum(TENT, upto)
            for method in ("auto", "walks"):
                with pytest.raises(ValueError):
                    realized_periods(CyclicPattern((2, 3, 1)), upto, method)

    def test_budget_overrun_ends_the_generator(self):
        censuses = periodic_orbits_upto(TENT, 9)
        with budgets(piece=40):
            assert len(list(itertools.islice(censuses, 5))) == 5  # tent^5 has 33
            with pytest.raises(PieceBudgetExceeded):
                next(censuses)
            assert next(censuses, None) is None

    def test_auto_composes_nothing_and_walks_nothing(self, monkeypatch):
        pattern = CyclicPattern.from_cycle_string("1>3>4>2>5")
        direct = realized_periods(pattern, 8, "direct")

        def refuse(*args, **kwargs):
            raise AssertionError("auto must read the spectrum off the matrix")

        monkeypatch.setattr(exact_pwl, "_compose", refuse)
        monkeypatch.setattr(pattern_dynamics, "periodic_orbits_upto", refuse)
        monkeypatch.setattr(pattern_dynamics, "iter_closed_walks", refuse)
        with budgets(piece=1):
            assert realized_periods(pattern, 8, "auto") == direct

    def test_identity_laps_compose_only_the_census_chain(self, monkeypatch):
        calls = []
        original = exact_pwl._compose

        def counted(*args):
            calls.append(len(args[1]))
            return original(*args)

        f = connect_the_dots(CyclicPattern((3, 4, 2, 1)))
        monkeypatch.setattr(exact_pwl, "_compose", counted)
        censuses = list(periodic_orbits_upto(f, 8))
        assert [bool(c.continuum) for c in censuses] == [False] * 3 + [True] + [False] * 4
        assert len(calls) == 7  # the chain f^2, ..., f^8 and nothing on the laps
        monkeypatch.setattr(exact_pwl, "_compose", original)
        assert censuses[3] == periodic_orbits(f, 4)

    def test_walks_never_start_the_census(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the walk route must not enumerate iterates")

        monkeypatch.setattr(pattern_dynamics, "periodic_orbits_upto", refuse)
        assert realized_periods(CyclicPattern((2, 3, 1)), 5, "walks") == {1, 2, 3, 4, 5}


def reference_censuses(f, upto):
    """periodic_orbits_upto with each iterate composed as f o f^(k-1), f outside."""
    chain = exact_pwl._iterates(f._pairs, f._pairs, upto)
    for k, g in enumerate(chain, start=1):
        yield exact_pwl._census(f, k, exact_pwl._fixed_structure(g))


def censuses_until_overrun(censuses):
    """The censuses a generator yields, then the overrun's message if it raises."""
    out = []
    try:
        for census in censuses:
            out.append(census)
    except PieceBudgetExceeded as exc:
        out.append(str(exc))
    return out


class TestCensusOrder:
    """f^k composed as f^(k-1) o f: the same censuses and overruns as f o f^(k-1)."""

    @pytest.mark.parametrize("m", range(2, 7))
    def test_every_small_pattern_matches_the_f_outside_chain(self, m):
        for pattern in all_patterns(m):
            f = connect_the_dots(pattern)
            assert list(periodic_orbits_upto(f, 8)) == list(reference_censuses(f, 8))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 10**6), st.integers(4, 64))
    def test_overruns_come_at_the_same_k(self, m, seed, budget):
        f = connect_the_dots(random_pattern(m, random.Random(seed)))
        with budgets(piece=budget):
            got = censuses_until_overrun(periodic_orbits_upto(f, 8))
            assert got == censuses_until_overrun(reference_censuses(f, 8))

    def test_overruns_are_exercised(self):
        f = connect_the_dots(CyclicPattern.from_cycle_string("1>3>4>2>5>7>6"))
        with budgets(piece=64):
            got = censuses_until_overrun(periodic_orbits_upto(f, 8))
            assert got[-1] == "composition needs more than 64 breakpoints"
            assert got == censuses_until_overrun(reference_censuses(f, 8))


def census_spectrum(f, upto):
    """period_spectrum by the direct census alone."""
    return [
        SpectrumEntry(k, len(c.orbits), bool(c.continuum))
        for k, c in enumerate(periodic_orbits_upto(f, upto), start=1)
    ]


@st.composite
def clamped_patterns(draw):
    """A connect-the-dots map, or its clamp at the hull of one of its orbits."""
    m, seed = draw(st.integers(3, 5)), draw(st.integers(0, 10**6))
    f = connect_the_dots(random_pattern(m, random.Random(seed)))
    orbits = [o for c in periodic_orbits_upto(f, 4) for o in c.orbits]
    if orbits and draw(st.booleans()):
        orbit = draw(st.sampled_from(orbits))
        f = f.clamp(orbit.minimum, orbit.maximum)
    return f


class TestMarkovSpectrum:
    """period_spectrum from the walk counts of a Markov partition."""

    @pytest.mark.parametrize("k", range(3, 13))
    def test_truncations_match_the_census(self, k, monkeypatch):
        f = _truncation(k)
        expected = census_spectrum(f, 14)

        def refuse(*args):
            raise AssertionError("the walk counts compose nothing")

        monkeypatch.setattr(exact_pwl, "_compose", refuse)
        assert exact_pwl.markov_orbit_counts(f, 14) is not None
        assert period_spectrum(f, 14) == expected

    def test_the_full_tent_matches_the_census(self):
        assert exact_pwl.markov_orbit_counts(TENT, 12) is not None
        entries = period_spectrum(TENT, 12)
        assert entries == census_spectrum(TENT, 12)
        # 2^k points solve tent^k(x) = x; those of least period k make the orbits
        assert [e.orbit_count for e in entries][:5] == [2, 1, 2, 3, 6]

    @settings(max_examples=60, deadline=None)
    @given(clamped_patterns(), st.integers(1, 7))
    def test_clamped_patterns_match_the_census(self, f, upto):
        assert period_spectrum(f, upto) == census_spectrum(f, upto)

    def test_clamped_patterns_take_both_routes(self):
        rng, routes = random.Random(3), set()
        for _ in range(40):
            f = connect_the_dots(random_pattern(rng.randint(3, 6), rng))
            orbit = rng.choice([o for c in periodic_orbits_upto(f, 3) for o in c.orbits])
            g = f.clamp(orbit.minimum, orbit.maximum)
            for h in (f, g):
                routes.add(exact_pwl.markov_orbit_counts(h, 6) is not None)
                assert period_spectrum(h, 6) == census_spectrum(h, 6)
        assert routes == {True, False}

    @pytest.mark.parametrize(
        "f",
        [
            connect_the_dots(CyclicPattern((2, 3, 1))),  # a lap of slope 1
            NEG,  # slope -1: the continuum of period 2
            # slopes 3/2 and -3/2: the breakpoints' orbits never close
            PwlMap([(0, 0), (F(2, 3), 1), (1, F(1, 2))]),
        ],
        ids=["slope-one", "slope-minus-one", "no-closure"],
    )
    def test_other_maps_take_the_census(self, f):
        assert exact_pwl.markov_orbit_counts(f, 6) is None
        assert period_spectrum(f, 6) == census_spectrum(f, 6)

    def test_the_partition_is_budgeted(self):
        f = PwlMap([(0, 0), (F(2, 3), 1), (1, F(1, 2))])
        with budgets(piece=50), pytest.raises(PieceBudgetExceeded):
            exact_pwl.markov_partition(f)
        # the truncation's plateau [3/7, 4/7] at 6/7 is node 4, a zero row
        graph = exact_pwl.markov_partition(_truncation(3))
        assert graph.node_count == 6 and graph.successors(4) == []

    def test_walk_counts_accept_zero_rows(self):
        graph = exact_pwl.MarkovGraph(3, frozenset({(1, 1), (1, 2), (2, 1)}))
        assert exact_pwl.primitive_walk_counts(graph, 4) == [0, 1, 2, 3, 4]

    def test_counts_past_the_walk_budget_raise(self, monkeypatch):
        f = _truncation(3)

        def refuse(*args):
            raise AssertionError("an overrun of the walk counts runs no census")
            yield

        monkeypatch.setattr(tent_constructions, "periodic_orbits_upto", refuse)
        with budgets(walk=60):
            with pytest.raises(WalkBudgetExceeded):
                exact_pwl.markov_orbit_counts(f, 9)
            with pytest.raises(WalkBudgetExceeded):
                period_spectrum(f, 9)
        assert exact_pwl.markov_orbit_counts(f, 9) is not None  # the default budget


def reference_primitive_walk_counts(graph, upto, walk_budget=exact_pwl.DEFAULT_WALK_BUDGET):
    """The walk counts on lists of entries, one addition per entry."""
    succ = graph._successors
    nodes = range(1, graph.node_count + 1)
    zero = [0] * graph.node_count
    additions = graph.node_count * len(graph.edges)  # per power
    spent, words = 0, 1
    power = [[int(i == j) for j in nodes] for i in nodes]
    prim = [0]
    sieve = {}
    for k in range(1, upto + 1):
        shorter = sieve.pop(k, [])
        spent += (additions + len(shorter)) * words
        if spent > walk_budget:
            raise WalkBudgetExceeded(
                f"more than {walk_budget} walk-count additions by length {k}"
            )
        power = [
            [sum(c) for c in zip(*(power[j - 1] for j in succ[i]))] or zero for i in nodes
        ]
        if not any(map(any, power)):
            if upto > walk_budget:
                raise WalkBudgetExceeded(f"more than {walk_budget} walk counts to list")
            return prim + [0] * (upto + 1 - k)
        trace = sum(row[i] for i, row in enumerate(power))
        prim.append(trace - sum(prim[d] for d in shorter))
        for d in (*shorter, k):
            sieve.setdefault(k + d, []).append(d)
        words = 1 + max(map(max, power)).bit_length() // 64
    return prim


@st.composite
def markov_graphs(draw, max_nodes=8):
    """0 to max_nodes nodes, with self-loops and zero rows; some nilpotent (i -> j only for i < j)."""
    n = draw(st.integers(0, max_nodes))
    nodes = st.integers(1, max(n, 1))
    edges = draw(st.frozensets(st.tuples(nodes, nodes), max_size=n * n)) if n else frozenset()
    if draw(st.booleans()):
        edges = frozenset((i, j) for i, j in edges if i < j)
    return exact_pwl.MarkovGraph(n, edges)


def complete_graph(n):
    return exact_pwl.MarkovGraph(n, frozenset(itertools.product(range(1, n + 1), repeat=2)))


class TestPackedWalkCounts:
    """primitive_walk_counts on packed rows against the entry-by-entry reference."""

    @settings(max_examples=300, deadline=None)
    @given(
        markov_graphs(),
        st.integers(1, 150),
        st.integers(10, 10**8) | st.sampled_from([10, 10**3, 10**5, 10**8]),
    )
    def test_matches_the_reference(self, graph, upto, budget):
        got = result_or_error(capped(exact_pwl.primitive_walk_counts, walk=budget), graph, upto)
        assert got == result_or_error(reference_primitive_walk_counts, graph, upto, budget)

    @pytest.mark.parametrize(
        "graph, upto",
        [
            # every row of K8^k sums to top = 8^k, with entries M = top / 8.
            # 8 top passes 2^64 at k = 22: the fields widen.  At k = 21,
            # top // 8 = 2^60 and top = 2^63 take 1 and 2 words: M is read
            # off the fields, and charging top's 2 words would show here
            (complete_graph(8), 100),
            (complete_graph(3), 150),
            (complete_graph(1), 70),  # one self-loop: every entry 1, yet 70 > 62
            (exact_pwl.MarkovGraph(3, frozenset({(1, 1), (1, 2), (2, 1), (3, 1)})), 120),
        ],
        ids=["K8", "K3", "loop", "fibonacci"],
    )
    def test_the_least_passing_budget_is_the_reference_charge(self, graph, upto):
        counts = reference_primitive_walk_counts(graph, upto, 10**9)
        lo, hi = 0, 10**9  # the least budget that passes: the whole charge
        while lo < hi:
            mid = (lo + hi) // 2
            try:
                capped(exact_pwl.primitive_walk_counts, walk=mid)(graph, upto)
                hi = mid
            except WalkBudgetExceeded:
                lo = mid + 1
        assert capped(exact_pwl.primitive_walk_counts, walk=lo)(graph, upto) == counts
        assert reference_primitive_walk_counts(graph, upto, lo) == counts
        with pytest.raises(WalkBudgetExceeded) as exc:
            reference_primitive_walk_counts(graph, upto, lo - 1)
        with pytest.raises(WalkBudgetExceeded, match=f"^{exc.value}$"):
            capped(exact_pwl.primitive_walk_counts, walk=lo - 1)(graph, upto)

    def test_a_vanishing_list_past_the_budget_is_refused_at_once(self):
        # A = 0 from length 1 on: nothing is counted, but 10^12 zeros would
        # still be listed
        clamp = truncate_at_orbit(TENT, minimal_diameter_orbit(TENT, 1)).map
        start = time.perf_counter()
        for call in (
            lambda: exact_pwl.primitive_walk_counts(exact_pwl.MarkovGraph(1, frozenset()), 10**12),
            lambda: period_spectrum(clamp, 10**12),
        ):
            with pytest.raises(WalkBudgetExceeded, match="^more than 1000000 walk counts to list$"):
                call()
        assert time.perf_counter() - start < 1

    def test_a_huge_bound_is_refused_by_the_budget_at_once(self):
        graph = pattern_dynamics.markov_graph(CyclicPattern.from_cycle_string("1>3>2"))
        start = time.perf_counter()
        with budgets(walk=1000), pytest.raises(WalkBudgetExceeded, match="walk-count additions"):
            exact_pwl.primitive_walk_counts(graph, 10**12)
        assert time.perf_counter() - start < 1


def reference_closed_walks(graph, n):
    """Every closed walk from each start, kept when it is its own least rotation."""
    succ = graph._successors
    for start in range(1, graph.node_count + 1):
        later = {i: [j for j in s if j >= start] for i, s in succ.items()}
        path = []
        stack = [iter((start,))]
        while stack:
            nxt = next(stack[-1], None)
            if nxt is None:
                stack.pop()
                if path:
                    path.pop()
            elif len(path) + 1 < n:
                path.append(nxt)
                stack.append(iter(later[nxt]))
            else:
                walk = (*path, nxt)
                rotations = (walk[i:] + walk[:i] for i in range(n))
                if graph.has_edge(nxt, start) and walk == min(rotations):
                    yield walk


def path_count(graph, n):
    """The walks of n nodes, open or closed: what the reference searches at most."""
    counts = [1] * graph.node_count
    for _ in range(n - 1):
        counts = [
            sum(counts[j - 1] for j in graph.successors(i))
            for i in range(1, graph.node_count + 1)
        ]
    return sum(counts)


class TestNecklaceWalks:
    """iter_closed_walks generates least rotations directly, as the rotation filter kept them."""

    @settings(max_examples=300, deadline=None)
    @given(markov_graphs(max_nodes=7), st.integers(1, 9))
    def test_matches_the_reference(self, graph, n):
        # dense graphs are checked at the longest length whose paths the
        # reference can search quickly
        n = max(k for k in range(1, n + 1) if path_count(graph, k) <= 20_000)
        assert list(exact_pwl.iter_closed_walks(graph, n)) == list(
            reference_closed_walks(graph, n)
        )

    def test_matches_the_reference_on_every_small_covering_graph(self):
        for m in range(2, 7):
            for pattern in all_patterns(m):
                graph = pattern_dynamics.markov_graph(pattern)
                for n in range(1, 9):
                    assert list(exact_pwl.iter_closed_walks(graph, n)) == list(
                        reference_closed_walks(graph, n)
                    ), (pattern, n)

    def test_a_long_self_loop_is_one_walk_at_once(self):
        # a quadratic rotation test on this one walk would take seconds
        start = time.perf_counter()
        walks = list(exact_pwl.iter_closed_walks(complete_graph(1), 20_000))
        assert walks == [(1,) * 20_000]
        assert time.perf_counter() - start < 1

    def test_one_enumerator_serves_both_modules(self):
        assert pattern_dynamics.iter_closed_walks is exact_pwl.iter_closed_walks


def reference_minimal_diameter_orbit(f, k):
    """The whole-domain census sorted on Fractions, which the search must match."""
    orbits = periodic_orbits(f, k).orbits
    if not orbits:
        raise NoSuchOrbit(f"no least-period-{k} orbit of the map")
    return min(orbits, key=lambda o: (o.diameter, o.minimum))


#: f^2 is the identity around the 2-cycle {1/3, 2/3}, so the whole-domain
#: census reports a continuum there and lists no orbit inside [1/3, 2/3].
#: Clamped to that interval the cycle is isolated and the clamp has no
#: continuum.
SWAP_AT_THE_EDGES = PwlMap(
    [(0, F(1, 3)), (F(9, 20), F(47, 60)), (F(11, 20), F(13, 60)), (1, F(2, 3))]
)


@st.composite
def diameter_queries(draw):
    """A map and a period.

    Where an iterate of the map has identity laps, the period is sometimes
    that of an orbit inside the continuum.
    """
    kind = draw(st.sampled_from(["tent", "pattern", "identity-laps", "general"]))
    if kind == "tent":
        f, top = TENT, 8
    elif kind == "pattern":
        m, seed = draw(st.integers(3, 7)), draw(st.integers(0, 10**6))
        f, top = connect_the_dots(random_pattern(m, random.Random(seed))), 5
    elif kind == "identity-laps":
        f, top = draw(st.sampled_from(IDENTITY_LAP_MAPS + [SWAP_AT_THE_EDGES])), 6
    else:
        f, top = draw(general_maps()), 4
    fixed = fixed_points_of_iterate(f, draw(st.integers(1, top)))
    if fixed.identity_laps and draw(st.booleans()):
        lap = draw(st.sampled_from(fixed.identity_laps))
        share = draw(st.fractions(0, 1, max_denominator=60))
        return f, orbit_of(f, lap.lo + share * lap.length).period
    return f, draw(st.integers(1, top))


class TestWholeDomainSearch:
    @settings(max_examples=120, deadline=None)
    @given(diameter_queries())
    def test_matches_the_whole_domain_census(self, query):
        f, k = query
        try:
            expected = reference_minimal_diameter_orbit(f, k)
        except NoSuchOrbit:
            with pytest.raises(NoSuchOrbit):
                minimal_diameter_orbit(f, k)
        else:
            assert minimal_diameter_orbit(f, k) == expected

    def test_the_edge_orbit_is_isolated_only_in_the_clamp(self):
        clamped = periodic_orbits(SWAP_AT_THE_EDGES.clamp(F(1, 3), F(2, 3)), 2)
        assert not clamped.continuum
        assert [list(o) for o in clamped] == [[F(1, 3), F(2, 3)]]
        assert is_orbit_of(SWAP_AT_THE_EDGES, clamped[0])
        assert periodic_orbits(SWAP_AT_THE_EDGES, 2).continuum

    def test_kernel_built_and_fraction_built_orbits_agree(self):
        kernel_built = periodic_orbits(TENT, 5)
        fraction_built = reference_census(TENT, 5)  # Orbit(...) on Fractions
        assert len(kernel_built) == len(fraction_built) == 6
        for kernel, fractions in zip(kernel_built, fraction_built):
            assert "points" in vars(fractions) and "points" not in vars(kernel)
            assert kernel == fractions and {kernel: 1}[fractions] == 1
            assert (kernel.minimum, kernel.maximum, kernel.diameter, kernel.hull) == (
                fractions.minimum, fractions.maximum, fractions.diameter, fractions.hull
            )
            assert "points" not in vars(kernel)  # the end pairs sufficed
            assert repr(kernel) == repr(fractions)
            assert all(type(p) is F for p in kernel.points)


def reference_highest_orbit_below(f, k, c):
    """The census's highest-minimum orbit below c, refused beside a continuum."""
    if any(lap.lo < c for lap in fixed_points_of_iterate(f, k).identity_laps):
        raise PreconditionError("an identity lap left of c")
    below = [o for o in periodic_orbits(f, k) if o.minimum < c]
    return max(below, key=lambda o: o.minimum, default=None)


@st.composite
def below_queries(draw):
    """A map, a period and a cut c: anywhere near the domain, or at a solution."""
    f, k = draw(diameter_queries())
    fixed = fixed_points_of_iterate(f, k)
    if fixed.points and draw(st.booleans()):
        return f, k, draw(st.sampled_from(fixed.points))
    dom = f.domain
    share = draw(st.fractions(min_value=F(-1, 4), max_value=F(5, 4), max_denominator=24))
    return f, k, dom.lo + dom.length * share


class TestHighestOrbitBelow:
    @settings(max_examples=200, deadline=None)
    @given(below_queries())
    def test_matches_the_census_oracle(self, query):
        f, k, c = query
        try:
            expected = reference_highest_orbit_below(f, k, c)
        except PreconditionError:
            with pytest.raises(PreconditionError, match="identity on a lap left of"):
                highest_orbit_below(f, k, c)
        else:
            assert highest_orbit_below(f, k, c) == expected

    def test_an_identity_lap_left_of_c_is_refused(self):
        # the swap x -> 1 - x: its square is the identity on [0, 1]
        with pytest.raises(PreconditionError, match="identity on a lap left of 1/2"):
            highest_orbit_below(NEG, 2, F(1, 2))
        assert highest_orbit_below(NEG, 2, 0) is None  # the lap starts at c
        assert highest_orbit_below(NEG, 1, F(1, 2)) is None  # 1/2 is not below 1/2
        assert list(highest_orbit_below(NEG, 1, 1)) == [F(1, 2)]

    def test_an_identity_lap_far_below_the_answer_is_refused(self):
        # f swaps the ends of [0, 1/4], so f^2 is the identity there; the
        # 2-cycle {43/76, 16/19} lies far above it, and the refusal still stands
        f = PwlMap([(0, F(1, 4)), (F(1, 4), 0), (F(5, 8), 1), (1, F(1, 4))])
        census = periodic_orbits(f, 2)
        assert census.continuum == (Interval(0, F(1, 4)),)
        assert list(census[-1]) == [F(43, 76), F(16, 19)]
        with pytest.raises(PreconditionError, match="identity on a lap left of 1"):
            highest_orbit_below(f, 2, 1)
        with pytest.raises(PreconditionError):
            reference_highest_orbit_below(f, 2, 1)

    @pytest.mark.parametrize("k", [0, -3])
    def test_the_order_is_checked_before_composing(self, k, monkeypatch):
        # iterate's own check refuses k < 1; any order it would compose fails here
        real = PwlMap.iterate

        def refuse(f, n):
            if n >= 1:
                raise AssertionError("nothing is composed")
            return real(f, n)

        monkeypatch.setattr(PwlMap, "iterate", refuse)
        with pytest.raises(ValueError, match="iterate order must be >= 1"):
            highest_orbit_below(TENT, k, F(1, 2))


class TestBudgets:
    """A budgets block sets both caps for the work it runs, and for nothing else."""

    def test_threads_keep_their_own_caps(self):
        both = threading.Barrier(2, timeout=60)
        results = {}

        def compose(piece):
            with budgets(piece=piece):
                both.wait()  # both blocks are open before either composes
                results[piece] = result_or_error(TENT.iterate, 8)
                both.wait()  # and neither closes before both have composed

        threads = [threading.Thread(target=compose, args=(piece,)) for piece in (10, 1000)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        assert results[10] == (PieceBudgetExceeded, "composition needs more than 10 breakpoints")
        assert results[1000] == reference_iterate(TENT, 8)  # 257 breakpoints

    def test_asyncio_tasks_keep_their_own_caps(self):
        async def compose(piece):
            with budgets(piece=piece):
                await asyncio.sleep(0)  # the other task opens its block here
                return result_or_error(TENT.iterate, 8)

        async def both():
            return await asyncio.gather(compose(10), compose(1000))

        small, large = asyncio.run(both())
        assert small == (PieceBudgetExceeded, "composition needs more than 10 breakpoints")
        assert large == reference_iterate(TENT, 8)

    def test_the_caps_are_restored_after_a_block_that_raised(self):
        with budgets(piece=10):
            with pytest.raises(WalkBudgetExceeded):
                with budgets(piece=5, walk=1):
                    list(exact_pwl.iter_closed_walks(complete_graph(2), 4))
            with pytest.raises(PieceBudgetExceeded, match="^composition needs more than 10 "):
                TENT.iterate(8)
        with pytest.raises(PieceBudgetExceeded):
            with budgets(piece=10):
                TENT.iterate(8)
        defaults = exact_pwl.DEFAULT_PIECE_BUDGET, exact_pwl.DEFAULT_WALK_BUDGET
        assert exact_pwl._caps.get() == defaults
        assert TENT.iterate(8) == reference_iterate(TENT, 8)

    def test_a_cap_left_out_takes_its_default(self):
        with budgets(piece=10), budgets(walk=1):
            assert TENT.iterate(8) == reference_iterate(TENT, 8)

    def test_a_generator_runs_under_the_caps_where_it_is_advanced(self):
        with budgets(piece=40):
            censuses = periodic_orbits_upto(TENT, 9)
        assert [len(c) for c in censuses] == [len(periodic_orbits(TENT, k)) for k in range(1, 10)]
        censuses = periodic_orbits_upto(TENT, 9)
        with budgets(piece=40):
            assert len(list(itertools.islice(censuses, 5))) == 5  # tent^5 has 33
            with pytest.raises(PieceBudgetExceeded, match="^composition needs more than 40 "):
                next(censuses)

    def test_closed_walks_raise_at_walk_cap_plus_one(self):
        graph = complete_graph(2)
        every = list(exact_pwl.iter_closed_walks(graph, 4))  # the 6 binary necklaces
        with budgets(walk=len(every)):
            assert list(exact_pwl.iter_closed_walks(graph, 4)) == every
        walks = exact_pwl.iter_closed_walks(graph, 4)
        with budgets(walk=5):
            assert list(itertools.islice(walks, 5)) == every[:5]
            with pytest.raises(WalkBudgetExceeded, match="^more than 5 closed walks of length 4$"):
                next(walks)
