"""Combinatorial patterns of periodic orbits and their covering graphs.

A pattern is the cyclic permutation induced by a periodic orbit on its
points ordered spatially.  Its canonical realization is the
connect-the-dots interpolant on equally spaced points, whose consecutive
point intervals form the nodes of a directed covering graph; closed walks
of that graph are interval cycles, and each interval cycle forces a
periodic point.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import CertificationFailed, InvalidPattern, NotAWalk, UnsupportedPeriod
from .exact_pwl import (
    Interval,
    IntervalLoop,
    MarkovGraph,
    PwlMap,
    connect_the_dots_points,
    follow_cycle,
    iter_closed_walks,
    periodic_orbits_upto,
    primitive_walk_counts,
)


@dataclass(frozen=True)
class CyclicPattern:
    """A single m-cycle on spatial ranks 1..m, as the one-line map i -> sigma(i)."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        mapping = tuple(self.mapping)
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in mapping):
            raise InvalidPattern(f"{list(mapping)} has an entry that is not an integer")
        m = len(mapping)
        if m < 2:
            raise InvalidPattern("a pattern needs at least two points")
        if sorted(mapping) != list(range(1, m + 1)):
            raise InvalidPattern(f"{mapping} is not a permutation of 1..{m}")
        seen = set()
        cur = 1
        while cur not in seen:
            seen.add(cur)
            cur = mapping[cur - 1]
        if len(seen) != m:
            raise InvalidPattern(f"{mapping} is not a single {m}-cycle")
        object.__setattr__(self, "mapping", mapping)

    @property
    def size(self) -> int:
        return len(self.mapping)

    def image(self, i: int) -> int:
        return self.mapping[i - 1]

    def mirror(self) -> "CyclicPattern":
        """The spatially reflected pattern."""
        m = self.size
        return CyclicPattern(
            tuple(m + 1 - self.mapping[m - i] for i in range(1, m + 1))
        )

    def cycle_string(self) -> str:
        """One-line cycle notation starting from rank 1, e.g. '1>3>2'."""
        parts = [1]
        cur = self.image(1)
        while cur != 1:
            parts.append(cur)
            cur = self.image(cur)
        return ">".join(str(p) for p in parts)

    @classmethod
    def from_ranks(cls, ranks: Sequence[int]) -> "CyclicPattern":
        """The pattern visiting the ranks in the listed order: each maps to the next, wrapping."""
        ranks = list(ranks)
        m = len(ranks)
        if sorted(ranks) != list(range(1, m + 1)):
            raise InvalidPattern(f"{ranks} must list each of 1..{m} exactly once")
        mapping = [0] * m
        for a, b in zip(ranks, ranks[1:] + ranks[:1]):
            mapping[a - 1] = b
        return cls(tuple(mapping))

    @classmethod
    def from_cycle_string(cls, text: str) -> "CyclicPattern":
        """Parse '1>3>2' style notation: each rank maps to the next, wrapping."""
        try:
            ranks = [int(tok) for tok in text.split(">")]
        except ValueError as exc:
            raise InvalidPattern(f"cannot parse cycle notation {text!r}") from exc
        return cls.from_ranks(ranks)

    def __str__(self) -> str:
        return self.cycle_string()


def all_patterns(m: int) -> Iterator[CyclicPattern]:
    """Every cyclic pattern on m points ((m-1)! of them), deterministic order."""
    for rest in itertools.permutations(range(2, m + 1)):
        yield CyclicPattern.from_ranks((1,) + rest)


def random_pattern(m: int, rng: random.Random) -> CyclicPattern:
    return CyclicPattern.from_ranks([1] + rng.sample(range(2, m + 1), m - 1))


def connect_the_dots(pattern: CyclicPattern) -> PwlMap:
    """The canonical realization on equally spaced points (i-1)/(m-1).

    Its breakpoint set is a periodic orbit whose spatial type is the
    pattern itself.
    """
    m = pattern.size
    xs = connect_the_dots_points(m)
    return PwlMap([(xs[i - 1], xs[pattern.image(i) - 1]) for i in range(1, m + 1)])


def markov_graph(pattern: CyclicPattern) -> MarkovGraph:
    """Edge (i, j) exactly when the i-th interval's image spans the j-th.

    markov_partition(connect_the_dots(pattern)), read off the ranks.
    """
    return MarkovGraph.from_images([r - 1 for r in pattern.mapping])


def _node_intervals(pattern: CyclicPattern) -> tuple[Interval, ...]:
    """The realization's m - 1 consecutive-point intervals, node i at index i - 1."""
    xs = connect_the_dots_points(pattern.size)
    return tuple(Interval(a, b) for a, b in zip(xs, xs[1:]))


def loop_to_intervals(pattern: CyclicPattern, walk: tuple[int, ...]) -> IntervalLoop:
    """Relabel a closed walk as the interval cycle of the realization."""
    graph = markov_graph(pattern)
    if not walk:
        raise NotAWalk("empty walk")
    for node in walk:
        if not (1 <= node <= graph.node_count):
            raise NotAWalk(f"node {node} outside 1..{graph.node_count}")
    for a, b in zip(walk, walk[1:] + walk[:1]):
        if not graph.has_edge(a, b):
            raise NotAWalk(f"missing edge {a} -> {b}")
    nodes = _node_intervals(pattern)
    return IntervalLoop(tuple(nodes[node - 1] for node in walk))


def _realized_by_walks(pattern: CyclicPattern, upto: int) -> set[int]:
    f = connect_the_dots(pattern)
    graph = markov_graph(pattern)
    nodes = _node_intervals(pattern)
    realized = set()
    # node i is a lap onto the nodes between its end images, so every walk
    # is a cycle of coverings; follow_cycle certifies each point it returns
    for k in range(1, upto + 1):
        if k == pattern.size:  # the pattern's own orbit
            realized.add(k)
            continue
        for walk in iter_closed_walks(graph, k):
            loop = IntervalLoop(tuple(nodes[node - 1] for node in walk))
            if follow_cycle(f, loop, True) is not None:
                realized.add(k)
                break
    return realized


def realized_periods(pattern: CyclicPattern, upto: int, method: str = "auto") -> set[int]:
    """Least periods k <= upto realized by the pattern's canonical realization.

    Three independent routes answer it: "auto" counts primitive closed
    walks from the traces of the covering graph's adjacency matrix A, the
    "matrix" route; "direct" enumerates the periodic points of each
    iterate, composing each once; "walks" searches closed walks of the
    covering graph and certifies a least-period witness along each.  The
    matrix route composes no map and enumerates no walk; the walk cap
    bounds its additions.  "both" runs all three and raises
    CertificationFailed, naming the period and each route's answer,
    unless they agree.

    The matrix route realizes k when a primitive closed walk of length k
    exists or k is the pattern's size m (the swap (2, 1) has no primitive
    walk of length 2).  This is exact.  Each node is a lap of integer slope
    onto whole nodes, so on the chain start of a primitive walk f^k is
    affine onto the walk's first node, with slope P the product of the
    slopes.  If P != 1, f^k has one fixed point there.  Its itinerary is the
    walk, so it has least period k, unless it is a point of the pattern,
    whose itinerary repeats after m steps (the end points have one side
    only), and then k = m.  If P == 1, every slope is +-1, the walk's nodes
    are distinct and f^k is the identity on the first node, whose interior
    points have least period k: the identity lap the direct census flags as
    continuum.  Conversely, a point of least period k off the pattern
    follows one itinerary, of least period d | k, and d < k only if f^d
    reverses the first node onto itself.  Then the d distinct nodes' ends
    hold every pattern point and f^d swaps two of them, so k = 2d = m.
    """
    if method not in {"auto", "direct", "walks", "both"}:
        raise ValueError(f"unknown method {method!r}")
    if upto < 1:
        raise ValueError("period bound must be >= 1")
    periods = range(1, upto + 1)
    answers = {}
    if method in {"auto", "both"}:
        prim = primitive_walk_counts(markov_graph(pattern), upto)
        answers["matrix"] = {k for k in periods if prim[k] > 0 or k == pattern.size}
    if method in {"direct", "both"}:
        censuses = periodic_orbits_upto(connect_the_dots(pattern), upto)
        answers["direct"] = {
            k for k, c in zip(periods, censuses) if c.orbits or c.continuum
        }
    if method in {"walks", "both"}:
        answers["walks"] = _realized_by_walks(pattern, upto)
    realized, *others = answers.values()
    for k in periods:
        if any((k in other) != (k in realized) for other in others):
            votes = " ".join(f"{name}={k in got}" for name, got in answers.items())
            raise CertificationFailed(
                f"spectrum routes disagree at period {k} for {pattern}: {votes}"
            )
    return realized


def stefan_pattern(m: int) -> CyclicPattern:
    """The canonical odd-period spiral, center point moving right first.

    Starting from the middle rank c, successive images alternate sides of
    c at strictly increasing distance: c, c+1, c-1, c+2, c-2, ...
    """
    if m < 3 or m % 2 == 0:
        raise UnsupportedPeriod(f"need an odd period >= 3, got {m}")
    c = (m + 1) // 2
    order = [c]
    for step in range(1, c):
        order.append(c + step)
        order.append(c - step)
    return CyclicPattern.from_ranks(order)


def is_stefan_pattern(pattern: CyclicPattern) -> bool:
    """True for the two mirror spirals of the pattern's (odd) period."""
    spiral = stefan_pattern(pattern.size)
    return pattern in (spiral, spiral.mirror())
