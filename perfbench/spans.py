"""Spans around the package's public functions, recorded from outside.

Nothing under ``src/`` knows it is traced.  :func:`install` replaces each
traced function at every import binding in the loaded ``sharkovsky_lab``
modules (``tent_constructions``, ``pattern_dynamics``, ``witnesses`` and
``cli`` each re-bind names from ``exact_pwl``) and each traced method on
its class.  A span is (name, start, end, parent, query); spans stay in
flat arrays in memory and are written out once, after the run.

A span's self time is its duration minus the durations of its direct
children.  Private helpers (``_compose``, ``_fixed_structure``, ...) and
public functions that are not traced have no span of their own, so their
time is self time of the nearest traced caller; time outside every
library span is self time of the per-query ``cli.run`` span.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable

ROOT_SPAN = "cli.run"

#: (module, attribute, span name).  A dotted attribute is a method.
TRACED = (
    ("exact_pwl", "PwlMap.__call__", "exact_pwl.eval"),
    ("exact_pwl", "PwlMap.iterate", "exact_pwl.iterate"),
    ("exact_pwl", "PwlMap.preimage_branches", "exact_pwl.preimage_branches"),
    ("exact_pwl", "PwlMap.clamp", "exact_pwl.clamp"),
    ("exact_pwl", "fixed_points_of_iterate", "exact_pwl.fixed_points_of_iterate"),
    ("exact_pwl", "periodic_orbits", "exact_pwl.periodic_orbits"),
    ("exact_pwl", "point_of_least_period_in_lap", "exact_pwl.point_of_least_period_in_lap"),
    ("exact_pwl", "least_period", "exact_pwl.least_period"),
    ("exact_pwl", "orbit_of", "exact_pwl.orbit_of"),
    ("exact_pwl", "is_orbit_of", "exact_pwl.is_orbit_of"),
    ("pattern_dynamics", "connect_the_dots", "pattern_dynamics.connect_the_dots"),
    ("pattern_dynamics", "markov_graph", "pattern_dynamics.markov_graph"),
    ("pattern_dynamics", "iter_closed_walks", "pattern_dynamics.iter_closed_walks"),
    ("pattern_dynamics", "realized_periods", "pattern_dynamics.realized_periods"),
    ("witnesses", "periodic_point_from_cycle", "witnesses.periodic_point_from_cycle"),
    ("witnesses", "odd_period_witness", "witnesses.odd_period_witness"),
    ("witnesses", "analyze_odd_orbit", "witnesses.analyze_odd_orbit"),
    ("witnesses", "forcing_cycle", "witnesses.forcing_cycle"),
    ("witnesses", "period_two_from_orbit", "witnesses.period_two_from_orbit"),
    ("witnesses", "period_two_from_crossing", "witnesses.period_two_from_crossing"),
    ("tent_constructions", "minimal_diameter_orbit", "tent_constructions.minimal_diameter_orbit"),
    ("tent_constructions", "truncate_at_orbit", "tent_constructions.truncate_at_orbit"),
    ("tent_constructions", "period_spectrum", "tent_constructions.period_spectrum"),
    ("tent_constructions", "doubling_chain", "tent_constructions.doubling_chain"),
    ("tent_constructions", "t_infinity_level", "tent_constructions.t_infinity_level"),
)
GENERATORS = {"pattern_dynamics.iter_closed_walks"}
LAYERS = ("exact_pwl", "pattern_dynamics", "witnesses", "tent_constructions")


class Tracer:
    """Flat span arrays plus work counters read from return values."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.active: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.query_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
        return self._ids[name]

    def is_active(self, name: str) -> bool:
        """True while a span of this name is open."""
        return name in self._ids and self.active[self._ids[name]] > 0

    def open(self, nid: int) -> int:
        i = len(self.end)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.query.append(self.query_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.active[nid] += 1
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self.stack.pop()
        self.active[self.name[i]] -= 1

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and span count per span name."""
        self_s: dict[str, float] = defaultdict(float)
        count: dict[str, int] = defaultdict(int)
        for i, s in enumerate(self_times(self.parent, self.start, self.end)):
            name = self.names[self.name[i]]
            self_s[name] += s
            count[name] += 1
        return self_s, count

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tquery\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.end)):
                out.write(
                    f"{i}\t{self.query[i]}\t{self.parent[i]}\t"
                    f"{self.names[self.name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\n"
                )


def self_times(parent, start, end) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Spans are stored in the order they opened, so a parent always comes
    before its children.
    """
    child = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    return [end[i] - start[i] - child[i] for i in range(len(start))]


# ---------------------------------------------------------------------------
# counters read from the public functions' arguments and return values
# ---------------------------------------------------------------------------


def _on_iterate(t: Tracer, args, kwargs, result) -> None:
    pieces = len(result.breakpoints)
    t.counters["exact_pwl.iterate.total_pieces"] += pieces
    key = "exact_pwl.iterate.peak_pieces"
    t.counters[key] = max(t.counters[key], pieces)
    if t.is_active("tent_constructions.period_spectrum"):
        n = args[1] if len(args) > 1 else kwargs["n"]
        t.counters["tent_constructions.period_spectrum.iterate_order_sum"] += n


def _on_fixed_points(t: Tracer, args, kwargs, result) -> None:
    t.counters["exact_pwl.fixed_points_of_iterate.points"] += len(result.points)


def _on_periodic_orbits(t: Tracer, args, kwargs, result) -> None:
    t.counters["exact_pwl.periodic_orbits.orbits"] += len(result.orbits)


def _on_branches(t: Tracer, args, kwargs, result) -> None:
    t.counters["exact_pwl.preimage_branches.branches"] += len(result)


def _on_cycle_witness(t: Tracer, args, kwargs, result) -> None:
    # realized_periods tries each walk it draws with one call, and a return
    # (rather than NoLeastPeriodWitness) certifies the walk
    if t.is_active("pattern_dynamics.realized_periods"):
        t.counters["pattern_dynamics.walks.certified"] += 1


ON_RETURN = {
    "exact_pwl.iterate": _on_iterate,
    "exact_pwl.fixed_points_of_iterate": _on_fixed_points,
    "exact_pwl.periodic_orbits": _on_periodic_orbits,
    "exact_pwl.preimage_branches": _on_branches,
    "witnesses.periodic_point_from_cycle": _on_cycle_witness,
}


def _wrap(t: Tracer, fn, name: str):
    nid = t.name_id(name)
    on_return = ON_RETURN.get(name)

    if name in GENERATORS:
        def traced_gen(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                i = t.open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    t.close(i)
                t.counters[name + ".yielded"] += 1
                yield item

        return traced_gen

    def traced(*args, **kwargs):
        i = t.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            t.close(i)
        if on_return is not None:
            on_return(t, args, kwargs, result)
        return result

    return traced


def install(t: Tracer) -> Callable[[], None]:
    """Trace every function in :data:`TRACED`; returns a function that undoes it."""
    undo = []
    package = [
        m for name, m in list(sys.modules.items())
        if name == "sharkovsky_lab" or name.startswith("sharkovsky_lab.")
    ]
    for module_name, attr, span in TRACED:
        module = importlib.import_module(f"sharkovsky_lab.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, _wrap(t, original, span))
            undo.append((cls, meth, original))
            continue
        original = getattr(module, attr)
        wrapper = _wrap(t, original, span)
        for m in package:
            for binding, value in list(vars(m).items()):
                if value is original:
                    setattr(m, binding, wrapper)
                    undo.append((m, binding, original))

    def uninstall() -> None:
        for owner, binding, original in reversed(undo):
            setattr(owner, binding, original)

    return uninstall
