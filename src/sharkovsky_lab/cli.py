"""Command-line surface with machine-readable output.

Every command is deterministic given its arguments: identical invocations
produce byte-identical output.  JSON objects carry a top-level
``"schema": "sharkovsky-lab/1"`` and all rationals appear as "p/q"
strings.  Exit codes: 0 on success, 2 on usage or precondition errors,
3 when an exact enumeration exceeds its budget (the message names the
budget).  A failure writes one line to stderr and nothing to stdout.  The
console script exits 1, writing nothing to stderr, when stdout closes early
(``sharkovsky forced 3 --upto 500000 | head``).

Budgets come from ``--piece-budget`` / ``--walk-budget``, with environment
overrides SHARKOVSKY_PIECE_BUDGET and SHARKOVSKY_WALK_BUDGET.  Either way a
budget must be a positive integer; anything else is a usage error.  One
``with budgets(...)`` block (see :func:`exact_pwl.budgets`) sets both caps
around the command, so no library call is handed a budget.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import NoReturn, Optional, Sequence

from . import pattern_dynamics as patterns
from . import tent_constructions as tent
from . import witnesses
from .errors import BudgetError, InvalidPattern, PreconditionError, SharkovskyLabError
from .exact_pwl import (
    DEFAULT_PIECE_BUDGET,
    DEFAULT_WALK_BUDGET,
    Orbit,
    budgets,
    connect_the_dots_points,
    orbit_of,
    require_listable,
)
from .serialize import SCHEMA, to_wire
from .sharkovsky_order import forced_periods_upto, sharkovsky_compare

SPECTRUM_CSV_COLUMNS = ",".join(field.name for field in dataclasses.fields(tent.SpectrumEntry))


def _emit_json(obj: dict) -> None:
    payload = {"schema": SCHEMA}
    payload.update(obj)
    print(json.dumps(payload, sort_keys=True, separators=(", ", ": ")))


def _parse_pattern(text: str) -> patterns.CyclicPattern:
    text = text.strip()
    if text.startswith("["):
        # a one-line pattern is a flat list, so any inner bracket is refused
        # here: where json.loads meets a deep one differs between Pythons
        if "[" in text[1:] or "{" in text:
            raise InvalidPattern("the pattern's JSON nests too deeply")
        return patterns.CyclicPattern(tuple(json.loads(text)))
    return patterns.CyclicPattern.from_cycle_string(text)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _cmd_compare(args) -> None:
    order = sharkovsky_compare(args.m, args.n)
    _emit_json({"m": args.m, "n": args.n, "order": order.value})


def _cmd_forced(args) -> None:
    require_listable(args.upto, "periods")
    _emit_json(
        {
            "m": args.m,
            "upto": args.upto,
            "periods": forced_periods_upto(args.m, args.upto),
        }
    )


def _cmd_pattern(args) -> None:
    if args.action == "graph":
        pattern = _parse_pattern(args.pattern)
        graph = patterns.markov_graph(pattern)
        if args.dot:
            print(graph.to_dot())
        else:
            _emit_json(
                {
                    "pattern": pattern.cycle_string(),
                    "nodes": graph.node_count,
                    "edges": sorted([i, j] for i, j in graph.edges),
                }
            )
    else:  # stefan
        require_listable(args.m, "points")
        pattern = patterns.stefan_pattern(args.m)
        _emit_json(
            {
                "pattern": pattern.cycle_string(),
                "one_line": list(pattern.mapping),
            }
        )


def _cmd_witness(args) -> None:
    pattern = _parse_pattern(args.pattern)
    f = patterns.connect_the_dots(pattern)
    realization = Orbit(connect_the_dots_points(pattern.size))
    if args.kind == "period2":
        if args.period is not None:
            raise PreconditionError("--period applies only to 'witness odd'")
        w = witnesses.period_two_from_orbit(f, realization)
        period, point, payload = 2, w.point, to_wire(w, {"point"})
    else:  # odd
        if args.period is None:
            raise PreconditionError("--period is required for 'witness odd'")
        # the orbit lists period points, and the certificate walks as many steps
        require_listable(args.period, "orbit points")
        period, trace = args.period, witnesses.analyze_odd_orbit(f, realization)
        point = witnesses.witness_from_trace(f, trace, period)
        payload = {"period": period, **to_wire(trace, {"map", "orbit"})}
    payload.update(pattern=pattern.cycle_string(), witness=to_wire(point))
    if args.json:
        # the period is certified, so the walk returns within that many steps
        payload["orbit"] = to_wire(orbit_of(f, point, max_steps=period))
        _emit_json(payload)
    else:
        print(f"least period {period} point: {payload['witness']}")


def _cmd_tent(args) -> None:
    if args.action == "truncate":
        require_listable(args.spectrum, "periods")
    base = tent.tent_map()
    if args.action in ("pk", "truncate"):
        orbit = tent.narrowest_tent_orbit(base, args.k)
    if args.action == "pk":
        _emit_json({"k": args.k, "orbit": to_wire(orbit), "diameter": to_wire(orbit.diameter)})
    elif args.action == "truncate":
        truncated = tent.truncate_at_orbit(base, orbit)
        entries = tent.period_spectrum(truncated.map, args.spectrum)
        if args.format == "csv":
            # the values are ints and bools: one JSON table, cut at "],[" into rows
            table = json.dumps([list(e.values()) for e in to_wire(entries)], separators=(",", ":"))
            print(SPECTRUM_CSV_COLUMNS, table[2:-2].replace("],[", "\n"), sep="\n")
        else:
            wire = to_wire(truncated, {"base", "anchor_orbit"})
            _emit_json({"k": args.k, **wire, "spectrum": to_wire(entries)})
    else:  # chain
        chain = tent.doubling_chain(args.levels)
        clamped = to_wire(tent.t_infinity_level(chain))
        _emit_json({**to_wire(chain, {"base"}), "clamped_map": clamped})


def _cmd_spectrum(args) -> None:
    pattern = _parse_pattern(args.pattern)
    realized = patterns.realized_periods(pattern, args.upto, method=args.method)
    _emit_json(
        {
            "pattern": pattern.cycle_string(),
            "upto": args.upto,
            "method": args.method,
            "realized": sorted(realized),
        }
    )


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are one stderr line, exit 2."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {' '.join(message.splitlines())}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sharkovsky",
        description="Exact dynamics of piecewise-linear interval maps.",
    )
    # None means "not given": _parse reads the environment at parse time
    parser.add_argument(
        "--piece-budget",
        type=_positive_int,
        default=None,
        help="cap on breakpoints of composed maps (env SHARKOVSKY_PIECE_BUDGET)",
    )
    parser.add_argument(
        "--walk-budget",
        type=_positive_int,
        default=None,
        help="cap on enumerated closed walks, on the walk-count "
        "additions of spectrum's default route and of truncation "
        "spectra, and on the items that 'forced --upto', 'pattern stefan', "
        "'witness odd --period' and 'tent truncate --spectrum' list "
        "(env SHARKOVSKY_WALK_BUDGET)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", help="compare two periods in the forcing order")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("forced", help="periods forced by m, up to a bound")
    p.add_argument("m", type=int)
    p.add_argument("--upto", type=int, required=True)
    p.set_defaults(func=_cmd_forced)

    p = sub.add_parser("pattern", help="covering graphs and canonical spirals")
    psub = p.add_subparsers(dest="action", required=True)
    g = psub.add_parser("graph", help="covering graph of a pattern")
    g.add_argument("pattern", help="cycle notation '1>3>2' or JSON one-line list")
    g.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    s = psub.add_parser("stefan", help="the canonical odd-period spiral")
    s.add_argument("m", type=int)
    p.set_defaults(func=_cmd_pattern)

    p = sub.add_parser("witness", help="certified periodic-point witnesses")
    p.add_argument("kind", choices=["period2", "odd"])
    p.add_argument("--pattern", required=True)
    p.add_argument("--period", type=int, default=None)
    p.add_argument("--json", action="store_true", help="emit the full trace")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("tent", help="tent-map orbits, truncations, chains")
    tsub = p.add_subparsers(dest="action", required=True)
    pk = tsub.add_parser("pk", help="minimal-diameter period-k orbit")
    pk.add_argument("k", type=int)
    tr = tsub.add_parser("truncate", help="clamp at the period-k orbit hull")
    tr.add_argument("k", type=int)
    tr.add_argument("--spectrum", type=_positive_int, required=True, metavar="J",
                    help="report orbit counts for periods up to J")
    tr.add_argument("--format", choices=["json", "csv"], default="json",
                    help=f"csv columns: {SPECTRUM_CSV_COLUMNS}")
    ch = tsub.add_parser("chain", help="nested doubling orbits and clamp bounds")
    ch.add_argument("--levels", type=int, required=True)
    ch.add_argument("--json", action="store_true", help="JSON output (the default)")
    p.set_defaults(func=_cmd_tent)

    p = sub.add_parser("spectrum", help="realized least periods of a pattern")
    p.add_argument("--pattern", required=True)
    p.add_argument("--upto", type=_positive_int, required=True)
    p.add_argument(
        "--method",
        choices=["auto", "direct", "walks", "both"],
        default="auto",
        help="auto counts primitive closed walks from adjacency-matrix "
        "traces; direct composes iterates, walks enumerates closed walks; "
        "both runs all three and checks they agree",
    )
    p.set_defaults(func=_cmd_spectrum)
    return parser


#: (attribute, environment variable, default) for each budget flag
_BUDGETS = (
    ("piece_budget", "SHARKOVSKY_PIECE_BUDGET", DEFAULT_PIECE_BUDGET),
    ("walk_budget", "SHARKOVSKY_WALK_BUDGET", DEFAULT_WALK_BUDGET),
)

_parser: Optional[argparse.ArgumentParser] = None


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """Parse with the process's one parser; unset budgets come from the environment."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    for attr, env, default in _BUDGETS:
        if getattr(args, attr) is None:
            text = os.environ.get(env)
            try:
                setattr(args, attr, default if text is None else _positive_int(text))
            except argparse.ArgumentTypeError as exc:
                _parser.error(f"{env}: {exc}")
    return args


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        with budgets(args.piece_budget, args.walk_budget):
            args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (SharkovskyLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader went away: point stdout at devnull so the flush at exit
        # cannot raise again, and exit 1 without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
