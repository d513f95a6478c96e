"""Output checks that do not trust the library.

The benchmark carries its own Sharkovsky-order predicate, its own tent
and connect-the-dots evaluators and its own pattern parser, and checks
each answer against the mathematics rather than against the library:

* a ``tent pk k`` orbit is closed under the tent map with least period k;
* a ``tent truncate k`` spectrum realizes exactly the forcing tail of k,
  and its map is the tent map clamped at the bounds;
* each ``tent chain`` level is a tent orbit of period 3 * 2^j, the hulls
  nest strictly, and the clamp bounds are the deepest hull;
* a witness has exactly its stated least period under the pattern's
  connect-the-dots map, and its orbit is the listed one;
* a pattern spectrum contains 1 and the pattern's own period, and is
  closed under forcing (Sharkovsky's theorem);
* every query exits 0 with nothing on stderr, and for the default seed
  its stdout matches the digest recorded at the commit that defined the
  benchmark, which enforces byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from workloads import cycle_string, parse_pattern

GLOBAL_FLAGS = ("--piece-budget", "--walk-budget")
BOOLEAN_FLAGS = ("--json",)


# ---------------------------------------------------------------------------
# the order and the maps, written independently of the library
# ---------------------------------------------------------------------------


def _key(n: int) -> tuple[int, int, int]:
    two = 0
    while n % 2 == 0:
        n //= 2
        two += 1
    return (0, two, n) if n > 1 else (1, -two, 0)


def forces(m: int, n: int) -> bool:
    """A period-m orbit forces period n: m = n or m precedes n."""
    return m == n or _key(m) < _key(n)


def forcing_tail(m: int, upto: int) -> set[int]:
    return {n for n in range(1, upto + 1) if forces(m, n)}


def tent(x: Fraction) -> Fraction:
    return 2 * x if x <= Fraction(1, 2) else 2 - 2 * x


def connect_the_dots(mapping: tuple[int, ...]):
    """x -> the linear interpolant through ((i-1)/(m-1), (sigma(i)-1)/(m-1))."""
    m = len(mapping)

    def f(x: Fraction) -> Fraction:
        if not 0 <= x <= 1:
            raise ValueError(f"{x} outside [0, 1]")
        s = x * (m - 1)
        j = min(int(s), m - 2)  # floor, since s >= 0
        t = s - j
        return ((1 - t) * (mapping[j] - 1) + t * (mapping[j + 1] - 1)) / (m - 1)

    return f


def least_period(f, y: Fraction, limit: int) -> int:
    """The least n <= limit with f^n(y) = y, or 0 when there is none."""
    cur = y
    for n in range(1, limit + 1):
        cur = f(cur)
        if cur == y:
            return n
    return 0


def _orbit_problems(f, points: list[Fraction], period: int, what: str) -> list[str]:
    if len(set(points)) != period or points != sorted(points):
        return [f"{what}: expected {period} distinct ascending points"]
    y = points[0]
    if least_period(f, y, period) != period:
        return [f"{what}: {y} does not have least period {period}"]
    trajectory = [y]
    for _ in range(period - 1):
        trajectory.append(f(trajectory[-1]))
    if sorted(trajectory) != points:
        return [f"{what}: listed points are not the orbit of {y}"]
    return []


def _fractions(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


def _clamp_problems(breakpoints, lo: Fraction, hi: Fraction) -> list[str]:
    for x, y in breakpoints:
        x, y = Fraction(x), Fraction(y)
        if y != min(max(tent(x), lo), hi):
            return [f"clamped map is wrong at x = {x}"]
    return []


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------


def _split(argv: list[str]) -> tuple[list[str], dict[str, object]]:
    """Positionals and options of an argument list, global budgets dropped."""
    positional: list[str] = []
    options: dict[str, object] = {}
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in BOOLEAN_FLAGS:
            options[tok] = True
            i += 1
        elif tok.startswith("--"):
            if tok not in GLOBAL_FLAGS:
                options[tok] = argv[i + 1]
            i += 2
        else:
            positional.append(tok)
            i += 1
    return positional, options


def _check_pk(k: int, out: dict) -> list[str]:
    if out.get("k") != k:
        return ["wrong k"]
    points = _fractions(out["orbit"])
    problems = _orbit_problems(tent, points, k, f"pk {k} orbit")
    if not problems and Fraction(out["diameter"]) != points[-1] - points[0]:
        problems.append("diameter is not max - min")
    return problems


def _check_truncate(k: int, upto: int, stdout: str, fmt: str) -> list[str]:
    if fmt == "csv":
        lines = stdout.splitlines()
        if lines[0] != "period,orbit_count,continuum":
            return ["bad CSV header"]
        rows = []
        for line in lines[1:]:
            period, count, continuum = line.split(",")
            rows.append((int(period), int(count), continuum == "true"))
        problems = []
    else:
        out = json.loads(stdout)
        rows = [(e["period"], e["orbit_count"], e["continuum"]) for e in out["spectrum"]]
        lo, hi = _fractions(out["bounds"])
        problems = _clamp_problems(out["map"]["breakpoints"], lo, hi)
        if least_period(tent, lo, k) != k or least_period(tent, hi, k) != k:
            problems.append(f"bounds are not points of least period {k}")
    if [r[0] for r in rows] != list(range(1, upto + 1)):
        problems.append("spectrum rows are not periods 1..J")
    realized = {p for p, count, continuum in rows if count > 0 or continuum}
    if realized != forcing_tail(k, upto):
        problems.append(f"spectrum {sorted(realized)} is not the forcing tail of {k}")
    return problems


def _check_chain(levels: int, out: dict) -> list[str]:
    if len(out["levels"]) != levels + 1:
        return ["wrong number of levels"]
    problems = []
    orbits = [_fractions(o) for o in out["levels"]]
    for j, points in enumerate(orbits):
        problems += _orbit_problems(tent, points, 3 << j, f"chain level {j}")
    for outer, inner in zip(orbits, orbits[1:]):
        if not (outer[0] < inner[0] and inner[-1] < outer[-1]):
            problems.append("hulls do not nest strictly")
    q0, q1 = Fraction(out["q0"]), Fraction(out["q1"])
    if (q0, q1) != (orbits[-1][0], orbits[-1][-1]):
        problems.append("clamp bounds are not the deepest hull")
    return problems + _clamp_problems(out["clamped_map"]["breakpoints"], q0, q1)


def _check_witness(kind: str, options: dict, out: dict) -> list[str]:
    mapping = parse_pattern(options["--pattern"])
    if out.get("pattern") != cycle_string(mapping):
        return ["pattern echoed wrongly"]
    f = connect_the_dots(mapping)
    period = 2 if kind == "period2" else int(options["--period"])
    if kind == "odd" and out.get("period") != period:
        return ["period echoed wrongly"]
    w = Fraction(out["witness"])
    points = _fractions(out["orbit"])
    if w not in points:
        return ["witness is not on the listed orbit"]
    return _orbit_problems(f, points, period, f"period-{period} witness")


def _check_spectrum(options: dict, out: dict) -> list[str]:
    mapping = parse_pattern(options["--pattern"])
    upto = int(options["--upto"])
    realized = set(out["realized"])
    problems = []
    if out.get("pattern") != cycle_string(mapping) or out.get("upto") != upto:
        problems.append("query echoed wrongly")
    if out.get("method") != options.get("--method", "auto"):
        problems.append("method echoed wrongly")
    if not realized <= set(range(1, upto + 1)):
        problems.append("periods outside 1..upto")
    # every continuous map has a fixed point; the pattern's orbit is realized
    must = forcing_tail(len(mapping), upto) | {1}
    for k in realized:
        must |= forcing_tail(k, upto)
    if not must <= realized:
        problems.append(f"spectrum misses forced periods {sorted(must - realized)}")
    return problems


def check_output(argv: list[str], stdout: str) -> list[str]:
    """Problems with one query's stdout; an empty list when it is right."""
    pos, options = _split(argv)
    try:
        if pos[:2] == ["tent", "pk"]:
            return _check_pk(int(pos[2]), json.loads(stdout))
        if pos[:2] == ["tent", "truncate"]:
            return _check_truncate(
                int(pos[2]), int(options["--spectrum"]), stdout,
                options.get("--format", "json"),
            )
        if pos[:2] == ["tent", "chain"]:
            return _check_chain(int(options["--levels"]), json.loads(stdout))
        if pos[0] == "witness" and "--json" in options:
            return _check_witness(pos[1], options, json.loads(stdout))
        if pos[0] == "spectrum":
            return _check_spectrum(options, json.loads(stdout))
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return [f"unreadable output: {exc!r}"]
    return ["no check exists for this query"]


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


def digest_key(argv: list[str]) -> str:
    return json.dumps(argv)


def check_query(argv: list[str], rc: int, stdout: str, stderr: str,
                recorded: dict[str, str] | None) -> list[str]:
    """All problems with one query's answer.

    ``recorded`` maps queries to stdout digests; pass it only for the seed
    the digests were recorded with.
    """
    if rc != 0:
        return [f"exit code {rc}: {stderr.strip()[-200:]}"]
    problems = [] if stderr == "" else ["unexpected stderr output"]
    if recorded is not None:
        expected = recorded.get(digest_key(argv))
        if expected is None:
            problems.append("no recorded digest for this query")
        elif expected != digest(stdout):
            problems.append("stdout differs from the recorded digest")
    return problems + check_output(argv, stdout)
