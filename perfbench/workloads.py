"""Seeded query lists for the three workloads.

A query is a CLI argument list for ``sharkovsky_lab.cli.run``.  A run is
PASSES passes, each answering its own list in a fresh worker process.
The same workload, seed and pass always give the same list, and no list
holds a query twice.  The seed changes which inputs are asked for, never
how much work a list holds: it picks orientations, notations, output
formats and redundant flags for the fixed expensive queries, and draws
the many small witness-sweep queries in fixed per-kind quotas.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("tent-census", "pattern-spectrum", "witness-sweep")
PASSES = 2

#: The named pattern of the roadmap's end-to-end case: its eighth iterate
#: has 30,701 breakpoints with denominators up to 6^8.
NAMED_PATTERN = "1>3>4>2>5>7>6"

#: Generic patterns for ``spectrum --upto 8``, each about 0.3-0.5 s on a
#: 2-core 2.1 GHz machine.  Eight of them put the median latency inside a
#: group of similar queries.  The seed picks each one's orientation: a
#: pattern and its mirror have conjugate realizations, hence the same
#: breakpoint counts and denominators, so the list's cost does not move
#: with the seed.
SPECTRUM_PATTERNS = (
    "1>3>4>5>2>6", "1>6>2>5>4>3",
    "1>2>6>4>5>3>7", "1>5>4>7>2>3>6", "1>3>6>2>7>4>5",
    "1>6>2>3>5>4>7", "1>4>6>3>7>2>5", "1>2>5>4>7>3>6",
)
#: The pattern of the one ``--method both`` query (direct and walks routes).
BOTH_PATTERN = "1>2>4>6>3>5"

#: Witness-sweep queries per second of ``--seconds``, over all passes: a
#: query averages about 9 ms, so the passes take roughly 0.9 of the
#: nominal run length.
SWEEP_QUERIES_PER_SECOND = 100

#: Shares of the witness sweep, as (kind, pattern size, share).  Odd-period
#: witnesses hold more than half the list so the median latency falls
#: inside one kind's spread rather than on the edge between two kinds.
SWEEP_MIX = (
    ("odd", 5, 0.05),
    ("odd", 7, 0.24),
    ("odd", 9, 0.24),
    ("period2", 5, 0.013),
    ("period2", 6, 0.053),
    ("period2", 7, 0.087),
    ("period2", 8, 0.09),
    ("period2", 9, 0.09),
    ("walks", 5, 0.013),
    ("walks", 6, 0.06),
    ("walks", 7, 0.06),
)
#: ``spectrum --method walks --upto`` bound per pattern size.
WALK_UPTO = {5: 10, 6: 10, 7: 8}


def mirror(mapping: tuple[int, ...]) -> tuple[int, ...]:
    """One-line form of the spatially reflected pattern."""
    m = len(mapping)
    return tuple(m + 1 - mapping[m - i] for i in range(1, m + 1))


def parse_pattern(text: str) -> tuple[int, ...]:
    """One-line form of a pattern given in cycle notation or as a JSON list."""
    text = text.strip()
    if text.startswith("["):
        return tuple(json.loads(text))
    ranks = [int(tok) for tok in text.split(">")]
    mapping = [0] * len(ranks)
    for a, b in zip(ranks, ranks[1:] + ranks[:1]):
        mapping[a - 1] = b
    return tuple(mapping)


def cycle_string(mapping: tuple[int, ...]) -> str:
    """Cycle notation starting from rank 1, e.g. '1>3>2'."""
    parts = [1]
    cur = mapping[0]
    while cur != 1:
        parts.append(cur)
        cur = mapping[cur - 1]
    return ">".join(map(str, parts))


def random_cycle(m: int, rng: random.Random) -> tuple[int, ...]:
    """A uniformly random cyclic permutation of 1..m in one-line form."""
    ranks = [1] + rng.sample(range(2, m + 1), m - 1)
    mapping = [0] * m
    for a, b in zip(ranks, ranks[1:] + ranks[:1]):
        mapping[a - 1] = b
    return tuple(mapping)


def pattern_arg(mapping: tuple[int, ...], rng: random.Random) -> str:
    """The pattern in cycle notation or as a JSON one-line list."""
    if rng.random() < 0.25:
        return json.dumps(list(mapping), separators=(",", ":"))
    return cycle_string(mapping)


def _budget_flag(rng: random.Random) -> list[str]:
    # A budget well above any query's need changes the argument list but
    # neither the output nor the work.
    if rng.random() < 0.5:
        return []
    return ["--piece-budget", str(rng.randrange(1 << 18, 1 << 21))]


def tent_census(rng: random.Random) -> list[list[str]]:
    queries = [
        _budget_flag(rng) + ["tent", "pk", "13"],
        _budget_flag(rng) + ["tent", "pk", "14"],
        _budget_flag(rng) + ["tent", "chain", "--levels", "2"]
        + (["--json"] if rng.random() < 0.5 else []),
        _budget_flag(rng) + ["tent", "truncate", "3", "--spectrum", "14",
                             "--format", rng.choice(["json", "csv"])],
    ]
    rng.shuffle(queries)
    return queries


def pattern_spectrum(rng: random.Random) -> list[list[str]]:
    def oriented(mapping):
        return mirror(mapping) if rng.random() < 0.5 else mapping

    method = ["--method", "auto"] if rng.random() < 0.5 else []
    queries = [
        ["spectrum", "--pattern", NAMED_PATTERN, "--upto", "8"] + method
    ]
    for text in SPECTRUM_PATTERNS:
        queries.append(
            ["spectrum", "--pattern", pattern_arg(oriented(parse_pattern(text)), rng),
             "--upto", "8"]
        )
    queries.append(
        ["spectrum", "--pattern", pattern_arg(oriented(parse_pattern(BOTH_PATTERN)), rng),
         "--upto", "8", "--method", "both"]
    )
    rng.shuffle(queries)
    return queries


def _sweep_query(kind: str, m: int, rng: random.Random) -> tuple[tuple, list[str]]:
    """A (semantic key, argument list) pair; the key ignores the notation."""
    mapping = random_cycle(m, rng)
    pattern = pattern_arg(mapping, rng)
    if kind == "odd":
        # every even period and every period past m is forced by an odd orbit
        period = rng.choice([2, 4, 6, 8, 10, m + 2])
        argv = ["witness", "odd", "--json", "--pattern", pattern, "--period", str(period)]
        return (kind, mapping, period), argv
    if kind == "period2":
        return (kind, mapping), ["witness", "period2", "--json", "--pattern", pattern]
    argv = ["spectrum", "--method", "walks", "--upto", str(WALK_UPTO[m]),
            "--pattern", pattern]
    return (kind, mapping), argv


def witness_sweep(rng: random.Random, total: int) -> list[list[str]]:
    seen: set[tuple] = set()
    queries = []
    for kind, m, share in SWEEP_MIX:
        # Fixed quotas keep the list's cost independent of the seed.  There
        # are only 24 size-5 patterns, which bounds how long a sweep can be.
        quota = round(share * total)
        drawn = 0
        for _ in range(50 * quota):
            if drawn == quota:
                break
            key, argv = _sweep_query(kind, m, rng)
            if key in seen:
                continue
            seen.add(key)
            queries.append(argv)
            drawn += 1
        if drawn < quota:
            raise ValueError(
                f"a sweep of {total} queries needs {quota} distinct {kind} "
                f"queries on size-{m} patterns; only {drawn} were found"
            )
    rng.shuffle(queries)
    return queries


def queries_for(workload: str, seed: int, seconds: int, pass_index: int) -> list[list[str]]:
    """The query list of one pass of a run."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload == "tent-census":
        return tent_census(rng)
    if workload == "pattern-spectrum":
        return pattern_spectrum(rng)
    if workload == "witness-sweep":
        return witness_sweep(rng, SWEEP_QUERIES_PER_SECOND * seconds // PASSES)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
