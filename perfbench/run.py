"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload witness-sweep --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it measures set-up time in fresh interpreters, answers
the workload's query lists in PASSES passes, each in a fresh worker
process, checks every answer and prints the end-to-end metrics.  With
``--trace 1`` it answers the first pass's list twice, each time in a
fresh worker: untraced, then with spans around the package's public
functions, and prints the per-layer metrics, the work counters and the
tracing overhead.  Readable lines come first; the last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  See README.md in this directory for what each metric
means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import PASSES, WORKLOADS, queries_for  # noqa: E402

DEFAULT_SEED = 1
DIGESTS = os.path.join(HERE, "digests.json")
SPANS_DIR = os.path.join(ROOT, ".perfbench-out")
#: Fresh interpreters timed per run for ``setup_s``, after one unmeasured
#: start that may compile bytecode.
SETUP_SAMPLES = 9
#: Percentiles tried for ``latency_tail_ms``, highest first; the median is
#: not a tail, so a list too short for p75 reports its slowest query.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10
WORKER_TIMEOUT_S = 150

SETUP_CODE = """\
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from sharkovsky_lab.cli import build_parser
build_parser()
print(repr(time.perf_counter() - t))
"""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONSTARTUP")}
    env["PYTHONHASHSEED"] = "0"
    return env


def tail(values: list[float]) -> tuple[str, float, int]:
    """The highest ladder percentile with at least MIN_BEYOND samples above it.

    Nearest-rank percentiles.  Returns (label, value, samples beyond).  With
    too few samples for any rung, the slowest sample is returned as "max".
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= MIN_BEYOND:
            return f"p{p:g}", ordered[rank - 1], n - rank
    return "max", ordered[-1], 0


def failed_frac(failed: int, attempted: int) -> float:
    return failed / attempted


def measure_setup(samples: int = SETUP_SAMPLES) -> float:
    """Median seconds from a fresh interpreter to an imported, built parser."""
    times = []
    for _ in range(samples + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, os.path.join(ROOT, "src")],
            capture_output=True, text=True, check=True, timeout=60,
            env=child_env(), cwd=ROOT,
        )
        times.append(float(out.stdout))
    return statistics.median(times[1:])


def run_worker(queries: list[list[str]], trace: bool = False,
               spans_out: str | None = None) -> dict:
    """Answer the queries in a fresh worker process and return its report."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")]
    if trace:
        cmd.append("--trace")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    proc = subprocess.run(
        cmd, input=json.dumps({"queries": queries}), capture_output=True,
        text=True, timeout=WORKER_TIMEOUT_S, env=child_env(), cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def load_digests(workload: str, seed: int, seconds: int) -> dict[str, str] | None:
    """Recorded stdout digests, when this run's inputs are the recorded ones."""
    if not os.path.exists(DIGESTS):
        return None
    with open(DIGESTS) as fh:
        table = json.load(fh)
    if (seed, seconds) != (table["seed"], table["seconds"]):
        return None
    return table["workloads"][workload]


def failures(queries, report, recorded) -> list[tuple[list[str], list[str]]]:
    """(query, problems) for every query whose answer fails a check."""
    found = []
    for i, argv in enumerate(queries):
        problems = checks.check_query(
            argv, report["rc"][i], report["stdout"][i], report["stderr"][i], recorded
        )
        if problems:
            found.append((argv, problems))
    return found


def end_to_end(reports: list[dict], setup_s: float, failed: int) -> tuple[dict, str]:
    """Metrics over a run's passes: latencies pooled, wall time per pass."""
    latencies = [x for r in reports for x in r["latency_s"]]
    label, tail_s, beyond = tail(latencies)
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in reports),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * tail_s,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
        "setup_s": setup_s,
        "ok_frac": 1 - failed_frac(failed, len(latencies)),
    }
    note = f"latency_tail_ms is {label}, {beyond} of {len(latencies)} samples beyond it"
    return values, note


def per_layer(traced: dict, plain: dict) -> dict:
    t = traced["trace"]
    self_s, count, c = t["self_s"], t["count"], t["counters"]

    def s(name):
        return self_s.get(name, 0.0)

    values = {f"{layer}.self_s": sum(v for k, v in self_s.items() if k.startswith(layer + "."))
              for layer in spans.LAYERS}
    iterate_s = s("exact_pwl.iterate")
    total_pieces = c.get("exact_pwl.iterate.total_pieces", 0)
    walks = c.get("pattern_dynamics.iter_closed_walks.yielded", 0)
    values.update({
        "exact_pwl.iterate.self_s": iterate_s,
        "exact_pwl.iterate.calls": count.get("exact_pwl.iterate", 0),
        "exact_pwl.iterate.peak_pieces": c.get("exact_pwl.iterate.peak_pieces", 0),
        "exact_pwl.iterate.total_pieces": total_pieces,
        "exact_pwl.iterate.pieces_per_s": total_pieces / iterate_s if iterate_s else 0.0,
        "exact_pwl.fixed_points_of_iterate.self_s": s("exact_pwl.fixed_points_of_iterate"),
        "exact_pwl.fixed_points_of_iterate.points":
            c.get("exact_pwl.fixed_points_of_iterate.points", 0),
        "exact_pwl.periodic_orbits.self_s": s("exact_pwl.periodic_orbits"),
        "exact_pwl.periodic_orbits.orbits": c.get("exact_pwl.periodic_orbits.orbits", 0),
        "exact_pwl.eval.count": count.get("exact_pwl.eval", 0),
        "exact_pwl.eval.self_s": s("exact_pwl.eval"),
        "exact_pwl.preimage_branches.self_s": s("exact_pwl.preimage_branches"),
        "exact_pwl.preimage_branches.branches":
            c.get("exact_pwl.preimage_branches.branches", 0),
        "exact_pwl.clamp.self_s": s("exact_pwl.clamp"),
        "exact_pwl.point_of_least_period_in_lap.calls":
            count.get("exact_pwl.point_of_least_period_in_lap", 0),
        "tent_constructions.period_spectrum.self_s": s("tent_constructions.period_spectrum"),
        "tent_constructions.period_spectrum.iterate_order_sum":
            c.get("tent_constructions.period_spectrum.iterate_order_sum", 0),
        "tent_constructions.minimal_diameter_orbit.self_s":
            s("tent_constructions.minimal_diameter_orbit"),
        "pattern_dynamics.realized_periods.self_s": s("pattern_dynamics.realized_periods"),
        "pattern_dynamics.iter_closed_walks.walks": walks,
        "pattern_dynamics.iter_closed_walks.self_s": s("pattern_dynamics.iter_closed_walks"),
        "pattern_dynamics.walks.useful_ratio":
            c.get("pattern_dynamics.walks.certified", 0) / walks if walks else 0.0,
        "witnesses.periodic_point_from_cycle.self_s": s("witnesses.periodic_point_from_cycle"),
        "witnesses.periodic_point_from_cycle.calls":
            count.get("witnesses.periodic_point_from_cycle", 0),
        "witnesses.odd_period_witness.self_s": s("witnesses.odd_period_witness"),
        "witnesses.period_two_from_orbit.self_s": s("witnesses.period_two_from_orbit"),
        "cli.self_s": s(spans.ROOT_SPAN),
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        "trace.accounted_frac": sum(self_s.values()) / traced["wall_s"],
    })
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description="sharkovsky-lab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="nominal run length, which sizes the witness sweep "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "sharkovsky_lab", "cli.py")):
        print(f"error: no sharkovsky_lab sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    lists = [queries_for(args.workload, args.seed, args.seconds, p) for p in range(PASSES)]
    recorded = load_digests(args.workload, args.seed, args.seconds)
    print(f"{args.workload} seed {args.seed}: {' + '.join(str(len(q)) for q in lists)} "
          f"queries in {PASSES} passes, closed loop, one client; digests "
          f"{'checked' if recorded else 'not recorded for this seed'}")

    if args.trace:
        queries = lists[0]
        attempted = len(queries)
        plain = run_worker(queries)
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans_out = os.path.join(SPANS_DIR, f"{args.workload}-seed{args.seed}.spans.tsv.gz")
        traced = run_worker(queries, trace=True, spans_out=spans_out)
        found = failures(queries, plain, recorded)
        failed_argv = {json.dumps(argv) for argv, _ in found}
        found += [
            (argv, ["traced answer differs from untraced"])
            for i, argv in enumerate(queries)
            if (traced["rc"][i], traced["stdout"][i]) != (plain["rc"][i], plain["stdout"][i])
            and json.dumps(argv) not in failed_argv
        ]
        values = per_layer(traced, plain)
        wanted = spec["per_layer"]
        print(f"one pass traced; spans written to {os.path.relpath(spans_out, ROOT)}")
    else:
        attempted = sum(len(q) for q in lists)
        setup_s = measure_setup()
        reports = [run_worker(q) for q in lists]
        found = [f for q, r in zip(lists, reports) for f in failures(q, r, recorded)]
        values, note = end_to_end(reports, setup_s, len(found))
        wanted = spec["end_to_end"]
        print(note)
        print(f"failed_frac {failed_frac(len(found), attempted):g} "
              f"({len(found)} of {attempted} queries failed)")

    for argv, problems in found:
        print(f"FAILED {' '.join(argv)}: {'; '.join(problems)}")
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    for name, value in values.items():
        # Values missing from BENCHMARK.json are self times of functions some
        # workload never calls (they read exactly 0 there); they are printed only.
        print(f"  {name:<56} {value:>16.6g} {units.get(name, 's')}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": not found,
        "attempted": attempted,
        "failed": len(found),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
