"""Self-check of the benchmark's own arithmetic and checks.

    python3 perfbench/selfcheck.py

Covers the tail-percentile choice, the self-time subtraction, failed_frac
on an injected ``--piece-budget 10`` query that exits 3, tracing at every
import binding, counters that repeat exactly between two traced runs,
output checks that reject wrong answers, and the agreement of the
metric names with BENCHMARK.json.  Takes about ten seconds; exits 1 on
the first failure.  The file name keeps it out of pytest collection.
"""

from __future__ import annotations

import json
import os
import sys

import run  # puts this directory on sys.path
import checks
import spans
import workloads


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {what}")


def check_tail() -> None:
    ms = [float(i) for i in range(1, 1496)]
    expect(run.tail(ms) == ("p99", 1481.0, 14), f"1495 samples: {run.tail(ms)}")
    expect(run.tail([float(i) for i in range(100)])[::2] == ("p90", 10), "100 samples -> p90")
    expect(run.tail([float(i) for i in range(40)])[::2] == ("p75", 10), "40 samples -> p75")
    expect(run.tail([float(i) for i in range(39)]) == ("max", 38.0, 0), "39 samples -> max")


def check_self_time() -> None:
    # root [0, 10] holds a [1, 4], which holds a1 [2, 3]; b [5, 6] is root's
    got = spans.self_times([-1, 0, 1, 0], [0.0, 1.0, 2.0, 5.0], [10.0, 4.0, 3.0, 6.0])
    expect(got == [6.0, 2.0, 1.0, 1.0], f"self times {got}")
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    t = spans.Tracer(clock=lambda: next(ticks))
    root, child = t.name_id("cli.run"), t.name_id("exact_pwl.eval")
    r = t.open(root)
    t.close(t.open(child))          # [1, 3]
    t.close(t.open(child))          # [4, 4.5]
    t.close(r)                      # [0, 10]
    self_s, count = t.totals()
    expect(self_s == {"cli.run": 7.5, "exact_pwl.eval": 2.5}, f"totals {self_s}")
    expect(count == {"cli.run": 1, "exact_pwl.eval": 2}, f"counts {count}")


def check_failed_frac() -> None:
    queries = [
        ["tent", "pk", "3"],
        ["--piece-budget", "10", "tent", "pk", "5"],
        ["witness", "period2", "--json", "--pattern", "1>2>3"],
    ]
    report = run.run_worker(queries)
    expect(report["rc"] == [0, 3, 0], f"exit codes {report['rc']}")
    found = run.failures(queries, report, None)
    expect([argv for argv, _ in found] == [queries[1]], f"failed queries {found}")
    values, _ = run.end_to_end([report], 0.05, len(found))
    expect(run.failed_frac(len(found), len(queries)) == 1 / 3, "failed_frac")
    expect(abs(values["ok_frac"] - 2 / 3) < 1e-12, f"ok_frac {values['ok_frac']}")


def check_bindings() -> None:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from sharkovsky_lab import cli, exact_pwl, witnesses

    original = exact_pwl.orbit_of
    t = spans.Tracer()
    uninstall = spans.install(t)
    try:
        expect(cli.orbit_of is exact_pwl.orbit_of is witnesses.orbit_of, "one wrapper")
        expect(cli.orbit_of is not original, "cli's binding is traced")
        f = exact_pwl.PwlMap([(0, 0), ("1/2", 1), (1, 0)])
        cli.orbit_of(f, exact_pwl.as_fraction("2/7"))
        _, count = t.totals()
        expect(count == {"exact_pwl.orbit_of": 1, "exact_pwl.eval": 3}, f"spans {count}")
    finally:
        uninstall()
    expect(cli.orbit_of is original, "uninstall restores every binding")


def check_counters_repeat() -> None:
    queries = [
        ["tent", "pk", "6"],
        ["tent", "truncate", "3", "--spectrum", "6"],
        ["spectrum", "--pattern", "1>3>4>2>5", "--upto", "6", "--method", "walks"],
        ["witness", "odd", "--json", "--pattern", "1>3>4>2>5", "--period", "6"],
    ]
    plain = run.run_worker(queries)
    first = run.run_worker(queries, trace=True)
    second = run.run_worker(queries, trace=True)
    expect(first["stdout"] == plain["stdout"], "tracing changes no answer")
    for key in ("counters", "count"):
        expect(first["trace"][key] == second["trace"][key], f"{key} differ between runs")
    values = run.per_layer(first, plain)
    expect(values["exact_pwl.iterate.peak_pieces"] == 65, "tent^6 has 65 breakpoints")
    expect(values["pattern_dynamics.iter_closed_walks.walks"] > 0, "walks counted")
    expect(0.99 < values["trace.accounted_frac"] <= 1.0, "self times cover the wall")


def check_output_checks() -> None:
    report = run.run_worker([
        ["tent", "pk", "3"],
        ["tent", "truncate", "5", "--spectrum", "8"],
        ["witness", "odd", "--json", "--pattern", "1>3>4>2>5", "--period", "6"],
        ["spectrum", "--pattern", "1>3>4>2>5", "--upto", "6"],
    ])
    pk, trunc, odd, spectrum = report["stdout"]
    expect(checks.check_output(["tent", "pk", "3"], pk) == [], "pk passes")
    bad = pk.replace('"2/7"', '"1/7"')
    expect(checks.check_output(["tent", "pk", "3"], bad) != [], "pk with a moved point fails")
    argv = ["tent", "truncate", "5", "--spectrum", "8"]
    expect(checks.check_output(argv, trunc) == [], "truncation passes")
    bad = trunc.replace('"orbit_count": 0', '"orbit_count": 1', 1)
    expect(checks.check_output(argv, bad) != [], "truncation with an extra period fails")
    argv = ["witness", "odd", "--json", "--pattern", "1>3>4>2>5", "--period", "6"]
    expect(checks.check_output(argv, odd) == [], "odd witness passes")
    bad = json.loads(odd)
    bad["period"], argv[-1] = 4, "4"
    expect(checks.check_output(argv, json.dumps(bad)) != [], "witness of the wrong period fails")
    argv = ["spectrum", "--pattern", "1>3>4>2>5", "--upto", "6"]
    expect(checks.check_output(argv, spectrum) == [], "spectrum passes")
    bad = json.loads(spectrum)
    bad["realized"].remove(6)
    expect(checks.check_output(argv, json.dumps(bad)) != [], "spectrum missing 6 fails")


def check_metric_names() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    report = {"latency_s": [0.1, 0.2], "wall_s": 0.3, "peak_rss_mb": 20.0}
    values, _ = run.end_to_end([report], 0.05, 0)
    expect(set(values) == {m["name"] for m in spec["end_to_end"]}, "end-to-end names")
    trace = {"self_s": {}, "count": {}, "counters": {}}
    values = run.per_layer({"trace": trace, "wall_s": 1.0}, {"wall_s": 1.0})
    expect({m["name"] for m in spec["per_layer"]} <= set(values), "per-layer names")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "workloads")


def main() -> None:
    for check in (check_tail, check_self_time, check_failed_frac, check_bindings,
                  check_counters_repeat, check_output_checks, check_metric_names):
        check()
        print(f"ok {check.__name__}")


if __name__ == "__main__":
    main()
