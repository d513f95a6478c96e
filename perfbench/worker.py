"""One closed-loop client: answers a query list in-process, one at a time.

Reads ``{"queries": [[arg, ...], ...]}`` on stdin, imports
``sharkovsky_lab`` from the checkout's ``src/``, sends each argument list
to ``sharkovsky_lab.cli.run`` only after the previous one returned, and
prints one JSON object: per-query exit code, stdout, stderr and latency,
the loop's wall time and the process's peak RSS.  With ``--trace`` it
first wraps the public functions (see ``spans.py``), writes the spans to
``--spans-out`` after the loop, and adds per-name self times, span counts
and work counters.  It is run as a fresh single-threaded process per
pass, so peak RSS and lazy imports belong to this pass alone.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def import_cli():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    from sharkovsky_lab import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported {cli.__file__}, not the checkout's copy under {src}")
    return cli


def answer(cli, queries, tracer=None) -> dict:
    """Run the closed loop; the result lists are in query order."""
    root = tracer.name_id(spans.ROOT_SPAN) if tracer is not None else None
    rcs, outs, errs, latencies = [], [], [], []
    clock = time.perf_counter
    t_start = clock()
    for qid, argv in enumerate(queries):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.query_id = qid
            span = tracer.open(root)
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.run(argv)
        except Exception:  # the real CLI would exit 1 with this traceback
            rc = 1
            err.write(traceback.format_exc())
        t1 = clock()
        if tracer is not None:
            tracer.close(span)
        latencies.append(t1 - t0)
        rcs.append(rc)
        outs.append(out.getvalue())
        errs.append(err.getvalue())
    wall = clock() - t_start
    return {
        "rc": rcs,
        "stdout": outs,
        "stderr": errs,
        "latency_s": latencies,
        "wall_s": wall,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()
    queries = json.load(sys.stdin)["queries"]
    cli = import_cli()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    result = answer(cli, queries, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        self_s, count = tracer.totals()
        result["trace"] = {
            "self_s": self_s,
            "count": count,
            "counters": dict(tracer.counters),
        }
        if args.spans_out:
            tracer.write(args.spans_out)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
