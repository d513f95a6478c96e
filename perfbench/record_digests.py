"""Record the stdout digests that later runs of the default seed must match.

    python3 perfbench/record_digests.py

Answers every pass of every workload for the default seed and run length,
refuses to record if any answer fails its checks, and writes digests.json.
Run it only at a commit whose output is the reference: the CLI's output
is meant to stay byte-identical.
"""

from __future__ import annotations

import json

import run
from checks import digest, digest_key
from workloads import PASSES, WORKLOADS, queries_for


def main() -> None:
    with open(f"{run.ROOT}/BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    table = {"seed": run.DEFAULT_SEED, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        digests = {}
        for p in range(PASSES):
            queries = queries_for(workload, run.DEFAULT_SEED, seconds, p)
            report = run.run_worker(queries)
            found = run.failures(queries, report, None)
            if found:
                raise SystemExit(f"{workload}: {len(found)} answers fail their checks: {found[0]}")
            for argv, out in zip(queries, report["stdout"]):
                digests[digest_key(argv)] = digest(out)
        table["workloads"][workload] = digests
        print(f"{workload}: {len(digests)} digests")
    with open(run.DIGESTS, "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
