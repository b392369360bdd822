#!/usr/bin/env python3
"""Self-test of the benchmark's per-layer counts.

    python3 perfbench/selftest.py [--seed N] [--seconds S] [WORKLOAD ...]

Run from the root of a source checkout. For each workload (all by
default) it makes two traced runs of `perfbench/run.py` with the same
seed and requires every count-type layer metric to repeat exactly and
both runs to pass their checks. Exits 1 on any difference.
"""

import argparse
import json
import subprocess
import sys

COUNTS = [
    "protocol.reply_bytes",
    "journal.bytes_per_commit",
    "planner.cache_hit_ratio",
    "planner.delta_hit_ratio",
    "monitor.delta_hit_ratio",
    "read.index_builds_per_op",
    "gc.minor_words_per_op",
]
WORKLOADS = ["read_mix", "commit_durable", "txn_monitored"]


def traced(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=2)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    a = ap.parse_args()
    bad = 0
    for w in a.workloads:
        first, second = (traced(w, a.seed, a.seconds) for _ in range(2))
        for run in (first, second):
            if not run["correct"] or run["failed"]:
                print("%s: a traced run failed its checks" % w)
                bad += 1
        for k in COUNTS:
            x, y = first["metrics"][k]["value"], second["metrics"][k]["value"]
            same = "same" if x == y else "DIFFERENT"
            print("%-16s %-26s %-16r %-16r %s" % (w, k, x, y, same))
            bad += x != y
    print("self-test %s" % ("passed" if not bad else "FAILED"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
