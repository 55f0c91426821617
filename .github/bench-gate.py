"""Exact-counter gate between two runs of the repo benchmark.

Usage: python3 .github/bench-gate.py PARENT.json CURRENT.json

Both files are benchmark/out/latest.json as `go run ./benchmark` writes
it. The counters below count work, not time, so they repeat exactly
between two runs of one tree; the gate fails when any of them differs on
any workload both files ran, and prints both values. It skips (exit 0)
when the parent file is absent or was taken with another worker count,
since the parallel counters depend on it. Timing is not compared here.
"""

import json
import os
import sys

# The exact counters of benchmark/aa.go.
COUNTERS = [
    "interp.eq_instances_per_op",
    "sched.planes_per_op",
    "plan.steps",
    "cgen.c_bytes",
    "lexer.tokens",
]


def counters(run):
    """The exact counters of one workload, read from its traced run."""
    metrics = run["per_layer"]["metrics"]
    return {name: metrics[name]["value"] for name in COUNTERS if name in metrics}


def main(parent_path, current_path):
    if not os.path.exists(parent_path):
        print(f"bench gate: no parent benchmark at {parent_path}; skipping")
        return 0
    with open(parent_path) as f:
        parent = json.load(f)
    with open(current_path) as f:
        current = json.load(f)
    pw = parent["provenance"]["workers"]
    cw = current["provenance"]["workers"]
    if pw != cw:
        print(f"bench gate: parent ran {pw} workers, this run {cw}; skipping")
        return 0
    failed = 0
    for workload in sorted(current["workloads"]):
        if workload not in parent["workloads"]:
            print(f"{workload:16} not in the parent run; not compared")
            continue
        was = counters(parent["workloads"][workload])
        now = counters(current["workloads"][workload])
        for name in COUNTERS:
            a, b = was.get(name), now.get(name)
            verdict = "identical" if a == b else "DIFFERS"
            failed += a != b
            print(f"{workload:16} {name:28} parent {a!s:>12} now {b!s:>12}  {verdict}")
    if failed:
        print(f"bench gate: {failed} exact counter(s) differ from the parent")
        return 1
    print("bench gate: every exact counter matches the parent")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2])
    sys.exit(main(sys.argv[1], sys.argv[2]))
