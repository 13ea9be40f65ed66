#!/usr/bin/env python3
"""Determinism self-test of the benchmark harness.

    python3 perfbench/selftest.py

On the deterministic workloads (analyze_smallbank, smallbank_mixed), two
runs with the same seed must report identical exact counts for every
sample they share: Algorithm 2 checks, triples, level counts, promotion
effort, engine steps, attempts, commits, aborts by reason, and sessions
and versions left at the end. A run with a second seed must differ in its
engine counts and still pass every correctness check. The ungated
ycsb_rcsi_2w workload runs once and must pass every check. Exits 0 on
success.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's build step)

WORKLOADS = ["analyze_smallbank", "smallbank_mixed"]
SEED, OTHER_SEED = 7, 8


def harness(workload, seed):
    out = subprocess.run(
        [run.HARNESS, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        check=True, capture_output=True, text=True).stdout.splitlines()
    result = json.loads(out[-1])
    counts = next(json.loads(line)["counts"] for line in out
                  if line.startswith('{"counts"'))
    return result, counts


def main():
    run.build()
    failures = []
    for workload in WORKLOADS:
        first, counts = harness(workload, SEED)
        second, again = harness(workload, SEED)
        other, changed = harness(workload, OTHER_SEED)
        for name, result in (("first", first), ("second", second),
                             ("other-seed", other)):
            if not result["correct"] or result["failed"] != 0:
                failures.append(f"{workload}: the {name} run failed a check")
        shared = set(counts) & set(again)
        if not shared:
            failures.append(f"{workload}: the runs share no sample")
        for k in sorted(shared):
            if counts[k] != again[k]:
                diff = {n: (counts[k][n], again[k].get(n)) for n in counts[k]
                        if counts[k][n] != again[k].get(n)}
                failures.append(f"{workload}: sample {k} differs: {diff}")
        engine = {n: v for n, v in counts["0"].items() if n.startswith("mvcc.")}
        if engine == {n: changed["0"][n] for n in engine}:
            failures.append(f"{workload}: seed {OTHER_SEED} ran the same "
                            f"engine work as seed {SEED}")
        print(f"{workload}: {len(shared)} shared samples compared")
    concurrent, _ = harness("ycsb_rcsi_2w", SEED)
    if not concurrent["correct"] or concurrent["failed"] != 0:
        failures.append("ycsb_rcsi_2w: the run failed a check")
    for failure in failures:
        print("FAIL:", failure)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
