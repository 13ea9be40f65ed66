#!/usr/bin/env python3
"""Bench-regression gate: diff a fresh benchmark JSON (BENCH_robustness,
BENCH_promotion, ...) against the committed baseline. tools/bench.sh
runs it once per gated suite.

Two kinds of checks, reflecting the two kinds of numbers in the file:

 - per-benchmark cpu_time ratios (fresh / baseline) against a threshold
   (default 2.0x, --threshold). Timings are machine-dependent, so the
   gate is deliberately loose: it catches algorithmic regressions (a 10x
   blowup), not noise;
 - machine-INDEPENDENT outcome numbers, which must match exactly:
   the audited work counter analyzer.triples_examined from the embedded
   metrics snapshot (the scan contract of core/robustness.h), and the
   promotion-outcome counters (before_weighted, after_weighted,
   promotions) and search-effort counters (allocations_computed,
   robustness_checks) that BM_OptimizePromotions attaches to its rows — a
   changed allocation cost or effort is a behavior change, not noise —
   and the work
   counters (core.checks, analyzer.delta_triples_examined) that
   BM_Allocation_YcsbA attaches to its rows. An exact
   counter on only one side fails too: a check the baseline cannot
   answer is re-recorded, never skipped.

A benchmark present in the baseline but missing from the fresh run fails
the gate (silently dropping a benchmark is how regressions hide); new
benchmarks are reported and pass.

Scaling benchmarks (names carrying a /threads:N suffix, e.g.
BM_MvccScaling/RC_low/threads:4/real_time) get two extra treatments:
their ratio check uses real_time rather than cpu_time (the workers are
internal threads, so cpu_time aggregates all cores and hides scaling),
and the rows of one family are grouped into a throughput-vs-threads
curve. --min-speedup PATTERN=X (repeatable) asserts that, in the FRESH
run, every matching curve speeds up at least X-fold from its lowest to
its highest thread count — the acceptance gate for the many-core engine,
only meaningful on a machine with that many cores (tools/bench.sh guards
it with nproc).

usage: bench_compare.py <fresh.json> <baseline.json> [--threshold X]
                        [--warn-only] [--update]
                        [--min-speedup PATTERN=X ...]

--update writes the fresh results over the baseline (seeding or refreshing
it) and exits 0. --warn-only reports regressions but exits 0;
tools/bench.sh passes it under MVROB_BENCH_GATE=warn.
"""

import argparse
import json
import os
import re
import sys

# "<family>/threads:<n>" with Google Benchmark's optional trailing
# "/real_time" (UseRealTime) modifier.
THREADS_SUFFIX = re.compile(r"^(?P<family>.+)/threads:(?P<n>\d+)"
                            r"(?P<modifier>/real_time)?$")


def load(path):
    with open(path) as f:
        return json.load(f)


# Google Benchmark's time_unit values, in nanoseconds.
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def runs(doc):
    """The benchmark rows of doc, without aggregate rows."""
    return [bench for bench in doc.get("benchmarks", [])
            if bench.get("run_type") != "aggregate"]


def nanoseconds(bench, metric):
    return float(bench[metric]) * NS_PER_UNIT[bench.get("time_unit", "ns")]


def benchmark_times(doc):
    """name -> time (ns).

    Scaling rows (/threads:N suffix) are compared on real_time; everything
    else on cpu_time.
    """
    return {bench["name"]: nanoseconds(
                bench, "real_time" if THREADS_SUFFIX.match(bench["name"])
                else "cpu_time")
            for bench in runs(doc)}


def scaling_curves(doc):
    """family -> {threads: real_time (ns)} for /threads:N benchmarks."""
    curves = {}
    for bench in runs(doc):
        match = THREADS_SUFFIX.match(bench["name"])
        if match:
            curves.setdefault(match.group("family"), {})[
                int(match.group("n"))] = nanoseconds(bench, "real_time")
    return curves


def check_min_speedups(curves, requirements):
    """Returns failure strings for unmet PATTERN=X speedup requirements."""
    failures = []
    for pattern, minimum in requirements:
        matched = {name: curve for name, curve in curves.items()
                   if pattern in name}
        if not matched:
            failures.append(f"--min-speedup {pattern}={minimum}: no "
                            "scaling benchmark matches the pattern")
            continue
        for name, curve in sorted(matched.items()):
            if len(curve) < 2:
                failures.append(f"{name}: only one thread count; cannot "
                                "compute a speedup")
                continue
            low, high = min(curve), max(curve)
            # Fixed work per iteration: speedup = time(low)/time(high).
            speedup = curve[low] / curve[high] if curve[high] > 0 else 0.0
            marker = "ok" if speedup >= minimum else "TOO SLOW"
            print(f"  {marker:>10}  {speedup:6.2f}x  {name} "
                  f"(threads {low} -> {high}, need >= {minimum:.2f}x)")
            if speedup < minimum:
                failures.append(
                    f"{name}: speedup {speedup:.2f}x from {low} to {high} "
                    f"threads is below the required {minimum:.2f}x")
    return failures


# Row counters that are deterministic outcomes of the code under benchmark
# (not timings), and the one exact number of the metrics snapshot.
EXACT_COUNTERS = ("before_weighted", "after_weighted", "promotions",
                  "allocations_computed", "robustness_checks",
                  "core.checks", "analyzer.delta_triples_examined")
METRICS_ROW = "mvrob_metrics"
METRICS_COUNTER = "analyzer.triples_examined"


def exact_counters(doc):
    """(row, counter) -> value for every exactly-compared number in doc."""
    exact = {}
    for bench in runs(doc):
        for key in EXACT_COUNTERS:
            if key in bench:
                exact[(bench["name"], key)] = bench[key]
    try:
        counters = doc[METRICS_ROW]["snapshot"]["counters"]
        exact[(METRICS_ROW, METRICS_COUNTER)] = int(counters[METRICS_COUNTER])
    except (KeyError, TypeError):
        pass
    return exact


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh")
    parser.add_argument("baseline")
    parser.add_argument(
        "--threshold", type=float, default=2.0,
        help="max allowed cpu_time ratio fresh/baseline (default 2.0)")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but exit 0")
    parser.add_argument("--update", action="store_true",
                        help="write fresh results over the baseline")
    parser.add_argument(
        "--min-speedup", action="append", default=[],
        metavar="PATTERN=X",
        help="require every fresh /threads:N curve whose family name "
             "contains PATTERN to speed up >= X-fold from its lowest to "
             "its highest thread count (repeatable)")
    args = parser.parse_args()

    requirements = []
    for spec in args.min_speedup:
        pattern, sep, value = spec.rpartition("=")
        try:
            if not sep or not pattern:
                raise ValueError
            requirements.append((pattern, float(value)))
        except ValueError:
            parser.error(f"--min-speedup expects PATTERN=X, got {spec!r}")

    fresh = load(args.fresh)

    if args.update:
        os.makedirs(os.path.dirname(os.path.abspath(args.baseline)),
                    exist_ok=True)
        with open(args.baseline, "w") as f:
            json.dump(fresh, f, indent=1)
        print(f"baseline updated: {args.baseline}")
        return 0

    baseline = load(args.baseline)
    fresh_times = benchmark_times(fresh)
    baseline_times = benchmark_times(baseline)

    failures = []
    for name, base_time in sorted(baseline_times.items()):
        if name not in fresh_times:
            failures.append(f"benchmark disappeared: {name}")
            continue
        if base_time <= 0:
            continue
        ratio = fresh_times[name] / base_time
        marker = "REGRESSION" if ratio > args.threshold else "ok"
        print(f"  {marker:>10}  {ratio:6.2f}x  {name}")
        if ratio > args.threshold:
            failures.append(
                f"{name}: {fresh_times[name]:.0f}ns vs baseline "
                f"{base_time:.0f}ns ({ratio:.2f}x > {args.threshold:.2f}x)")
    for name in sorted(set(fresh_times) - set(baseline_times)):
        print(f"  {'new':>10}  {'':>7}  {name}")

    fresh_exact = exact_counters(fresh)
    base_exact = exact_counters(baseline)
    for row, key in sorted(fresh_exact.keys() | base_exact.keys()):
        if row != METRICS_ROW and row not in fresh_times:
            continue  # Already reported as a disappeared benchmark above.
        fresh_value = fresh_exact.get((row, key))
        base_value = base_exact.get((row, key))
        if fresh_value == base_value:
            print(f"  {'ok':>10}  {'exact':>7}  {row}:{key} = {base_value}")
        elif base_value is None:
            failures.append(
                f"{row}: {key} = {fresh_value} has no baseline value — exact "
                "counters are compared, never skipped; re-record the "
                "baseline")
        else:
            failures.append(
                f"{row}: {key} changed: {fresh_value} vs baseline "
                f"{base_value} — it is machine-independent, so this is a "
                "behavior change, not noise")

    curves = scaling_curves(fresh)
    for family, curve in sorted(curves.items()):
        points = ", ".join(f"{n}t={curve[n] / 1e6:.1f}ms"
                           for n in sorted(curve))
        print(f"  {'curve':>10}  {'':>7}  {family}: {points}")
    failures += check_min_speedups(curves, requirements)

    if not failures:
        print(f"bench gate OK: {len(baseline_times)} benchmarks within "
              f"{args.threshold:.2f}x of baseline")
        return 0
    print(f"bench gate: {len(failures)} regression(s)", file=sys.stderr)
    for failure in failures:
        print(f"  - {failure}", file=sys.stderr)
    if args.warn_only:
        print("(warn-only: not failing the build)", file=sys.stderr)
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
