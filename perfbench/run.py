#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The harness and the mvrob libraries it
links are built under .bench_build/perfbench; build output goes to stderr.
The last line of stdout is the harness's JSON result. A run that exceeds
its wall-clock limit is killed and reported as failed (exit code 1).
"""

import argparse
import fcntl
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")


def limit_seconds(seconds):
    """Wall-clock limit of one harness run: set-up, the measured time, the
    sample that overruns it, and the final checks; under 180 s in total."""
    return min(170.0, 60.0 + 2.0 * seconds)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("error: no mvrob sources next to perfbench/ "
                 "(run from a checkout)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time per checkout.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD_DIR,
                      "--target", "perfbench_harness", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr,
                              stderr=sys.stderr).returncode:
                sys.exit("error: building the harness failed: "
                         + " ".join(cmd))


def failed_result():
    return '{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}'


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    build()
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{args.workload}-seed{args.seed}.json")]

    limit = limit_seconds(args.seconds)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"error: the run exceeded its {limit:.0f} s wall-clock limit "
              "and was killed", file=sys.stderr)
        print(failed_result())
        return 1
    sys.stdout.write(out)
    if proc.returncode != 0:
        print(f"error: the harness exited with code {proc.returncode}",
              file=sys.stderr)
        lines = out.rstrip().splitlines()
        if not lines or '"correct"' not in lines[-1]:
            print(failed_result())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
