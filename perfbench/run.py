#!/usr/bin/env python3
"""Repo benchmark: builds the library and the benchmark program from source,
then runs one workload and passes its result through.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build lives in .bench_build/perfbench
(CMake, Release); the traced run's span dump goes to .bench_build/perfbench-out.
The last line of stdout is the run's JSON result. See perfbench/README.md.
"""
import argparse
import os
import pathlib
import subprocess
import sys
import time

WORKLOADS = ("tenant_cluster", "kv_pressure", "attn_kernels")
ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "perfbench-out"
# Threads of the library's global pool (the CPU kernels' CTA fan-out). Fixed
# so kernel timings do not depend on how many cores the host reports.
POOL_THREADS = "2"
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def build(target):
    """Configures once, then brings `target` up to date. Output goes to stderr."""
    if not (ROOT / "src" / "serving" / "engine.h").is_file():
        return "library sources not found under src/"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", target, "-j", "4"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            return f"build step failed: {e}"
        if proc.returncode != 0:
            return f"build step failed ({proc.returncode}): {' '.join(cmd)}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true",
                    help="show that every output check flags a corrupted result")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        return fail("--workload, --seed, --seconds and --trace are required")

    target = "perfbench_traced" if args.trace == 1 else "perfbench"
    err = build(target)
    if err:
        return fail(err)
    exe = BUILD_DIR / target
    env = dict(os.environ, FI_THREADS=POOL_THREADS)
    if args.selftest:
        cmd = [str(exe), "--selftest"]
    else:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        # Set-up time is measured from here: the benchmark process's start.
        t0_ns = time.monotonic_ns()
        cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--t0-ns", str(t0_ns), "--out-dir", str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
