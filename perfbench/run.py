#!/usr/bin/env python3
"""Runs one benchmark workload against lowtw's serving stack.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the harness from source under
.bench_build/perfbench (CMake, Release), runs it, and prints the host context
line and then, as the last line of stdout, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
and the tracing overhead. Exits non-zero on a wrong distance, an open
conservation ledger, or when the sources are missing. See
perfbench/README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("interactive_uniform", "pipelined_zipf", "lifecycle")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds the harness incrementally."""
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench_harness", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "perfbench_harness")


def cpu_ticks():
    """(steal, total) jiffies summed over all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already counted in user and nice.
    return fields[7], sum(fields[:8])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not (os.path.isfile(os.path.join("src", "serving", "daemon.hpp"))
            and os.path.isfile(os.path.join("perfbench", "CMakeLists.txt"))):
        log("run from the repository root: lowtw sources (src/) not found")
        return 2
    try:
        harness = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2

    workdir = os.path.join(BUILD_DIR, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.trace:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.csv")]

    load_start = os.getloadavg()[0]
    steal0, total0 = cpu_ticks()
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"harness exceeded {HARNESS_TIMEOUT_S} s")
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    steal1, total1 = cpu_ticks()
    host = {
        "nproc": os.cpu_count(),
        "load1_start": load_start,
        "load1_end": os.getloadavg()[0],
        "steal_s": (steal1 - steal0) / os.sysconf("SC_CLK_TCK"),
        "steal_share": (steal1 - steal0) / max(1, total1 - total0),
        "wall_s": round(time.monotonic() - t0, 3),
    }

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log(f"harness exited {proc.returncode} without a result")
        return proc.returncode or 2
    print("host " + json.dumps(host))
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
