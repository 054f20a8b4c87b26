#!/usr/bin/env python3
"""Build and run the LS3DF benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first call configures and builds
the driver (perfbench/CMakeLists.txt compiles the library from src/) in
.bench_build/; later calls rebuild only what changed. The driver's
standard output is passed through; its last line is the run's JSON
record. Without the library sources the script exits with code 2 and
prints no record.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("alloy_scf", "chain_sharded")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "fragment", "ls3df.h")):
        fail(f"no LS3DF sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j",
                      str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}")
    exe = os.path.join(BUILD, "ls3df_perfbench")
    if not os.path.isfile(exe):
        fail("build produced no ls3df_perfbench")
    return exe


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    exe = build()
    os.makedirs(WORK, exist_ok=True)
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--workdir", WORK]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{a.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(out if not lines[-1].startswith("{") else
                         "\n".join(lines[:-1]) + "\n")
        fail(f"driver exited with code {proc.returncode}", 1)
    try:
        record = json.loads(lines[-1])
        assert set(record) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stdout.write(out)
        fail("driver printed no result record", 1)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
