#!/usr/bin/env python3
"""Build and run the LSH Ensemble benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload batch|serve|ingest|all \
        [--seed N] [--seconds S] [--trace 0|1]

The first run configures and builds the library and the perfbench binary
in .bench_build/ (release build); later runs only re-check the build.
Each run prints the binary's report; its last stdout line is one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 1 the metrics are the per-layer ones and the spans are written
to .bench_build/traces/<workload>.spans.tsv. `--workload all` runs every
workload in turn and ends with one JSON object whose metric names are
prefixed with the workload name.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("batch", "serve", "ingest")
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build; build output goes to a log file."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "sharded_ensemble.h")):
        fail(f"library sources not found under {ROOT}/src")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if done.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed (see {log_path})")


def run_timeout_s(seconds, trace):
    """Set-up and phases scale with --seconds; a traced run runs twice."""
    return (40 + 3 * seconds) * (2 if trace else 1)


def run_one(workload, seed, seconds, trace):
    """Run one workload; returns (exit code, stdout lines, result or None)."""
    work_dir = os.path.join(BUILD_DIR, "work", f"{workload}-{os.getpid()}")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work_dir]
    if trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, f"{workload}.spans.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=run_timeout_s(seconds, trace),
                              check=False)
        output, code = proc.stdout, proc.returncode
    except subprocess.TimeoutExpired as timeout:
        output, code = timeout.stdout or "", 1
        if isinstance(output, bytes):
            output = output.decode(errors="replace")
        print(f"perfbench: {workload} timed out", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = output.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        pass
    return code, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be >= 1")

    build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        code, lines, result = run_one(workload, args.seed, args.seconds,
                                      args.trace)
        if result is not None and result.get("correct") is False:
            # A correctness gate failed: report it and exit non-zero.
            print("\n".join(lines))
            fail(f"{workload}: correctness gate failed")
        if result is None or code != 0:
            # Pass the binary's output through, but never a result line.
            print("\n".join(lines if result is None else lines[:-1]))
            fail(f"{workload} failed (exit code {code})")
        if len(workloads) == 1:
            print("\n".join(lines))
            return
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
