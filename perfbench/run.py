#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 10 --trace 0

Builds the hsparql libraries and the perfbench binary (Release) under
.bench_build/perfbench on first use, runs one workload and prints the
binary's output. The last line is the result object
{"correct", "attempted", "failed", "metrics"}; its metric names are
checked against BENCHMARK.json (end_to_end with --trace 0, per_layer
with --trace 1). Exits non-zero, printing no result, when the checkout
has no hsparql sources or the build fails.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("lookup", "analytic", "write-mix")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                     os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.isfile(required):
            fail("run from the root of an hsparql checkout (missing %s)" %
                 required)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr,
                          check=False).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr,
                      check=False).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-sha", git_sha()]
    if args.trace:
        command += ["--spans-out", os.path.join(
            BUILD_DIR, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("perfbench exited with code %d" % run.returncode)
    result = json.loads(lines[-1])
    names = set(result["metrics"])
    wanted = expected_metrics(args.trace)
    if names != wanted:
        print("perfbench: metrics differ from BENCHMARK.json: missing %s, "
              "extra %s" % (sorted(wanted - names), sorted(names - wanted)),
              file=sys.stderr)
        result["correct"] = False
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
