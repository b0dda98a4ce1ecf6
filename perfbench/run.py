#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload planted-chain --seed 1 --seconds 50 --trace 0

Builds perfbench/ (the kvcc library from this checkout's sources, Release,
plus the driver in perfbench/src) under .bench_build/, generates the
workload's inputs from --seed under .bench_build/work/, runs the driver and
relays its output. The last stdout line is the result object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Build output goes to stderr. Workloads: planted-chain, suite-sweep (see
src/main.cc).
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("planted-chain", "suite-sweep")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("perfbench: the kvcc sources (CMakeLists.txt, src/) are not "
                 "beside perfbench/; run from a full checkout")
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "kvcc_perfbench", "-j", "4"],
        stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "kvcc_perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    binary = build()
    work = os.path.join(BUILD, "work", "%s-%d" % (args.workload, args.seed))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        result = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--work", work,
             "--digests", os.path.join(HERE, "suite_digests.txt")],
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
