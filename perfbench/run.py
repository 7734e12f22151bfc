#!/usr/bin/env python3
"""Build and run the archive benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload query_frozen --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the benchmark (perfbench/CMakeLists.txt,
which builds the repository's libraries from source) under .bench_build/;
later calls rebuild only what changed. Archive data and span files go under
.bench_run/. Build output goes to standard error, so the last line of standard
output is the benchmark's result object. The result's metric names are checked
against BENCHMARK.json before it is passed on.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench-" + BUILD_TYPE)
WORK_DIR = os.path.join(ROOT, ".bench_run")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(target):
    """Configures (once) and builds `target`; returns the binary's path."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configuring the benchmark failed")
    command = ["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("building " + target + " failed")
    return os.path.join(BUILD_DIR, target)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return sha.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "sources-" + digest.hexdigest()[:16]


def check_result(line, trace):
    """The last line must be the result object with BENCHMARK.json's names."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are " + ", ".join(sorted(result)))
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = [metric["name"] for metric in wanted]
    if sorted(result["metrics"]) != sorted(names):
        fail("result metrics differ from BENCHMARK.json")
    for metric in wanted:
        if result["metrics"][metric["name"]]["unit"] != metric["unit"]:
            fail("unit of " + metric["name"] + " differs from BENCHMARK.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
    if not args.workload:
        parser.error("--workload is required")

    binary = build("perfbench")
    os.makedirs(WORK_DIR, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR, "--git-sha", source_id()]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail("the benchmark exited with code %d" % run.returncode)
    check_result(lines[-1], args.trace == 1)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
