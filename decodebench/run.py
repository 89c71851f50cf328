#!/usr/bin/env python3
"""Build and run the csecg decode benchmark.

Run from the repository root:

    python3 decodebench/run.py --workload hybrid_ref --seed 2015 --seconds 20 --trace 0
    python3 decodebench/run.py --workload hybrid_ref --trace 1
    python3 decodebench/run.py --workload hybrid_ref --write-reference

The first call configures and builds decodebench/ (which pulls in the csecg
libraries from the repository root) into .bench_build/decodebench in Release
mode; later calls only re-check the build.  Build output goes to stderr.  The
benchmark's last stdout line is its JSON result; this script exits with the
benchmark's exit code.  Traced runs write their spans to
.bench_build/decodebench/spans-<workload>-<seed>.json.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "decodebench")
BINARY = os.path.join(BUILD, "decodebench")
# The benchmark measures the shipping defaults: none of the library's
# environment switches may leak in from the caller.
CLEARED_ENV = ("CSECG_TRACE", "CSECG_TRACE_CAPACITY", "CSECG_LEDGER",
               "CSECG_THREADS")


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"decodebench: {needed} is missing from the repository "
                  "root, so there is nothing to build", file=sys.stderr)
            return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "decodebench",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=850)
        if result.returncode != 0:
            print(f"decodebench: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return False
    return True


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True, timeout=30)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["hybrid_ref", "normal_cr50", "lossy_link"])
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="rerun the window set at 30000 iterations and "
                             "store its per-window SNRs in decodebench/")
    args = parser.parse_args()

    if not build():
        return 1
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    spans = os.path.join(BUILD, f"spans-{args.workload}-{args.seed}.json")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference-dir", HERE, "--commit", commit()]
    if args.trace:
        cmd += ["--spans", spans]
    if args.write_reference:
        cmd.append("--write-reference")
    try:
        return subprocess.run(cmd, env=env, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("decodebench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
