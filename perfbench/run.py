#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one workload.

Usage, from the root of a checkout:
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the repository's libraries plus
perfbench/ into .bench_build/ (Release); later runs reuse that build. The
program prints every metric it measured; this script repeats its report and
narrows the last line to the metrics BENCHMARK.json names: end_to_end with
--trace 0, per_layer with --trace 1. It exits non-zero without a result line
when the build fails, perfbench fails, or a named metric is missing.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "release")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", ROOT, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
             "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(ROOT, "perfbench", "attach.cmake")],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["per_layer" if args.trace == "1" else "end_to_end"]]
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    traces = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(traces, exist_ok=True)
    out_path = os.path.join(traces, f"{args.workload}-seed{args.seed}.json")
    try:
        # A hung program (a lost wake-up, say) is killed, and the run fails.
        proc = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", args.seed, "--seconds", args.seconds,
             "--trace", args.trace, "--trace-out", out_path],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=2 * float(args.seconds) + 120)
    except subprocess.TimeoutExpired:
        print("run.py: perfbench did not finish in time", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]))
    if proc.returncode != 0 or not lines:
        print(lines[-1] if lines else "", file=sys.stderr)
        print(f"run.py: perfbench exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        print(f"run.py: metrics missing from the run: {missing}", file=sys.stderr)
        return 1
    result["metrics"] = {n: result["metrics"][n] for n in names}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
