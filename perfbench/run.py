#!/usr/bin/env python3
"""Builds the serving-stack benchmark and runs one workload.

    python3 perfbench/run.py --workload hit --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  The first run configures and
builds perfbench/ (which compiles src/ unchanged) into the directory
named by CARGO_TARGET_DIR, or .bench_build; later runs only rebuild
what changed.  Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.  See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hit", "miss", "routed", "bulk")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds xt_perfbench; returns its path."""
    cmake = shutil.which("cmake")
    if cmake is None:
        sys.exit("run.py: cmake not found")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = [cmake, "-S", HERE, "-B", build_dir]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            sys.exit("run.py: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = [cmake, "--build", build_dir, "--target", "xt_perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: build failed")
    return os.path.join(build_dir, "xt_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", choices=("dilation", "drop"),
                        help="self-test: corrupt one answer (served workloads)")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    build_dir = os.path.join(target, "perfbench")
    run_dir = os.path.join(target, "run")
    os.makedirs(run_dir, exist_ok=True)
    binary = build(build_dir)

    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--run-dir={run_dir}"]
    if args.tamper:
        command.append(f"--tamper={args.tamper}")
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
