#!/usr/bin/env python3
"""Builds and runs the CachePortal site benchmark.

Run from the root of a checkout:

    python3 portalbench/run.py --workload browse --seed 1 --seconds 20 --trace 0

The first run configures and builds the library and the benchmark (Release)
into $CARGO_TARGET_DIR, or .bench_build when it is unset; later runs reuse
the build. Build output goes to stderr. The benchmark's report goes to
stdout, and its last line is one JSON object with the keys correct,
attempted, failed and metrics. Scratch files (the churn workload's WAL
directory, the traced run's span dump) go to .bench_work.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns its path."""
    configured = any(os.path.exists(os.path.join(build_dir, name))
                     for name in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "portalbench",
                    "-j", "3"], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "portalbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["browse", "churn", "edge"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"portalbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(ROOT, ".bench_work")]
    try:
        # A run measures for --seconds and may overrun by one pass.
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=4 * args.seconds + 60)
    except subprocess.TimeoutExpired:
        print("portalbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
