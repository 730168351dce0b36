#!/usr/bin/env python3
"""Benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload matrix --seed 6073486 --seconds 20 --trace 0

Builds the `repro` binary and the harness in release mode (into
`$CARGO_TARGET_DIR`, default `.bench_build`), then runs one workload. The
last line of standard output is the harness's JSON result. See
`perfbench/README.md` for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("matrix", "replay-spill", "serve-warm")
BENCH_DIR = "perfbench"


def build(target_dir):
    """Builds both binaries; cargo's output goes to stderr."""
    steps = (
        ["cargo", "build", "--release", "--offline", "-p", "oscache-bench", "--bin", "repro"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(BENCH_DIR, "harness", "Cargo.toml")],
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in steps:
        subprocess.run(cmd, check=True, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()

    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        print("error: run from the root of an oscache checkout", file=sys.stderr)
        return 2
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(target_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"error: build failed: {e}", file=sys.stderr)
        return 2

    release = os.path.join(target_dir, "release")
    cmd = [
        os.path.join(release, "perfbench"), "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--repro", os.path.join(release, "repro"),
        "--reference", os.path.join(BENCH_DIR, "reference"),
        "--work", ".bench_work",
    ]
    return subprocess.run(cmd, stdin=subprocess.DEVNULL).returncode


if __name__ == "__main__":
    sys.exit(main())
