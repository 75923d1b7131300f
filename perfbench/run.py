#!/usr/bin/env python3
"""Builds and runs the nfbist benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is a Rust package of its own (``perfbench/Cargo.toml``)
with path dependencies on the library crates. This script builds it in
release mode (offline, into ``$CARGO_TARGET_DIR`` or ``.bench_build``),
runs one workload in a fresh process, so the workload's peak resident
memory is its own, and passes the program's output through. The last
line of the output is the result object; the script checks its shape
and exits non-zero if the build, the run or the result is broken.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
WORKLOADS = ("paper_measurement", "lot_screen", "monitor_fleet")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    return parser.parse_args()


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(target):
    """Builds the benchmark binary; returns its path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"build failed with exit code {done.returncode}", file=sys.stderr)
        return None
    return os.path.join(target, "release", "nfbist-perfbench")


def commit():
    """The checkout's git commit, or "unknown" when the checkout is not a
    git repository. Git is kept from searching the parent directories."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        head = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    metrics = result["metrics"]
    return (
        isinstance(result["attempted"], int)
        and result["attempted"] >= 1
        and isinstance(result["failed"], int)
        and isinstance(metrics, dict)
        and all(
            isinstance(m, dict) and isinstance(m.get("value"), (int, float)) and "unit" in m
            for m in metrics.values()
        )
    )


def main():
    args = parse_args()
    if not os.path.isfile(MANIFEST):
        print(f"missing {MANIFEST}", file=sys.stderr)
        return 1
    binary = build(target_dir())
    if binary is None:
        return 1
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--commit", commit(),
    ]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not valid_result(lines[-1]):
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
        print(f"benchmark failed with exit code {done.returncode}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
