#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The package in this directory is built in
release mode (into $CARGO_TARGET_DIR, default perfbench/target) and run once;
its last line of standard output is the JSON result. A traced run also
writes its spans to <target dir>/perfbench-traces/<workload>-seed<n>.jsonl.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 175


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    # Cargo resolves a relative CARGO_TARGET_DIR against its working directory.
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print(f"run.py: build failed with exit code {built.returncode}", file=sys.stderr)
        return 1

    trace_out = target / "perfbench-traces" / f"{args.workload}-seed{args.seed}.jsonl"
    command = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--trace-out", str(trace_out),
    ]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
