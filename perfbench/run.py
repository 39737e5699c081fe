#!/usr/bin/env python3
"""Builds and runs the nucleus-hierarchy benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds the `perfbench` package in
release mode (into $CARGO_TARGET_DIR, default `.bench_build`), generates
the workload's inputs from the seed in one process, then runs the
workload on those files in a second process, whose last output line is
the JSON result. Any failure exits non-zero without printing a result.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("build-truss", "build-nucleus34", "serve-read", "serve-mutable")
# Longest input generation plus run may take once built; the build
# itself is not bounded here.
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False,
    )
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed ({build.returncode})")
    binary = os.path.join(target, "release", "perfbench")

    work = os.path.join(target, "perfbench-runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", work]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        gen = subprocess.run([binary, "gen", *common], timeout=RUN_TIMEOUT_S, check=False)
        if gen.returncode != 0:
            sys.exit(f"perfbench: input generation failed ({gen.returncode})")
        cmd = [binary, "run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        run = subprocess.run(cmd, timeout=max(1.0, deadline - time.monotonic()),
                             capture_output=True, text=True, check=False)
        sys.stderr.write(run.stderr)
        if run.returncode != 0:
            sys.stderr.write(run.stdout)
            sys.exit(f"perfbench: run failed ({run.returncode})")
        sys.stdout.write(run.stdout)
    except subprocess.TimeoutExpired as e:
        sys.exit(f"perfbench: timed out: {e}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
