#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload deconvolve --seed 1 --seconds 30 --trace 0

It builds perfbench/bench.exe with dune (the first build compiles the
repository's libraries from source), runs one workload and passes its
output through. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is the benchmark's:
0 when every output check passed, non-zero otherwise or when the build
fails (then no result is printed).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("deconvolve", "batch", "bootstrap")
TARGET = "./perfbench/bench.exe"
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
# Set-up, the warm-up request and process start-up on top of --seconds.
RUN_SLACK_S = 120


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def build():
    if not os.path.isfile("dune-project"):
        print("run.py: no dune-project here; run from the repository root", file=sys.stderr)
        return False
    dune = dune_command()
    if dune is None:
        print("run.py: dune not found", file=sys.stderr)
        return False
    # The shared dune cache lives outside the checkout; keep every build
    # artefact under _build instead.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            dune + ["build", "--root", ".", "--display", "quiet", TARGET],
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return False
    return proc.returncode == 0 and os.path.isfile(EXE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not build():
        return 2
    command = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=args.seconds + RUN_SLACK_S
        )
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys")
    except (IndexError, ValueError) as e:
        print(f"run.py: no result line ({e})", file=sys.stderr)
        return proc.returncode or 4
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
