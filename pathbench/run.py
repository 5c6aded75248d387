#!/usr/bin/env python3
"""Build and run the packet-path benchmark (see README.md here).

Run from the root of a checkout:

  python3 pathbench/run.py --workload warm_250 --seed 1 --seconds 10 --trace 0
  python3 pathbench/run.py --workload cold_k8s --trace 1   # per-layer ledger
  python3 pathbench/run.py                                 # every workload
  python3 pathbench/run.py --selftest                      # digest self-test

The first call configures and builds the simulator from ../src into
.bench_build/pathbench (Release).  Build output goes to stderr; the last
line of stdout is the benchmark's JSON result.  The exit status is non-zero
when the build or any correctness, shape, steady-state or digest check
fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "pathbench"
BINARY = BUILD / "pathbench"
WORKLOADS = ["warm_250", "reinstall_250", "cold_k8s"]
JOBS = "4"


def build():
    """Configure (once) and build the benchmark; False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"pathbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "pathbench",
                  "-j", JOBS])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns (exit code, stdout lines, last-line JSON
    or None)."""
    proc = subprocess.run(
        [str(BINARY), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def run_all(args):
    """Every workload in turn, with a summary table and one JSON line."""
    status = 0
    attempted = failed = 0
    correct = True
    table = []
    for name in WORKLOADS:
        code, lines, result = run_workload(name, args.seed, args.seconds,
                                           args.trace)
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if result is None:
            status = code or 1
            correct = False
            continue
        status = status or code
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        table.append((name, result))
    for name, result in table:
        share = result["failed"] / result["attempted"]
        cells = [f"{key} {m['value']:.4g} {m['unit']}"
                 for key, m in result["metrics"].items()]
        cells.append(f"failed {share:.2%} of {result['attempted']}")
        print(f"{name:14s} " + " | ".join(cells))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {f"{name}/{key}": m
                                  for name, result in table
                                  for key, m in result["metrics"].items()}}))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run each workload twice and compare digests")
    args = parser.parse_args()

    if not build():
        return 2
    if args.selftest:
        return subprocess.run([str(BINARY), "--selftest"]).returncode
    if args.workload == "all":
        return run_all(args)
    # One workload: the binary's stdout is the benchmark's stdout.
    return subprocess.run(
        [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)]
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
