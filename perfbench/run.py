#!/usr/bin/env python3
"""Build and run the thriftyvid benchmark (see NOTES.md).

One workload, as the benchmark contract runs it (the last stdout line is
the result object):

    python3 perfbench/run.py --workload crowded_cell --seed 1 --seconds 10 --trace 0

Every workload in turn, with a table of the end-to-end metrics and the
output checks (exit status 1 if any check fails):

    python3 perfbench/run.py --all --seed 1 --seconds 10 [--trace 1]

The self-test: each workload's result stream must equal what the
thriftyvid CLI prints for the same flags and seed:

    python3 perfbench/run.py --selftest --seed 1

The harness and the CLI are built from the sources in this checkout into
.bench_build/ on first use.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
HARNESS = os.path.join(BUILD, "perfbench")
CLI = os.path.join(BUILD, "tools", "thriftyvid")
WORKLOADS = ["paper_grid", "crowded_cell", "live_fleet", "leakage_sweep"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then bring the harness and the CLI up to date.

    Build output goes to stderr so stdout carries only results.  A lock
    keeps two concurrent runs from building into the same tree at once.
    """
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no thriftyvid sources under {ROOT}; nothing to benchmark")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "thriftyvid", "-j", "4"])
        for cmd in steps:
            result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if result.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}")


def run_harness(args):
    """Runs the harness; returns (exit code, stdout lines)."""
    try:
        result = subprocess.run([HARNESS] + args, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness timed out after {RUN_TIMEOUT_S} s: {' '.join(args)}")
    return result.returncode, result.stdout.splitlines()


def one(workload, seed, seconds, trace):
    code, lines = run_harness(["--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds),
                               "--trace", str(trace)])
    for line in lines:
        print(line)
    return code


def run_all(seed, seconds, trace):
    """Every workload in its own process; one table, one verdict."""
    ok = True
    for workload in WORKLOADS:
        code, lines = run_harness(["--workload", workload, "--seed",
                                   str(seed), "--seconds", str(seconds),
                                   "--trace", str(trace)])
        if code != 0 or not lines:
            print(f"{workload}: harness exited {code}")
            ok = False
            continue
        if workload == WORKLOADS[0]:
            print(lines[0])  # host and build fingerprint.
        result = json.loads(lines[-1])
        attempted, failed = result["attempted"], result["failed"]
        verdict = "ok" if result["correct"] else "CHECK FAILED"
        ok = ok and result["correct"]
        print(f"{workload}: checks {verdict}")
        for name, metric in result["metrics"].items():
            print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
        print(f"  {'failed_frac':40s} {failed / attempted:.6g} ratio "
              f"({failed} failed of {attempted} attempted)")
    return 0 if ok else 1


def selftest(seed):
    """Harness result streams against the real CLI, workload by workload."""
    out_dir = os.path.join(BUILD, "selftest")
    os.makedirs(out_dir, exist_ok=True)
    ok = True
    for workload in WORKLOADS:
        code, _ = run_harness(["--workload", workload, "--seed", str(seed),
                               "--dump", out_dir])
        with open(os.path.join(out_dir, workload + ".cli")) as f:
            cli_args = f.read().split("\n")[:-1]
        with open(os.path.join(out_dir, workload + ".out")) as f:
            expected = f.read()
        cli = subprocess.run([CLI] + cli_args, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True,
                             timeout=RUN_TIMEOUT_S)
        same = cli.returncode == 0 and cli.stdout == expected
        ok = ok and same and code == 0
        print(f"{workload}: checks {'ok' if code == 0 else 'FAILED'}, "
              f"output {'equals' if same else 'DIFFERS FROM'} "
              f"thriftyvid {' '.join(cli_args)}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if sum([args.workload is not None, args.all, args.selftest]) != 1:
        parser.error("give exactly one of --workload, --all, --selftest")
    build()
    if args.selftest:
        return selftest(args.seed)
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    return one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
