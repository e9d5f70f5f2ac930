#!/usr/bin/env python3
"""Serving benchmark for QuantileFilter: build, run, report.

Run from the root of a checkout:

    python3 perfbench/run.py --workload internet-serve --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --self-test

The first form builds qf_server, qf_cluster and the load generator from the
checkout's sources (into $CARGO_TARGET_DIR, default .bench_build), runs one
measurement and passes the generator's output through; its last line is one
JSON object with the keys correct, attempted, failed and metrics. --trace 1
runs the traced layer ladder instead and writes its spans as
chrome://tracing JSON under the build directory.

--workload all runs every workload in turn and ends with one JSON object
whose metrics are named WORKLOAD.METRIC; it exits non-zero if any workload
does.

--self-test runs the benchmark's unit tests and the must-fail leg: a run whose
mirror uses another filter seed must be reported as incorrect and exit
non-zero.

See perfbench/README.md for the workloads, the metrics and how they were
made steady.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGETS = ["qf_server", "qf_cluster_tool", "qf_perfbench", "perfbench_test"]
# The workloads defined in src/workload.cc, in the order --workload all runs them.
WORKLOADS = ["internet-serve", "cloud-durable", "internet-cluster"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))


def build():
    """Configures and builds the needed targets; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "net", "protocol.h")):
        log("repository sources (src/) not found next to perfbench/; nothing to build")
        return None
    out = build_dir()
    cmake_dir = os.path.join(out, "cmake")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs, "--target"] + TARGETS)
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return cmake_dir


def run_generator(cmake_dir, args, extra=()):
    """Runs one measurement; returns (exit code, stdout lines)."""
    run_dir = os.path.join(build_dir(), f"run-{os.getpid()}")
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [
        os.path.join(cmake_dir, "qf_perfbench"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--bin-dir={os.path.join(cmake_dir, 'qf', 'tools')}",
        f"--run-dir={run_dir}",
        f"--trace-out={os.path.join(trace_dir, f'{args.workload}-seed{args.seed}.json')}",
    ] + list(extra)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The generator's SUT children die with it (PR_SET_PDEATHSIG).
        proc.kill()
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1, []
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return proc.returncode, stdout.splitlines()


def self_test(cmake_dir):
    ok = True
    log("unit tests")
    # Keep the tests' scratch files inside the checkout.
    env = dict(os.environ, TEST_TMPDIR=build_dir())
    if subprocess.run([os.path.join(cmake_dir, "perfbench_test")], env=env).returncode != 0:
        ok = False
        log("unit tests FAILED")
    log("must-fail leg: the mirror uses another filter seed")
    args = argparse.Namespace(workload="internet-serve", seed=1, seconds=2, trace=0)
    code, lines = run_generator(cmake_dir, args, ["--mirror-seed=12345"])
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if code != 0 and result is not None and not result["correct"] and result["failed"] > 0:
        log(f"must-fail leg failed as it must ({result['failed']} of "
            f"{result['attempted']} checks)")
    else:
        ok = False
        log(f"must-fail leg did NOT fail (exit {code})")
    print(json.dumps({"self_test": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    cmake_dir = build()
    if cmake_dir is None:
        return 2
    if args.self_test:
        return self_test(cmake_dir)
    if args.workload != "all":
        code, lines = run_generator(cmake_dir, args)
        print("\n".join(lines), flush=True)
        return code
    worst = 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, lines = run_generator(cmake_dir, argparse.Namespace(**{**vars(args), "workload": workload}))
        print(f"== {workload} (exit {code})")
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, code)
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if result is None:
            total["correct"] = False
            continue
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
