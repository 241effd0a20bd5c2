#!/usr/bin/env python3
"""Build and run the repo benchmark: host cost per simulated job, by layer.

Run from the repository root:

    python3 jobbench/run.py --workload testbed_tuning --seed 1 --seconds 30 --trace 0
    python3 jobbench/run.py --workload all           # every workload, plain and traced
    python3 jobbench/run.py --self-test              # the benchmark's own arithmetic
    python3 jobbench/run.py --workload all --baseline-out jobbench/baseline.json

The default seed is 1; seed 90210 is held out for re-checking claims.

The first call configures and builds the simulator from src/ together with
the benchmark into .bench_build/ (Release). Build output goes to stderr, so
the last line of stdout is always the benchmark's JSON result. README.md
beside this file describes the workloads and the metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("testbed_tuning", "datacenter_faults", "offline_search")
PLAN = os.path.join("bench", "plans", "permacrash_terasort.plan")
DEFAULT_SEED = 1
# Every run must end within 180 s, whatever --seconds asks for.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"jobbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure on first use, then bring both binaries up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources at src/; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j",
                  str(min(4, os.cpu_count() or 1)),
                  "--target", "jobbench", "jobbench_selftest"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_workload(workload, seed, seconds, trace):
    """Run one workload; return its stdout and the parsed JSON result."""
    cmd = [os.path.join(BUILD, "jobbench"), f"--workload={workload}",
           f"--seed={seed}", f"--seconds={seconds}", f"--trace={trace}",
           f"--plan={PLAN}"]
    if trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd.append("--spans-out=" +
                   os.path.join(spans_dir, f"{workload}-seed{seed}.json"))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} ran past {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{workload} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{workload} printed no JSON result")
    return proc.stdout, result


def header(stdout):
    """The build and digest facts the benchmark prints before its metrics."""
    facts = {}
    for line in stdout.splitlines():
        words = line.split()
        if words[:1] == ["workload"]:
            facts["build_type"] = words[words.index("build_type") + 1]
            facts["hardware_concurrency"] = int(
                words[words.index("hardware_concurrency") + 1])
        elif words[:1] == ["sim_digest"]:
            facts["sim_digest"] = words[1]
    return facts


def run_all(args):
    """Every workload, plain then traced; a combined result as last line."""
    ledger = {}
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            stdout, result = run_workload(workload, args.seed, args.seconds,
                                          trace)
            sys.stdout.write(stdout)
            mode = "traced" if trace else "plain"
            entry = ledger.setdefault(workload, {})
            entry.update(header(stdout))
            entry[mode] = result
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                summary["metrics"][f"{workload}/{name}"] = metric
    if args.baseline_out:
        first = ledger[WORKLOADS[0]]
        doc = {
            "schema": 1,
            "recorded": time.strftime("%Y-%m-%d"),
            "build_type": first["build_type"],
            "hardware_concurrency": first["hardware_concurrency"],
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "seconds": args.seconds,
            "workloads": ledger,
        }
        with open(args.baseline_out, "w") as out:
            json.dump(doc, out, indent=1, sort_keys=True)
            out.write("\n")
    print(json.dumps(summary))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--baseline-out",
                    help="with --workload all: write the ledger to FILE")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload or --self-test is required")
    build()
    if args.self_test:
        sys.exit(subprocess.run([os.path.join(BUILD, "jobbench_selftest")])
                 .returncode)
    if args.workload == "all" or args.baseline_out:
        run_all(args)
        return
    stdout, _ = run_workload(args.workload, args.seed, args.seconds,
                             args.trace)
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
