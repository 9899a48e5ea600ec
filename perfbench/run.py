#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark program and the library
from source into .bench_build/ (Release), runs the workload with the fixed
parameters recorded in perfbench/workloads.json, and prints as the last line
of standard output one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json;
with --trace 1 they are its per_layer metrics, from a run that records spans
around every layer call. The full result (environment block, per-matrix
figures, failures by code) and, for traced runs, the spans are written to
.bench_build/results/. Exits non-zero, without a result line, when the build
or the run fails, and with the result line but a non-zero code when a
product was wrong.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_revision():
    try:
        out = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def check_result(result, wanted, positive):
    """Return a list of problems with `result` against the wanted metrics."""
    problems = []
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            problems.append(f"result lacks {key}")
    if problems:
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    for name, unit in wanted.items():
        m = result["metrics"].get(name)
        if m is None:
            problems.append(f"metric {name} missing")
            continue
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"metric {name} is not a finite number")
        elif positive and v <= 0:
            problems.append(f"metric {name} is {v}, expected > 0")
        if m.get("unit") != unit:
            problems.append(f"metric {name} has unit {m.get('unit')}, expected {unit}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in workloads:
        log(f"unknown workload {args.workload}; known: {', '.join(workloads)}")
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in bench[section]}

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    os.makedirs(RESULTS_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", RESULTS_DIR]
    for key, value in workloads[args.workload]["params"].items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        cmd += ["--param", f"{key}={value}"]
    env = dict(os.environ, PERFBENCH_GIT_DESCRIBE=source_revision())
    # Kernel threads are part of the workload: every thread the program or
    # the engine starts takes OpenMP's count from the environment.
    env["OMP_NUM_THREADS"] = str(workloads[args.workload]["params"]["omp_threads"])
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if not lines:
        log(f"workload {args.workload} printed no result (exit code {proc.returncode})")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"workload {args.workload} printed no result (exit code {proc.returncode})")
        return 1
    problems = check_result(result, wanted, positive=not args.trace)
    if problems:
        for p in problems:
            log(p)
        return 1
    result["metrics"] = {name: result["metrics"][name] for name in wanted}
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"]:
        log(f"workload {args.workload} produced wrong products (exit code {proc.returncode})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
