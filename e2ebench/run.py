#!/usr/bin/env python3
"""Builds and runs the end-to-end advise-cycle benchmark.

One run (the form BENCHMARK.json names):
    python3 e2ebench/run.py --workload plan_heavy --seed 7 --seconds 40 --trace 0

Steadiness report (runs the whole set twice and prints every end-to-end
metric's spread and the shift between the two sets against its bound):
    python3 e2ebench/run.py --steadiness [--runs 10] [--workloads a,b]

Harness test (tracing must not change what Pipeline::RunCycle produces):
    python3 e2ebench/run.py --test

The program is built from the sources next to this directory in
.bench_build/ at the repository root (Release). The last line of a run's
standard output is the result JSON of advise_bench.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
EXPECTED = HERE / "expected.json"
RUN_TIMEOUT_S = 170
# The library reads ETLOPT_* variables (tap budget, calibration, kernels,
# faults, profiler, obs switch); none of them may change what is measured.
BENCH_ENV = {k: v for k, v in os.environ.items() if not k.startswith("ETLOPT_")}


def build(target):
    """Configures (once) and builds `target`; returns the binary's path."""
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit("e2ebench: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", str(BUILD), "--target", target, "--parallel", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        sys.exit("e2ebench: build failed")
    return BUILD / target


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs advise_bench once; returns its result object."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--expect", str(EXPECTED)]
    if trace:
        cmd += ["--spans-out", str(BUILD / f"spans-{workload}-{seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, env=BENCH_ENV)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"e2ebench: advise_bench exited with {proc.returncode}")
    if echo:
        print("\n".join(lines), flush=True)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("e2ebench: malformed result line")
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def steadiness(binary, spec, runs, seconds, workloads):
    """Two sets of `runs` seeds per workload; reports spread and shift."""
    metrics = spec["end_to_end"]
    sets = []
    for set_index in range(2):
        values = {}
        for workload in workloads:
            for i in range(runs):
                seed = 1000 * (set_index + 1) + i
                result = run_once(binary, workload, seed, seconds, 0, echo=False)
                if not result["correct"]:
                    print(f"{workload} seed {seed}: outputs incorrect",
                          flush=True)
                for m in metrics:
                    values.setdefault((workload, m["name"]), []).append(
                        result["metrics"][m["name"]]["value"])
                print(f"set {set_index + 1} {workload} seed {seed} done",
                      file=sys.stderr, flush=True)
        sets.append(values)

    ok = True
    print(f"{'workload':16} {'metric':16} {'median1':>12} {'median2':>12} "
          f"{'spread1':>8} {'spread2':>8} {'shift':>8} {'bound':>6}  verdict")
    for workload in workloads:
        for m in metrics:
            key = (workload, m["name"])
            a, b = sets[0][key], sets[1][key]
            med_a, med_b = statistics.median(a), statistics.median(b)
            sign = 1 if m["better"] == "lower" else -1
            shift = sign * (med_b - med_a) / med_a if med_a else 0.0
            s_a, s_b = spread(a), spread(b)
            bound = m["bound"]
            verdict = "ok" if max(s_a, s_b) <= bound and shift <= bound \
                else "FAIL"
            if verdict == "ok" and max(s_a, s_b) > bound / 3:
                verdict = "ok (spread > bound/3)"
            ok = ok and verdict != "FAIL"
            print(f"{workload:16} {m['name']:16} {med_a:12.6g} {med_b:12.6g} "
                  f"{s_a:8.4f} {s_b:8.4f} {shift:8.4f} {bound:6.3f}  {verdict}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads")
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.test:
        sys.exit(subprocess.run([str(build("bench_cycle_test"))],
                                env=BENCH_ENV).returncode)
    binary = build("advise_bench")
    if args.steadiness:
        workloads = (args.workloads.split(",") if args.workloads
                     else [w["name"] for w in spec["workloads"]])
        sys.exit(0 if steadiness(binary, spec, args.runs, seconds, workloads)
                 else 1)
    if not args.workload:
        parser.error("--workload is required")
    run_once(binary, args.workload, args.seed, seconds, args.trace)


if __name__ == "__main__":
    main()
