#!/usr/bin/env python3
"""Repository benchmark: build the simulator and measure one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (a CMake package that compiles ../src) into
.bench_build/perfbench, runs the workload in its own process, checks its
result, and prints it as the last line of standard output:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones and writes .bench_out/<workload>-seed<n>.trace.json
(Chrome-trace spans for Perfetto) and .layers.tsv.

Also:
    --workload all     run every workload, one process each, and print a table
    --selftest         build and run the benchmark's own tests

See perfbench/README.md for the metrics and workloads.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configure the benchmark package and build `target`; raises on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for a run with this --trace."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(workload, seed, seconds, trace):
    """Run one workload in its own process; return its checked result."""
    cmd = [str(BUILD / "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0", "--out", str(OUT)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line, flush=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise RuntimeError(f"{workload}: unexpected result keys {sorted(result)}")
    want = declared_metrics(trace)
    if sorted(result["metrics"]) != sorted(want):
        missing = sorted(set(want) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(want))
        raise RuntimeError(f"{workload}: metrics differ from BENCHMARK.json: "
                           f"missing {missing}, extra {extra}")
    if result["attempted"] < 1:
        raise RuntimeError(f"{workload}: attempted no operation")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    try:
        build("perfbench_tests" if args.selftest else "perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    if args.selftest:
        tests = BUILD / "perfbench_tests"
        if not tests.exists():
            log("perfbench: GoogleTest not found; self-tests were not built")
            return 1
        return subprocess.run([str(tests)], cwd=ROOT).returncode

    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
            print(json.dumps(result), flush=True)
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        rows = []
        for w in spec["workloads"]:
            result = run_workload(w["name"], args.seed, args.seconds, args.trace)
            rows.append((w["name"], result))
        print(f"\n{'workload':<16} {'metric':<36} {'value':>16}  unit")
        for name, result in rows:
            print(f"{name:<16} {'fail_rate':<36} "
                  f"{result['failed'] / result['attempted']:>16.6g}  ratio")
            for metric, v in result["metrics"].items():
                print(f"{name:<16} {metric:<36} {v['value']:>16.6g}  {v['unit']}")
        return 0 if all(r["correct"] for _, r in rows) else 1
    except (RuntimeError, ValueError, subprocess.TimeoutExpired, OSError) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
