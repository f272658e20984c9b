#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload service --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which pulls in the
library sources under src/) in Release mode into $CARGO_TARGET_DIR
(default .bench_build) under the repository root; later calls only
re-run the incremental build. The binary's human-readable lines are passed
through; its last line -- one JSON object with the keys correct, attempted,
failed and metrics -- is checked against BENCHMARK.json (every end-to-end
metric with --trace 0, every per-layer metric with --trace 1, units as
declared) and printed as the last line. Exit code 0 once a result is
printed; 1 if the build, the run or that check fails, with no result.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out_dir), "-j", jobs, "--target",
         "perfbench", "perfbench_test"],
    ]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))


def declared_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as error:
        fail(f"cannot read {spec_path}: {error}")
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}, [
        w["name"] for w in spec["workloads"]]


def run_one(binary, workload, seed, seconds, trace, echo=True):
    command = [
        str(binary), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
        "--swf", str(HERE / "data" / "pwa_sample.swf"),
        "--trace-out", str(binary.parent / f"trace-{workload}.csv"),
    ]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload}: perfbench exited with {done.returncode}")
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload}: last line is not JSON: {lines[-1][:200]}")
    expected, _ = declared_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        fail(f"{workload}: metrics differ from BENCHMARK.json "
             f"(missing {missing}, extra {extra}, unit mismatch {wrong})")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    out_dir = build_dir()
    build(out_dir)
    if args.selftest:
        sys.exit(subprocess.run([str(out_dir / "perfbench_test")],
                                cwd=ROOT).returncode)
    if not args.workload:
        fail("--workload is required")

    binary = out_dir / "perfbench"
    _, workloads = declared_metrics(bool(args.trace))
    if args.workload != "all":
        if args.workload not in workloads:
            fail(f"unknown workload {args.workload}; one of {workloads}")
        result = run_one(binary, args.workload, args.seed, args.seconds,
                         bool(args.trace))
        print(json.dumps(result))
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        print(f"## {workload}")
        result = run_one(binary, workload, args.seed, args.seconds,
                         bool(args.trace))
        print(f"# attempted={result['attempted']} failed={result['failed']}"
              f" correct={result['correct']}")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
