#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark (bench/pipeline/README.md).

One run, as the benchmark contract in BENCHMARK.json names it:

    python3 bench/pipeline/run.py --workload large-default --seed 1 \
        --seconds 15 --trace 0 [--trace-out FILE]

prints the harness's full result, then as its last line one JSON object
with "correct", "attempted", "failed" and "metrics", where the metrics
are BENCHMARK.json's end_to_end list (--trace 0) or per_layer list
(--trace 1).

The whole suite (every workload untraced, then traced, one process each):

    python3 bench/pipeline/run.py --suite [--seed N] [--seconds S] [--out FILE]

merges the results into one JSON document with nproc, the seed and the
git revision. Both modes first configure and build build-bench/ in
Release; later runs only re-check the build.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / "build-bench"
BINARY = BUILD / "cimmlc_bench"


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no cimmlc sources to build the benchmark from")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "bench" / "pipeline"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", str(BUILD), "--target", "cimmlc_bench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("building the benchmark failed: " + " ".join(step))


def run_harness(workload, seed, seconds, trace, trace_out=None):
    """Runs one workload in its own process; returns (exit code, result)."""
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace_out:
        command += ["--trace-out", str(Path(trace_out).resolve())]
    # The build directory is the working directory, so the daemon's Unix
    # socket (a relative path) lands there.
    done = subprocess.run(command, cwd=BUILD, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(done.stdout, file=sys.stderr)
        print(f"run.py: the harness printed no result (exit {done.returncode})",
              file=sys.stderr)
        sys.exit(1)


def contract_line(result, names):
    metrics = result["metrics"]
    missing = [name for name in names if name not in metrics]
    if missing:
        print(f"run.py: the harness did not report {', '.join(missing)}", file=sys.stderr)
        sys.exit(1)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: metrics[name] for name in names}}


def git_revision():
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, capture_output=True, text=True).stdout.strip()
        return rev + ("+dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def suite(spec, seed, seconds, out):
    doc = {"schema": "cimmlc.bench.pipeline.v1", "seed": seed, "seconds": seconds,
           "nproc": os.cpu_count(), "git_revision": git_revision(), "workloads": {}}
    ok = True
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = {}
        for trace in (False, True):
            code, result = run_harness(name, seed, seconds, trace)
            ok = ok and code == 0
            runs["traced" if trace else "untraced"] = result
        untraced_rps = runs["untraced"]["metrics"]["throughput_rps"]["value"]
        traced_rps = runs["traced"]["metrics"]["throughput_rps"]["value"]
        # traced wall per request over untraced wall per request
        runs["trace.overhead_ratio"] = untraced_rps / traced_rps if traced_rps else 0.0
        doc["workloads"][name] = runs
        print(f"run.py: {name} done", file=sys.stderr)
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--suite", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    build()
    if args.suite:
        return suite(spec, args.seed, seconds, args.out)
    if not args.workload:
        fail("--workload is required (or --suite)")
    code, result = run_harness(args.workload, args.seed, seconds, args.trace == 1,
                               args.trace_out)
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps(result))
    print(json.dumps(contract_line(result, names)))
    return code


if __name__ == "__main__":
    sys.exit(main())
