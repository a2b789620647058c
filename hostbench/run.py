#!/usr/bin/env python3
"""Host-wall benchmark entry point.

    python3 hostbench/run.py --workload serve_mixed|dense_sweep|tree_clustered \
        --seed N --seconds S --trace 0|1

Builds ksum-hostbench from this checkout (Release, into
$CARGO_TARGET_DIR/hostbench, default .bench_build/hostbench), runs one
workload, echoes the binary's report, stores its full record under
<build dir>/results/, and prints as the last line the result object:
{"correct", "attempted", "failed", "metrics"} with the end_to_end metrics of
BENCHMARK.json (--trace 0) or its per_layer metrics (--trace 1).

Exit codes: 0 ok, 1 an output check failed, 2 bad arguments, 3 the build or
the run failed (no result line is printed then).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_mixed", "dense_sweep", "tree_clustered")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def log(message):
    print(f"hostbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the harness; returns its path or None."""
    # At most four compile jobs: each C++ job can take several hundred MB.
    jobs = str(min(4, max(1, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "ksum-hostbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step failed: {err}")
            return None
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log(f"build step failed: {' '.join(step)}")
            return None
    return os.path.join(build_dir, "ksum-hostbench")


def contract_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        log("--seed must be >= 0 and --seconds in [1, 600]")
        return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "hostbench")
    binary = build(build_dir)
    if binary is None:
        return 3
    try:
        expected = contract_metrics(args.trace)
    except (OSError, KeyError, ValueError) as err:
        log(f"cannot read BENCHMARK.json: {err}")
        return 3

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # The host BLAS behind the cuBLAS model and the host backends is
    # OpenMP: one thread per call, sleeping when idle, so the library adds
    # no threads of its own to the workload's (its results do not depend on
    # the thread count).
    env = dict(os.environ, OMP_NUM_THREADS="1", OMP_WAIT_POLICY="PASSIVE")
    started = time.monotonic()
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False, cwd=ROOT,
                              env=env)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"run failed: {err}")
        return 3
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 1) or not lines:
        sys.stdout.write(done.stdout)
        log(f"ksum-hostbench exited with {done.returncode}")
        return 3
    try:
        record = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        log("ksum-hostbench printed no record")
        return 3
    record["run_seconds"] = time.monotonic() - started
    for line in lines[:-1]:
        print(line)

    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    sheet = record["layers" if args.trace else "end_to_end"]
    metrics = {}
    for metric in expected:
        measured = sheet.get(metric["name"])
        if measured is None or measured["unit"] != metric["unit"]:
            log(f"metric {metric['name']} [{metric['unit']}] missing from "
                "the record")
            return 3
        metrics[metric["name"]] = {"value": measured["value"],
                                   "unit": metric["unit"]}
    correct = done.returncode == 0 and record["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
