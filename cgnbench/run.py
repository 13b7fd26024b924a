#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result.

    python3 cgnbench/run.py --workload bt_crawl --seed 42 --seconds 25 --trace 0

Run from the root of a checkout. The first call configures and builds the
benchmark binary (cgnbench/CMakeLists.txt, against ../src) under
.bench_build/cgnbench; later calls reuse that build. The binary runs the
workload and checks its outputs; this script prints every metric by name
with its unit, a provenance line, and, as the last line of standard
output, one JSON object (--seconds defaults to BENCHMARK.json's
run_seconds):

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (the traced run also writes its spans to
.bench_build/traces/). Exits non-zero, printing no result, when the
simulator sources or the build are missing or broken.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cgnbench")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"cgnbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    # Serializes concurrent runs of the same checkout around the build.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            steps = []
            if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
                steps.append(["cmake", "-S", HERE, "-B", BUILD,
                              f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
            steps.append(["cmake", "--build", BUILD, "--target", "cgnbench",
                          "-j", str(len(os.sched_getaffinity(0)))])
            for cmd in steps:
                if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  cwd=ROOT).returncode != 0:
                    with open(log_path) as f:
                        sys.stderr.write(f.read()[-4000:])
                    fail("build failed: " + " ".join(cmd))
    binary = os.path.join(BUILD, "cgnbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no binary")
    return binary


def source_digest():
    """sha256 over the simulator and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "cgnbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def compiler():
    """Compiler path and version line from the build's CMake cache."""
    path = ""
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                path = line.split("=", 1)[1].strip()
    r = subprocess.run([path, "--version"], capture_output=True, text=True)
    version = r.stdout.splitlines()[0] if r.returncode == 0 else "unknown"
    return f"{path} ({version})"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("no BENCHMARK.json at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("@cgnbench ")]
    if proc.returncode != 0 or not lines:
        fail(f"benchmark binary exited {proc.returncode} without a result")
    raw = json.loads(lines[-1][len("@cgnbench "):])

    provenance = dict(raw["provenance"])
    provenance.update({
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "compiler": compiler(),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "figures_digest": raw["figures_digest"],
        "seed": args.seed,
        "workload": args.workload,
        "trace": bool(args.trace),
        "unix_time": int(time.time()),
    })

    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            fail(f"binary did not report metric {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']}: unit {got['unit']!r} != "
                 f"BENCHMARK.json's {m['unit']!r}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    results = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump({"provenance": provenance, "result": result,
                   "all_metrics": raw["metrics"]}, f, indent=1)

    width = max(len(n) for n in metrics)
    for n, m in metrics.items():
        print(f"{n:<{width}}  {m['value']:.6g} {m['unit']}")
    print(f"operations: {raw['attempted']} attempted, {raw['failed']} failed")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
