#!/usr/bin/env python3
"""Steadiness check: is the benchmark quiet enough to judge a change by?

    python3 cgnbench/steady.py [--runs 10] [--seeds 1,2] [--sets 2]
                               [--workloads bt_crawl,...] [--seconds S]

Runs each workload --runs times per set (seeds alternating over --seeds),
untraced, through run.py, and prints for every end-to-end metric of
BENCHMARK.json the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median next
to the metric's bound. A spread above a third of the bound is marked
"NOISY", setup_s included. With --sets 2 the whole batch runs twice and
the second set's median is compared with the first's: a shift worse than
the bound is marked "SHIFT". Every run's result line is appended to
.bench_build/steady/<workload>.jsonl. Exits 1 when any run failed its
output check or any metric was marked.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def worse(spec, a, b):
    """Relative amount by which b is worse than a (negative: better)."""
    if a == 0:
        return 0.0
    d = (b - a) / a
    return d if spec["better"] == "lower" else -d


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    out_dir = os.path.join(ROOT, ".bench_build", "steady")
    os.makedirs(out_dir, exist_ok=True)

    bad = False
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = seeds[i % len(seeds)]
                r = run_once(workload, seed, args.seconds)
                if r is None or not r["correct"]:
                    print(f"{workload} seed {seed}: run failed: {r}")
                    bad = True
                    continue
                with open(os.path.join(out_dir, workload + ".jsonl"), "a") as f:
                    f.write(json.dumps({"set": s, "seed": seed, **r}) + "\n")
                results.append(r)
            sets.append(results)

        print(f"\n== {workload}: {args.runs} runs x {args.sets} set(s), "
              f"seeds {args.seeds}")
        print(f"{'metric':<22}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}  verdict")
        first_median = {}
        for spec in bench["end_to_end"]:
            name = spec["name"]
            for s, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results]
                if len(values) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                verdict = "ok"
                if spread > spec["bound"] / 3:
                    verdict = "NOISY"
                if s == 0:
                    first_median[name] = med
                elif worse(spec, first_median[name], med) > spec["bound"]:
                    verdict += " SHIFT"
                bad = bad or verdict != "ok"
                print(f"{name:<22}{s:>4}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                      f"{spread:>9.3f}{spec['bound']:>7.2f}  {verdict}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
