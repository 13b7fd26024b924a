#!/usr/bin/env python3
"""Compare fresh bench_perf_micro runs against the committed baseline.

Usage:
    scripts/bench_compare.py BASELINE FRESH [FRESH2 FRESH3 ...]
    scripts/bench_compare.py --schema-check FILE [FILE2 ...]

BASELINE is bench/baselines/perf_micro.json (committed); each FRESH is a
BENCH_perf_micro.json produced by a run of build/bench/bench_perf_micro.
Pass several fresh files (CI passes three) and the per-metric median is
compared, which keeps one noisy run from tripping the gate.

--schema-check validates that each FILE is a well-formed bench JSON
(required keys, figure/phase shapes) without comparing anything; use it to
vet a freshly regenerated baseline before committing it. Note the "super"
block is optional: baselines recorded before supervision existed are still
valid. Likewise optional: the top-level "observatory" block and the
p50/p90/p99 quantiles on obs.metrics histograms (both introduced with the
streaming observatory) — when present they are shape-checked (numeric,
p50 <= p90 <= p99), when absent the file still validates. Figures from
the transition family (bench_fig14_transition) get one extra check:
every detect_acc_* entry must be a fraction in [0, 1]. Push-ingestion
soak files (bench_soak_ingest, figures named ingest_*) get their own:
every ingest_* figure must be non-negative, ingest_figure_mismatches
must be exactly 0 (a mismatch is broken streaming==batch determinism,
not noise), and ingest_max_lag must not exceed ingest_queue_capacity
(the bounded-queue contract).

Scale-sweep files (bench == "scale_sweep", from bench_scale_sweep) take a
different comparison path: for every scale tag present on both sides the
peak RSS (scale_<tag>_rss_kib), the heap per materialized home
(scale_<tag>_bytes_per_home) and hot-path latency
(scale_<tag>_ns_per_packet) are gated (warn >10%, fail >30% growth vs
bench/baselines/scale_sweep.json); build/materialize walls only warn. The
schema check additionally requires every rss figure to be a positive
number paired with a ns_per_packet figure for the same tag, and every
bytes_per_home figure to be positive (files recorded before it existed
carry none and still validate). A smoke run that only sweeps the small
scales still gates — tags missing from the fresh file are skipped, not
failed.

Bad input (missing file, malformed JSON, a baseline that is not a bench
JSON) exits 2 with a one-line diagnosis, never a traceback; a genuine
perf regression exits 1.

Checks, in order of severity:
  * figures must carry parallel_identical == 1 (1-vs-4-worker campaign
    fingerprints byte-identical) — hard fail otherwise;
  * parallel speedup gate: on a machine with >= SPEEDUP_MIN_CORES usable
    cores (both the baseline AND the fresh run must report
    hardware_cores >= 4, so a 4-core baseline never gates a 1-core
    runner), netalyzr_speedup_4t must stay >= SPEEDUP_FAIL (2.5), and
    warns below SPEEDUP_WARN (3.0). On narrower machines wall-clock
    speedup is physically capped at ~1.0, so the gate switches to
    netalyzr_cpu_efficiency_4t — CPU seconds at 1 worker over CPU
    seconds at 4 — which catches the scheduler *burning* extra work
    (spinning, redundant merges) even where it cannot win wall-clock;
  * echo_roundtrip_ns and every top-level profiler phase wall time are
    compared against the baseline: a regression above WARN_PCT prints a
    warning, one above FAIL_PCT on echo_roundtrip_ns or total phase wall
    time fails the gate (exit 1).

Timings below NOISE_FLOOR_S are reported but never gate: on shared CI
runners, sub-50ms phases are dominated by scheduler noise.
"""

import json
import statistics
import sys

WARN_PCT = 10.0
FAIL_PCT = 30.0
NOISE_FLOOR_S = 0.05

# Parallel scaling gate (ISSUE 7). Wall-clock speedup only gates on
# machines that can physically express it; below SPEEDUP_MIN_CORES the
# CPU-efficiency figure gates instead (a work-conserving scheduler keeps
# it near 1.0 at any core count).
SPEEDUP_MIN_CORES = 4
SPEEDUP_FAIL = 2.5
SPEEDUP_WARN = 3.0
CPU_EFFICIENCY_FAIL = 0.60
CPU_EFFICIENCY_WARN = 0.80


class BadInput(Exception):
    """A user-input problem: report one line and exit 2, no traceback."""


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise BadInput(f"{path}: cannot read ({e.strerror or e})")
    except json.JSONDecodeError as e:
        raise BadInput(f"{path}: malformed JSON at line {e.lineno} "
                       f"column {e.colno}: {e.msg}")


def scale_tags(figures):
    """Scale tags ("0_4", "1", ...) recorded in a figures dict, in figure
    order — each tag names one bench_scale_sweep child sample."""
    tags = []
    for name in figures:
        if name.startswith("scale_") and name.endswith("_rss_kib"):
            tags.append(name[len("scale_"):-len("_rss_kib")])
    return tags


# Required top-level shape of every BENCH_<name>.json. The "super" block is
# deliberately absent: it was introduced after the first baselines were
# recorded, and older files must keep validating.
SCHEMA = {
    "bench": str,
    "scale": (int, float),
    "seed": int,
    "threads": int,
    "figures": dict,
    "obs": dict,
}


def check_schema(doc, path):
    """Raise BadInput with a precise message if doc is not a bench JSON."""
    if not isinstance(doc, dict):
        raise BadInput(f"{path}: top level is {type(doc).__name__}, "
                       "expected a JSON object")
    for key, want in SCHEMA.items():
        if key not in doc:
            raise BadInput(f"{path}: missing required key \"{key}\"")
        if not isinstance(doc[key], want):
            raise BadInput(f"{path}: \"{key}\" is "
                           f"{type(doc[key]).__name__}, expected "
                           f"{want.__name__ if isinstance(want, type) else 'number'}")
    for name, value in doc["figures"].items():
        if not isinstance(value, (int, float)):
            raise BadInput(f"{path}: figure \"{name}\" is "
                           f"{type(value).__name__}, expected a number")
        # The transition family (bench_fig14_transition and the
        # observatory's fig14_transition set) reports detection accuracy
        # per mechanism; an accuracy outside [0, 1] means the classifier's
        # bookkeeping (correct > truth) broke, not a perf regression.
        if name.startswith("detect_acc_") and not 0.0 <= value <= 1.0:
            raise BadInput(f"{path}: figure \"{name}\" = {value} is outside "
                           "[0, 1] — detection accuracies are fractions")
    # Scale-sweep figures come in per-scale groups: a peak-RSS sample that
    # is zero or negative means the /proc/self/status read failed, and an
    # rss figure without its ns_per_packet sibling means the child's JSON
    # line was truncated. Both are recording bugs, not regressions.
    for tag in scale_tags(doc["figures"]):
        rss = doc["figures"][f"scale_{tag}_rss_kib"]
        if rss <= 0:
            raise BadInput(f"{path}: figure \"scale_{tag}_rss_kib\" = {rss} "
                           "— peak RSS must be a positive KiB count")
        ns_key = f"scale_{tag}_ns_per_packet"
        if ns_key not in doc["figures"]:
            raise BadInput(f"{path}: figure \"scale_{tag}_rss_kib\" has no "
                           f"\"{ns_key}\" sibling — truncated sweep sample")
        if doc["figures"][ns_key] < 0:
            raise BadInput(f"{path}: figure \"{ns_key}\" = "
                           f"{doc['figures'][ns_key]} is negative")
        # Materializing homes always allocates: a zero here means the heap
        # probe (mallinfo2) was unavailable or the delta was lost.
        per_home = doc["figures"].get(f"scale_{tag}_bytes_per_home")
        if per_home is not None and per_home <= 0:
            raise BadInput(f"{path}: figure \"scale_{tag}_bytes_per_home\" "
                           f"= {per_home} — heap per home must be positive")
    # Push-ingestion soak figures: counters can never go negative, a
    # recorded figure mismatch means streaming==batch determinism broke,
    # and lag above the configured queue capacity means the "bounded"
    # queue was not.
    figs = doc["figures"]
    ingest_figs = [name for name in figs if name.startswith("ingest_")]
    if ingest_figs:
        for name in ingest_figs:
            if figs[name] < 0:
                raise BadInput(f"{path}: figure \"{name}\" = {figs[name]} "
                               "is negative — ingest counters only grow")
        if figs.get("ingest_figure_mismatches", 0) != 0:
            raise BadInput(f"{path}: ingest_figure_mismatches = "
                           f"{figs['ingest_figure_mismatches']} — push-fed "
                           "figures diverged from the batch ground truth")
        cap = figs.get("ingest_queue_capacity")
        lag = figs.get("ingest_max_lag")
        if cap is not None and lag is not None and lag > cap:
            raise BadInput(f"{path}: ingest_max_lag {lag} exceeds "
                           f"ingest_queue_capacity {cap} — the ingest "
                           "queue is not bounded")
    obs = doc["obs"]
    for key in ("metrics", "phases"):
        if key not in obs:
            raise BadInput(f"{path}: missing required key \"obs.{key}\"")
    for i, p in enumerate(obs["phases"]):
        if not isinstance(p, dict) or not {"phase", "wall_s", "depth"} <= set(p):
            raise BadInput(f"{path}: obs.phases[{i}] lacks "
                           "phase/wall_s/depth")
    check_quantiles(doc, path)
    if "observatory" in doc and not isinstance(doc["observatory"], dict):
        raise BadInput(f"{path}: \"observatory\" is "
                       f"{type(doc['observatory']).__name__}, expected an "
                       "object")


def check_quantiles(doc, path):
    """Histogram quantiles are optional (older baselines predate them),
    but when present they must be numbers and ordered p50 <= p90 <= p99."""
    metrics = doc["obs"].get("metrics", {})
    if not isinstance(metrics, dict):
        raise BadInput(f"{path}: obs.metrics is "
                       f"{type(metrics).__name__}, expected an object")
    for name, h in metrics.get("histograms", {}).items():
        if not isinstance(h, dict):
            raise BadInput(f"{path}: obs.metrics.histograms[\"{name}\"] is "
                           f"{type(h).__name__}, expected an object")
        quantiles = [k for k in ("p50", "p90", "p99") if k in h]
        if not quantiles:
            continue  # legacy file recorded before quantile export
        if len(quantiles) != 3:
            raise BadInput(f"{path}: histogram \"{name}\" has only "
                           f"{quantiles} — p50/p90/p99 come as a set")
        for q in quantiles:
            if not isinstance(h[q], (int, float)):
                raise BadInput(f"{path}: histogram \"{name}\".{q} is "
                               f"{type(h[q]).__name__}, expected a number")
        if not (h["p50"] <= h["p90"] <= h["p99"]):
            raise BadInput(f"{path}: histogram \"{name}\" quantiles are not "
                           f"monotone: p50={h['p50']} p90={h['p90']} "
                           f"p99={h['p99']}")


def check_speedup(baseline, figures):
    """Gate parallel scaling: wall-clock speedup where the machine allows
    it, CPU efficiency (work conservation) where it does not. Returns
    (failed, warned)."""
    base_cores = baseline.get("figures", {}).get("hardware_cores")
    fresh_cores = figures.get("hardware_cores")
    speedup = figures.get("netalyzr_speedup_4t")
    efficiency = figures.get("netalyzr_cpu_efficiency_4t")

    wide = (isinstance(base_cores, (int, float)) and
            isinstance(fresh_cores, (int, float)) and
            base_cores >= SPEEDUP_MIN_CORES and
            fresh_cores >= SPEEDUP_MIN_CORES)
    if wide:
        if speedup is None:
            print("FAIL netalyzr_speedup_4t missing from fresh figures")
            return True, False
        line = (f"netalyzr_speedup_4t = {speedup:.3f} "
                f"({fresh_cores:.0f} cores)")
        if speedup < SPEEDUP_FAIL:
            print(f"FAIL {line} < {SPEEDUP_FAIL}")
            return True, False
        if speedup < SPEEDUP_WARN:
            print(f"WARN {line} < {SPEEDUP_WARN}")
            return False, True
        print(f"ok   {line}")
        return False, False

    # Narrow machine (or cores unrecorded): wall-clock speedup tops out at
    # ~1.0 regardless of scheduler quality, so gate work conservation
    # instead. efficiency = cpu_1t / cpu_4t; a pool that spins or repeats
    # work drags it toward 0.
    cores_note = (f"baseline {base_cores}, fresh {fresh_cores}"
                  if base_cores is not None or fresh_cores is not None
                  else "hardware_cores unrecorded")
    print(f"skip netalyzr_speedup_4t wall gate: needs >= "
          f"{SPEEDUP_MIN_CORES} cores on both sides ({cores_note})")
    if efficiency is None:
        print("skip netalyzr_cpu_efficiency_4t: not recorded")
        return False, False
    line = f"netalyzr_cpu_efficiency_4t = {efficiency:.3f}"
    if efficiency < CPU_EFFICIENCY_FAIL:
        print(f"FAIL {line} < {CPU_EFFICIENCY_FAIL} (pool burns CPU)")
        return True, False
    if efficiency < CPU_EFFICIENCY_WARN:
        print(f"WARN {line} < {CPU_EFFICIENCY_WARN}")
        return False, True
    print(f"ok   {line}")
    return False, False


def compare_scale(baseline, figures):
    """Gate a scale-sweep run: per-scale peak RSS and hot-path latency
    against the committed baseline (warn >WARN_PCT, fail >FAIL_PCT growth);
    build/materialize walls warn only (shared-runner noise). Returns the
    process exit code."""
    failed = False
    warned = False
    base_figs = baseline.get("figures", {})

    def compare(label, base, fresh, *, gates):
        nonlocal failed, warned
        if fresh is None:
            print(f"skip {label}: not swept in this run")
            return
        if base is None:
            print(f"ok   {label}: fresh {fresh:.6g} (new scale, no baseline "
                  "— not gated)")
            return
        delta = 100.0 * (fresh - base) / base if base else 0.0
        line = f"{label}: baseline {base:.6g}, fresh {fresh:.6g} ({delta:+.1f}%)"
        if delta > FAIL_PCT and gates:
            print(f"FAIL {line} > {FAIL_PCT:.0f}%")
            failed = True
        elif delta > WARN_PCT:
            print(f"WARN {line} > {WARN_PCT:.0f}%")
            warned = True
        else:
            print(f"ok   {line}")

    tags = scale_tags(base_figs)
    for tag in scale_tags(figures):
        if tag not in tags:
            tags.append(tag)
    for tag in tags:
        for metric, gates in (("rss_kib", True), ("bytes_per_home", True),
                              ("ns_per_packet", True), ("build_s", False),
                              ("materialize_s", False)):
            key = f"scale_{tag}_{metric}"
            compare(f"figures.{key}", base_figs.get(key), figures.get(key),
                    gates=gates)
        subs = figures.get(f"scale_{tag}_subscribers")
        if subs is not None:
            print(f"info scale {tag.replace('_', '.')}: "
                  f"{subs:.0f} subscriber lines")

    if failed:
        print("bench_compare: FAIL")
        return 1
    print("bench_compare: OK" + (" (with warnings)" if warned else ""))
    return 0


def phase_walls(doc):
    """Top-level (depth 0) profiler phases: name -> wall seconds."""
    return {
        p["phase"]: p["wall_s"]
        for p in doc.get("obs", {}).get("phases", [])
        if p.get("depth") == 0
    }


def median_fresh(docs):
    figures = {}
    for key in docs[0].get("figures", {}):
        vals = [d["figures"][key] for d in docs if key in d.get("figures", {})]
        figures[key] = statistics.median(vals)
    phases = {}
    for name in phase_walls(docs[0]):
        vals = [phase_walls(d).get(name) for d in docs]
        vals = [v for v in vals if v is not None]
        if vals:
            phases[name] = statistics.median(vals)
    return figures, phases


def main(argv):
    if len(argv) >= 2 and argv[1] == "--schema-check":
        if len(argv) < 3:
            print("bench_compare: --schema-check needs at least one file",
                  file=sys.stderr)
            return 2
        for path in argv[2:]:
            check_schema(load(path), path)
            print(f"ok   {path}: schema valid")
        return 0

    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    baseline = load(argv[1])
    check_schema(baseline, argv[1])
    fresh_docs = []
    for path in argv[2:]:
        doc = load(path)
        check_schema(doc, path)
        fresh_docs.append(doc)
    figures, phases = median_fresh(fresh_docs)

    # Scale-sweep files carry none of the perf_micro machinery (no
    # parallel_identical, no phase profile worth gating) — they get the
    # per-scale RSS/latency comparison instead.
    if baseline.get("bench") == "scale_sweep" or scale_tags(
            baseline.get("figures", {})):
        return compare_scale(baseline, figures)

    failed = False
    warned = False

    ident = figures.get("parallel_identical")
    if ident != 1:
        print(f"FAIL parallel_identical = {ident} (1-vs-4-worker campaign "
              "fingerprints diverged: determinism is broken)")
        failed = True
    else:
        print("ok   parallel_identical = 1 (fingerprints byte-identical)")

    def compare(label, base, fresh, *, gates, floor=0.0):
        nonlocal failed, warned
        if base is None or fresh is None:
            print(f"skip {label}: missing from "
                  f"{'baseline' if base is None else 'fresh run'}")
            return
        delta = 100.0 * (fresh - base) / base if base else 0.0
        line = f"{label}: baseline {base:.6g}, fresh {fresh:.6g} ({delta:+.1f}%)"
        if max(base, fresh) < floor:
            print(f"ok   {line} [below {floor}s noise floor, not gated]")
        elif delta > FAIL_PCT and gates:
            print(f"FAIL {line} > {FAIL_PCT:.0f}%")
            failed = True
        elif delta > WARN_PCT:
            print(f"WARN {line} > {WARN_PCT:.0f}%")
            warned = True
        else:
            print(f"ok   {line}")

    sp_failed, sp_warned = check_speedup(baseline, figures)
    failed = failed or sp_failed
    warned = warned or sp_warned

    compare("figures.echo_roundtrip_ns",
            baseline.get("figures", {}).get("echo_roundtrip_ns"),
            figures.get("echo_roundtrip_ns"), gates=True)

    base_phases = phase_walls(baseline)
    for name in sorted(set(base_phases) | set(phases)):
        # Individual phases warn; only the total (summed) wall time fails.
        compare(f"phase.{name}", base_phases.get(name), phases.get(name),
                gates=False, floor=NOISE_FLOOR_S)
    compare("phase total wall_s",
            sum(base_phases.values()) if base_phases else None,
            sum(phases.values()) if phases else None, gates=True)

    if failed:
        print("bench_compare: FAIL")
        return 1
    print("bench_compare: OK" + (" (with warnings)" if warned else ""))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except BadInput as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        sys.exit(2)
