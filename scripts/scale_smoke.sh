#!/usr/bin/env bash
# Scale-sweep smoke gate (scripts/check.sh scale; the ci.yml scale-smoke job
# and the nightly workflow):
#
#  1. bench_scale_sweep over the requested scales (PR smoke sweeps 0.4 and
#     1; the nightly goes through 4) — each scale runs in its own child
#     process so peak RSS (/proc/self/status VmHWM) is per-scale;
#  2. the resulting BENCH_scale_sweep.json is schema-checked (every
#     scale_<tag>_rss_kib positive and paired with its ns_per_packet
#     sibling, every scale_<tag>_bytes_per_home positive) and gated against
#     bench/baselines/scale_sweep.json via scripts/bench_compare.py: peak
#     RSS, heap per home or ns/packet growth beyond 10% warns, beyond 30%
#     fails. Scales the run didn't sweep are skipped, so the smoke subset
#     still gates against the full committed baseline.
#
# The JSON artifact lands in <builddir>/scale-smoke/ for upload.
#
# Usage: scripts/scale_smoke.sh [builddir] [scales]
#        scripts/scale_smoke.sh                 # build, scales 0.4,1
#        scripts/scale_smoke.sh build 0.4,1,4   # nightly sweep
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
SCALES="${2:-0.4,1}"
BENCH="$BUILD/bench"
OUT="$BUILD/scale-smoke"
[[ -x "$BENCH/bench_scale_sweep" ]] || {
  echo "scale_smoke: $BENCH/bench_scale_sweep not built" >&2; exit 2; }
rm -rf "$OUT"
mkdir -p "$OUT"

echo "== scale-smoke: bench_scale_sweep over scales $SCALES =="
CGN_SCALE_SWEEP_SCALES="$SCALES" CGN_BENCH_JSON_DIR="$OUT" \
  "$BENCH/bench_scale_sweep" | tee "$OUT/stdout.txt"

echo "== scale-smoke: schema check =="
python3 scripts/bench_compare.py --schema-check \
  "$OUT/BENCH_scale_sweep.json"

echo "== scale-smoke: peak-RSS gate vs bench/baselines/scale_sweep.json =="
python3 scripts/bench_compare.py bench/baselines/scale_sweep.json \
  "$OUT/BENCH_scale_sweep.json"

echo "== scale-smoke: green (artifacts in $OUT) =="
