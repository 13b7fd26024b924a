#!/usr/bin/env bash
# Observatory soak smoke (scripts/check.sh soak; the ci.yml soak-smoke job):
#
#  1. batch leg: bench_fig04_clusters + bench_fig05_netalyzr_candidates at
#     a small scale write BENCH_*.json — the ground truth;
#  2. live leg: cgn_observatoryd streams the same campaigns on an
#     ephemeral port; scripts/obs_scrape.py waits for the stream to
#     complete, schema-checks /metrics//health//trace, and asserts the
#     /figures sets are value-identical to the batch JSONs;
#  3. kill leg: the daemon reruns with --abort-after-shards 2 and a
#     checkpoint dir, and must die with exit 3 (campaign aborted);
#  4. resume leg: rerun at 4 workers against the same checkpoint dir —
#     the resumed stream must still converge on the batch figures.
#  5. push leg: a --no-stream daemon with an ingest listener; an external
#     cgn_feeder pushes the same campaign over the framed socket, gets
#     kill -9'd mid-stream, reruns, and resumes from the server's cursor —
#     /figures/<campaign> must still equal the batch JSONs, the scrape
#     validates the ingest gauges, and the whole dance repeats at 4
#     workers into a second campaign channel.
#
# Usage: scripts/obs_soak_smoke.sh [builddir]   # default: build
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
DAEMON="$BUILD/src/observatory/cgn_observatoryd"
FEEDER="$BUILD/src/observatory/cgn_feeder"
BENCH="$BUILD/bench"
OUT="$BUILD/obs-soak"
[[ -x "$DAEMON" ]] || {
  echo "obs_soak_smoke: $DAEMON not built" >&2; exit 2; }
[[ -x "$FEEDER" ]] || {
  echo "obs_soak_smoke: $FEEDER not built" >&2; exit 2; }
rm -rf "$OUT"
mkdir -p "$OUT/batch" "$OUT/ckpt"

# Same world for every leg; small enough that each campaign runs in
# seconds, big enough that fig04/fig05 are non-trivial.
export CGN_BENCH_SCALE=0.05 CGN_BENCH_SEED=42

DAEMON_PID=""
cleanup() { [[ -n "$DAEMON_PID" ]] && kill "$DAEMON_PID" 2>/dev/null || true; }
trap cleanup EXIT

# Start the daemon with "$@" extra args, parse the ephemeral port it
# announces, and export OBS_URL.
start_daemon() {
  local log="$1"; shift
  "$DAEMON" --port 0 --window 600 "$@" >"$log" 2>&1 &
  DAEMON_PID=$!
  local port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/^observatory: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      "$log" | head -n1)
    [[ -n "$port" ]] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || {
      echo "obs_soak_smoke: daemon died before announcing a port:" >&2
      cat "$log" >&2; exit 1; }
    sleep 0.1
  done
  [[ -n "$port" ]] || {
    echo "obs_soak_smoke: no listening line in $log" >&2; exit 1; }
  OBS_URL="http://127.0.0.1:$port"
}

# Parse the ingest announce line out of a daemon log into INGEST_PORT.
parse_ingest_port() {
  local log="$1"
  INGEST_PORT=""
  for _ in $(seq 1 100); do
    INGEST_PORT=$(sed -n \
      's/^observatory: ingest on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      "$log" | head -n1)
    [[ -n "$INGEST_PORT" ]] && return 0
    sleep 0.1
  done
  echo "obs_soak_smoke: no ingest line in $log" >&2; exit 1
}

# Poll /health until the push campaign has ingested at least N events (so
# a kill -9 lands provably mid-stream).
wait_push_ingested() {
  python3 - "$OBS_URL" "$1" "$2" <<'EOF'
import json, sys, time, urllib.request
url, campaign, min_n = sys.argv[1], sys.argv[2], int(sys.argv[3])
deadline = time.monotonic() + 120
while time.monotonic() < deadline:
    try:
        with urllib.request.urlopen(url + "/health", timeout=5) as r:
            h = json.load(r)
        ch = h.get("push", {}).get("campaigns", {}).get(campaign, {})
        if ch.get("ingested", 0) >= min_n:
            sys.exit(0)
    except OSError:
        pass
    time.sleep(0.05)
print(f"never saw {min_n} ingested events for campaign {campaign}",
      file=sys.stderr)
sys.exit(1)
EOF
}

stop_daemon() {
  kill "$DAEMON_PID" 2>/dev/null || true
  wait "$DAEMON_PID" 2>/dev/null || true
  DAEMON_PID=""
}

echo "== obs-soak: batch fig04 + fig05 (ground truth) =="
CGN_BENCH_JSON_DIR="$OUT/batch" "$BENCH/bench_fig04_clusters" \
  > "$OUT/batch/fig04_stdout.txt"
CGN_BENCH_JSON_DIR="$OUT/batch" "$BENCH/bench_fig05_netalyzr_candidates" \
  > "$OUT/batch/fig05_stdout.txt"

echo "== obs-soak: live daemon, scrape + figure equality =="
start_daemon "$OUT/daemon_live.log"
python3 scripts/obs_scrape.py "$OBS_URL" --wait-done --timeout 300 \
  --compare "fig04_clusters=$OUT/batch/BENCH_fig04_clusters.json" \
  --compare "fig05_netalyzr_candidates=$OUT/batch/BENCH_fig05_netalyzr_candidates.json"
stop_daemon

echo "== obs-soak: kill leg (--abort-after-shards 2 must exit 3) =="
rc=0
CGN_SUPER_CHECKPOINT_DIR="$OUT/ckpt" \
  "$DAEMON" --port 0 --window 600 --abort-after-shards 2 --exit-after-stream \
  > "$OUT/daemon_abort.log" 2>&1 || rc=$?
if [[ "$rc" -ne 3 ]]; then
  echo "obs_soak_smoke: abort leg exited $rc, expected 3" >&2
  cat "$OUT/daemon_abort.log" >&2
  exit 1
fi
[[ -f "$OUT/ckpt/netalyzr.ckpt" ]] || {
  echo "obs_soak_smoke: abort leg left no netalyzr checkpoint" >&2; exit 1; }
echo "ok   daemon aborted with exit 3 and wrote $OUT/ckpt/netalyzr.ckpt"

echo "== obs-soak: resume leg (4 workers, same checkpoint dir) =="
export CGN_THREADS=4 CGN_SUPER_CHECKPOINT_DIR="$OUT/ckpt"
start_daemon "$OUT/daemon_resume.log"
python3 scripts/obs_scrape.py "$OBS_URL" --wait-done --timeout 300 \
  --compare "fig04_clusters=$OUT/batch/BENCH_fig04_clusters.json" \
  --compare "fig05_netalyzr_candidates=$OUT/batch/BENCH_fig05_netalyzr_candidates.json"
stop_daemon

echo "== obs-soak: push leg (feeder, kill -9 mid-stream, resume) =="
export CGN_THREADS=1
unset CGN_SUPER_CHECKPOINT_DIR
mkdir -p "$OUT/feeder-ckpt" "$OUT/feeder-ckpt4"
start_daemon "$OUT/daemon_push.log" --no-stream --ingest-port 0
parse_ingest_port "$OUT/daemon_push.log"

# Paced feeder so the kill lands mid-stream; then murder it outright.
CGN_SUPER_CHECKPOINT_DIR="$OUT/feeder-ckpt" \
  "$FEEDER" --connect "$INGEST_PORT" --campaign push --pace-us 2000 \
  > "$OUT/feeder_killed.log" 2>&1 &
FEEDER_PID=$!
wait_push_ingested push 100
kill -9 "$FEEDER_PID" 2>/dev/null || true
wait "$FEEDER_PID" 2>/dev/null || true
echo "ok   feeder killed -9 mid-stream"

# Rerun: shard checkpoints resume the regeneration, the server's hello
# cursor skips everything already ingested. Must finish clean.
CGN_SUPER_CHECKPOINT_DIR="$OUT/feeder-ckpt" \
  "$FEEDER" --connect "$INGEST_PORT" --campaign push \
  > "$OUT/feeder_resume.log" 2>&1 || {
  echo "obs_soak_smoke: feeder resume failed:" >&2
  cat "$OUT/feeder_resume.log" >&2; exit 1; }
grep -q "feeder: done" "$OUT/feeder_resume.log" || {
  echo "obs_soak_smoke: feeder resume never reported done" >&2; exit 1; }
python3 scripts/obs_scrape.py "$OBS_URL" --wait-done --timeout 300 \
  --campaign push --expect-ingest \
  --compare "fig04_clusters=$OUT/batch/BENCH_fig04_clusters.json" \
  --compare "fig05_netalyzr_candidates=$OUT/batch/BENCH_fig05_netalyzr_candidates.json"

echo "== obs-soak: push leg at 4 workers =="
CGN_THREADS=4 CGN_SUPER_CHECKPOINT_DIR="$OUT/feeder-ckpt4" \
  "$FEEDER" --connect "$INGEST_PORT" --campaign push4 \
  > "$OUT/feeder_push4.log" 2>&1 || {
  echo "obs_soak_smoke: 4-worker feeder failed:" >&2
  cat "$OUT/feeder_push4.log" >&2; exit 1; }
python3 scripts/obs_scrape.py "$OBS_URL" --wait-done --timeout 300 \
  --campaign push4 --expect-ingest \
  --compare "fig04_clusters=$OUT/batch/BENCH_fig04_clusters.json" \
  --compare "fig05_netalyzr_candidates=$OUT/batch/BENCH_fig05_netalyzr_candidates.json"
stop_daemon

echo "== obs_soak_smoke: all green =="
