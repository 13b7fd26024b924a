#!/usr/bin/env bash
# Repo gate, split into named stages so CI jobs and developers can run just
# the part they need:
#
#   format   clang-format --dry-run -Werror over src/ tests/ bench/
#   tier1    configure + build + full ctest (build/)
#   asan     full ctest under ASan+UBSan (build-asan/, -DCGN_SANITIZE=ON)
#   tsan     parallel-campaign ctest under TSan (build-tsan/,
#            -DCGN_SANITIZE=thread, CGN_THREADS=4)
#   bench    bench smoke: bench_perf_micro at 1 and 4 workers, fingerprints
#            byte-identical, phase timings vs bench/baselines/, plus the
#            fig01 and fig14 (transition) 1-vs-4-worker figure byte-compares
#            (see scripts/bench_smoke.sh and scripts/bench_compare.py)
#   scale    scale-sweep smoke: bench_scale_sweep at scales 0.4 and 1
#            (CGN_SCALE_STAGE_SCALES overrides; the nightly workflow passes
#            0.4,1,4,10), peak RSS, heap per home and ns/packet gated against
#            bench/baselines/scale_sweep.json (see scripts/scale_smoke.sh)
#   recovery kill → resume differential smoke (build/): ctest -R
#            'SuperRecovery' serial and at 4 workers — resumed campaigns
#            must be byte-identical to uninterrupted ones
#   soak     observatory soak smoke: cgn_observatoryd streams the fig04 +
#            fig05 campaigns live; /metrics//health//trace are
#            schema-checked and /figures must equal the batch BENCH JSONs,
#            including after a kill → checkpoint-resume drill and a push
#            leg where an external cgn_feeder is kill -9'd mid-stream and
#            resumes from the server's cursor (see
#            scripts/obs_soak_smoke.sh and scripts/obs_scrape.py)
#
# Usage: scripts/check.sh [stage...]
#        scripts/check.sh                # format tier1 asan tsan (historical
#                                        # default; bench is opt-in)
#        scripts/check.sh --no-sanitize  # format tier1 (compat alias)
#        scripts/check.sh tier1 bench
set -euo pipefail
cd "$(dirname "$0")/.."

stage_format() {
  if command -v clang-format >/dev/null 2>&1; then
    echo "== format: clang-format --dry-run -Werror (src/ tests/ bench/) =="
    find src tests bench -name '*.hpp' -o -name '*.cpp' | \
      xargs clang-format --dry-run -Werror
  else
    echo "== format: clang-format not found, skipping =="
  fi
}

stage_tier1() {
  echo "== tier-1: configure + build + ctest (build/) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j
  ctest --test-dir build --output-on-failure -j "$(nproc)"
}

stage_asan() {
  echo "== sanitizers: ASan+UBSan build + ctest (build-asan/) =="
  cmake -B build-asan -S . -DCGN_SANITIZE=ON >/dev/null
  cmake --build build-asan -j --target cgn_tests
  ctest --test-dir build-asan --output-on-failure -j "$(nproc)"
}

stage_tsan() {
  echo "== sanitizers: TSan build + parallel-campaign ctest (build-tsan/) =="
  cmake -B build-tsan -S . -DCGN_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j --target cgn_tests
  CGN_THREADS=4 ctest --test-dir build-tsan --output-on-failure \
    -R 'RunShards|ConfiguredThreads|RngFork|ThreadClockScope|CampaignParallel|Fault|RouteCache|Super|Observatory|HttpServer' \
    -j "$(nproc)"
}

stage_recovery() {
  echo "== recovery: kill → resume differential smoke (build/) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j --target cgn_tests
  # The differential inside each test already compares worker counts; the
  # CGN_THREADS sweep additionally exercises the default-thread plumbing.
  CGN_THREADS=1 ctest --test-dir build --output-on-failure -R 'SuperRecovery'
  CGN_THREADS=4 ctest --test-dir build --output-on-failure -R 'SuperRecovery'
}

stage_bench() {
  echo "== bench: perf-micro smoke (fingerprints + regression gate) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j --target bench_perf_micro \
    --target bench_fig01_survey --target bench_fig14_transition
  scripts/bench_smoke.sh build
}

stage_scale() {
  echo "== scale: sweep smoke (peak-RSS + ns/packet gate) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j --target bench_scale_sweep
  scripts/scale_smoke.sh build "${CGN_SCALE_STAGE_SCALES:-0.4,1}"
}

stage_soak() {
  echo "== soak: observatory stream smoke (live endpoint vs batch) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j --target cgn_observatoryd --target cgn_feeder \
    --target bench_fig04_clusters --target bench_fig05_netalyzr_candidates
  scripts/obs_soak_smoke.sh build
}

if [[ $# -eq 0 ]]; then
  stages=(format tier1 asan tsan)
elif [[ "$1" == "--no-sanitize" ]]; then
  stages=(format tier1)
else
  stages=("$@")
fi

for stage in "${stages[@]}"; do
  case "$stage" in
    format|tier1|asan|tsan|bench|scale|recovery|soak) "stage_$stage" ;;
    *) echo "check.sh: unknown stage '$stage'" >&2; exit 2 ;;
  esac
done

echo "== check.sh: all green (${stages[*]}) =="
