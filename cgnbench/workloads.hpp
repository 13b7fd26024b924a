// The three benchmark workloads (see NOTES.md for why each exists and
// which layer it isolates). Each drives the simulator only through its
// public entry points, times those calls from outside, and reads the
// counters the program already exports.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "harness.hpp"

namespace cgnbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 0.0;  ///< measured window; run.py passes it
  bool trace = false;
};

/// One measured value and its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a run measured: every metric it knows (end-to-end and per-layer,
/// keyed by name) plus its operation accounting.
struct Outcome {
  Tally tally;
  std::map<std::string, Metric> metrics;
  /// Digest of the figure sets the run computed (same for every campaign).
  std::string figures_digest;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// Runs `opt.workload` from the root of a checkout: it reads the
/// committed digests from cgnbench/digests.json and, traced, writes its
/// spans under .bench_build/traces/. False when the name is unknown.
bool run_workload(const Options& opt, Outcome& out);

}  // namespace cgnbench
