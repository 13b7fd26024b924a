// cgnbench — runs one benchmark workload and prints one machine-readable
// line, "@cgnbench {...}", with every metric it measured, the operation
// accounting, the figures digest and the build/machine provenance. run.py
// builds this binary, invokes it and turns that line into the benchmark's
// result.
//
//   cgnbench --workload <bt_crawl|netalyzr_v6|observatory_ingest>
//            --seconds S [--seed N] [--trace 0|1]
//
// It runs from the root of a checkout (see run_workload).
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace {

void json_string(std::ostream& os, const std::string& s) {
  cgn::obs::json_escape(os, s);
}

int usage() {
  std::cerr << "usage: cgnbench --workload NAME --seconds S [--seed N] "
               "[--trace 0|1]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  cgnbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload")
      opt.workload = val;
    else if (key == "--seed")
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds")
      opt.seconds = std::atof(val.c_str());
    else if (key == "--trace")
      opt.trace = val == "1";
    else
      return usage();
  }
  if (argc % 2 == 0 || opt.workload.empty() || opt.seconds <= 0)
    return usage();

  // Measured before the workload, so the spinners never share the
  // machine with it.
  const unsigned cores = std::thread::hardware_concurrency();
  const double capacity =
      cgnbench::spinner_capacity(static_cast<int>(cores ? cores : 1), 0.25);

  cgnbench::Outcome out;
  if (!cgnbench::run_workload(opt, out)) {
    std::cerr << "cgnbench: unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  for (const std::string& f : out.tally.failures)
    std::cerr << "cgnbench: FAILED " << f << '\n';

  std::cout.precision(17);
  std::cout << "@cgnbench {\"workload\":";
  json_string(std::cout, opt.workload);
  std::cout << ",\"seed\":" << opt.seed << ",\"trace\":" << opt.trace
            << ",\"attempted\":" << out.tally.attempted
            << ",\"failed\":" << out.tally.failed << ",\"figures_digest\":";
  json_string(std::cout, out.figures_digest);
  std::cout << ",\"provenance\":{\"compiler\":";
  json_string(std::cout, std::string(__VERSION__));
  std::cout << ",\"build_type\":";
  json_string(std::cout, CGNBENCH_BUILD_TYPE);
  std::cout << ",\"cgn_obs\":"
            << (cgn::obs::kMetricsEnabled ? "true" : "false")
            << ",\"hardware_threads\":" << cores
            << ",\"spinner_capacity\":" << capacity << "},\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : out.metrics) {
    std::cout << (first ? "" : ",");
    json_string(std::cout, name);
    std::cout << ":{\"value\":" << m.value << ",\"unit\":";
    json_string(std::cout, m.unit);
    std::cout << '}';
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}
