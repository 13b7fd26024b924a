// Scale sweep (README "Scale"): how the world's memory footprint and hot-path
// latency grow with CGN_BENCH_SCALE. For each scale the binary re-execs
// itself as a child process — peak RSS is a per-process high-watermark
// (/proc/self/status VmHWM), so each scale must start from a clean slate —
// builds a lazy world, materializes every planned line plus the silent-line
// ballast, times a warmed NAT444 echo round trip, and reports one JSON line.
// Besides the process-wide peak RSS it reports the heap the materialization
// itself took per home (lines sharing a LAN count as one home), the figure
// the per-device state layout (NAT slab, port sets, ...) moves directly.
// The parent aggregates the per-scale samples into BENCH_scale_sweep.json
// under `scale_<tag>_*` keys that scripts/bench_compare.py gates (peak-RSS
// regressions warn at >10% and fail at >30% against the committed baseline).
//
// Knobs: CGN_SCALE_SWEEP_SCALES (comma list, default "0.4,1,4,10"),
// CGN_SILENT_LINES (ballast per CGN AS; default 850 here — enough that the
// scale-10 world crosses 1,000,000 subscriber lines), plus the usual
// CGN_BENCH_SEED. The sweep always builds lazily: plan and materialization
// are timed as separate phases, which is the point of the lazy split.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#ifdef __linux__
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>
#endif

#include "bench/common.hpp"
#include "netalyzr/messages.hpp"
#include "netalyzr/session.hpp"
#include "scenario/internet.hpp"
#include "sim/network.hpp"

namespace {

using namespace cgn;

// Ballast per CGN AS when CGN_SILENT_LINES is unset: sized so the scale-10
// world (see README "Scale") lands above one million subscriber lines.
constexpr std::uint64_t kDefaultSilentLines = 850;

/// Peak resident set in KiB: VmHWM from /proc/self/status (the process
/// lifetime high-watermark), falling back to getrusage ru_maxrss.
long peak_rss_kib() {
#ifdef __linux__
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::atol(line.c_str() + 6);
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) return ru.ru_maxrss;
#endif
  return 0;
}

/// Bytes the allocator currently hands out (small-chunk arenas plus mmapped
/// blocks, across all malloc arenas); 0 where mallinfo2 is unavailable.
double heap_in_use_bytes() {
#if defined(__linux__) && defined(__GLIBC__) && \
    (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
#else
  return 0.0;
#endif
}

volatile std::uint64_t g_sink = 0;  // keeps the timed loop observable

template <typename Fn>
double ns_per_op(Fn&& fn, int iters) {
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / iters;
}

/// Child mode: one scale, one process. Prints a single machine-readable
/// line ("@scale_sweep {...}") that the parent scrapes out of the output.
int run_child() {
  scenario::InternetConfig cfg = bench::scaled_config();
  cfg.lazy_build = true;  // the sweep measures the plan/materialize split
  if (!std::getenv("CGN_SILENT_LINES"))
    cfg.silent_lines_per_cgn_as = kDefaultSilentLines;

  auto t0 = std::chrono::steady_clock::now();
  auto internet = scenario::build_internet(cfg);
  auto t1 = std::chrono::steady_clock::now();

  const double heap0 = heap_in_use_bytes();
  internet->materialize_all();
  std::size_t silent_built = 0;
  for (scenario::IspInstance& isp : internet->isps)
    silent_built += internet->materialize_silent_lines(isp);
  auto t2 = std::chrono::steady_clock::now();
  const double heap = heap_in_use_bytes() - heap0;

  // Silent lines are single-device homes; planned lines sharing a LAN
  // share a home_id within their ISP.
  std::size_t lines = silent_built;
  std::size_t homes = silent_built;
  for (const scenario::IspInstance& isp : internet->isps) {
    lines += isp.subscribers.size();
    std::unordered_set<int> ids;
    for (const scenario::Subscriber& s : isp.subscribers)
      if (ids.insert(s.home_id).second) ++homes;
  }
  const double bytes_per_home =
      homes == 0 ? 0.0 : heap / static_cast<double>(homes);

  // Warmed NAT444 echo round trip — same fixture as bench_perf_micro: a
  // line behind both a CPE NAT and the CGN, pinging the Netalyzr echo
  // server, so the packet crosses two translators each way.
  const scenario::Subscriber* sub = nullptr;
  for (const auto& isp : internet->isps) {
    if (!isp.cgn) continue;
    for (const auto& s : isp.subscribers)
      if (s.cpe && s.behind_cgn) {
        sub = &s;
        break;
      }
    if (sub) break;
  }
  if (!sub)
    for (const auto& isp : internet->isps)
      if (!isp.subscribers.empty()) {
        sub = &isp.subscribers.front();
        break;
      }
  double echo_ns = 0.0;
  if (sub) {
    const netcore::Endpoint dst = internet->servers.netalyzr->echo_endpoint();
    std::uint64_t tx = 0;
    auto deliver = [&] {
      sim::Packet pkt = sim::Packet::tcp({sub->device_address, 40000}, dst);
      pkt.payload = netalyzr::NetalyzrMessage{netalyzr::EchoRequest{++tx}};
      g_sink = g_sink + static_cast<std::uint64_t>(
          internet->net.send(std::move(pkt), sub->device).hops);
    };
    ns_per_op(deliver, 10'000);  // warm the NAT mapping + route caches
    echo_ns = 1e18;
    for (int rep = 0; rep < 5; ++rep)
      echo_ns = std::min(echo_ns, ns_per_op(deliver, 100'000));
  }

  const double build_s = std::chrono::duration<double>(t1 - t0).count();
  const double materialize_s = std::chrono::duration<double>(t2 - t1).count();
  std::ostringstream os;
  os.precision(12);
  os << "@scale_sweep {\"scale\":" << bench::env_double("CGN_BENCH_SCALE", 0.4)
     << ",\"rss_kib\":" << peak_rss_kib() << ",\"ns_per_packet\":" << echo_ns
     << ",\"build_s\":" << build_s << ",\"materialize_s\":" << materialize_s
     << ",\"subscribers\":" << lines
     << ",\"bytes_per_home\":" << bytes_per_home << "}";
  std::cout << os.str() << std::endl;
  return 0;
}

/// Pulls `"key":<number>` out of the child's JSON line; 0 when absent.
double extract(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  return at == std::string::npos ? 0.0
                                 : std::atof(json.c_str() + at + needle.size());
}

/// This binary's own path, for the re-exec. argv[0] works from the build
/// tree; /proc/self/exe survives PATH-relative and symlinked invocations.
std::string self_exe(const char* argv0) {
#ifdef __linux__
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) return std::string(buf, static_cast<std::size_t>(n));
#endif
  return argv0;
}

}  // namespace

int main(int argc, char** argv) {
  (void)argc;
  if (std::getenv("CGN_SCALE_SWEEP_CHILD")) return run_child();

  bench::print_header("scale_sweep",
                      "peak RSS and hot-path latency vs world scale");

  std::string scales_env = "0.4,1,4,10";
  if (const char* s = std::getenv("CGN_SCALE_SWEEP_SCALES"); s && *s)
    scales_env = s;
  std::vector<std::string> scales;
  for (std::size_t pos = 0; pos < scales_env.size();) {
    const std::size_t comma = scales_env.find(',', pos);
    const std::size_t end = comma == std::string::npos ? scales_env.size()
                                                       : comma;
    if (end > pos) scales.push_back(scales_env.substr(pos, end - pos));
    pos = end + 1;
  }

  const std::string exe = self_exe(argv[0]);
  bench::Figures figures;
  bool ok = true;
  std::cout << "  scale     subscribers    peak RSS      ns/packet   "
               "build s   materialize s   B/home\n";
  for (const std::string& scale : scales) {
    // One process per scale: VmHWM is a lifetime high-watermark, so a
    // shared process would report every scale at the scale-10 peak.
    const std::string cmd = "CGN_SCALE_SWEEP_CHILD=1 CGN_BENCH_SCALE=" +
                            scale + " '" + exe + "' 2>&1";
    FILE* pipe = ::popen(cmd.c_str(), "r");
    if (!pipe) {
      std::cerr << "popen failed for scale " << scale << "\n";
      ok = false;
      continue;
    }
    std::string sample;
    char buf[4096];
    while (std::fgets(buf, sizeof(buf), pipe)) {
      if (std::strncmp(buf, "@scale_sweep ", 13) == 0)
        sample.assign(buf + 13);
      else
        std::cout << "    [scale " << scale << "] " << buf;
    }
    const int rc = ::pclose(pipe);
    if (rc != 0 || sample.empty()) {
      std::cerr << "scale " << scale << " child failed (exit " << rc << ")\n";
      ok = false;
      continue;
    }

    // Figure keys: '.' would collide with bench_compare.py's dotted-path
    // convention, so 0.4 becomes tag 0_4.
    std::string tag = scale;
    for (char& c : tag)
      if (c == '.') c = '_';
    const double rss = extract(sample, "rss_kib");
    const double ns = extract(sample, "ns_per_packet");
    const double build_s = extract(sample, "build_s");
    const double mat_s = extract(sample, "materialize_s");
    const double subs = extract(sample, "subscribers");
    const double per_home = extract(sample, "bytes_per_home");
    figures.emplace_back("scale_" + tag + "_rss_kib", rss);
    figures.emplace_back("scale_" + tag + "_ns_per_packet", ns);
    figures.emplace_back("scale_" + tag + "_build_s", build_s);
    figures.emplace_back("scale_" + tag + "_materialize_s", mat_s);
    figures.emplace_back("scale_" + tag + "_subscribers", subs);
    figures.emplace_back("scale_" + tag + "_bytes_per_home", per_home);
    std::printf("  %-8s %12.0f %9.0f KiB %12.1f %9.2f %15.2f %12.0f\n",
                scale.c_str(), subs, rss, ns, build_s, mat_s, per_home);
  }

  if (figures.empty()) {
    std::cerr << "no scale produced a sample; not writing bench JSON\n";
    return 1;
  }
  bench::write_bench_json("scale_sweep", figures);
  return ok ? 0 : 1;
}
