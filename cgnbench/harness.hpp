// Measurement scaffolding shared by the benchmark workloads: timing and
// quantiles, operation accounting, the span tracer behind --trace 1, a
// loopback HTTP client for the open-loop query generator, and the
// process-level probes (peak RSS, heap in use, parallel capacity).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace cgnbench {

/// Seconds on the steady clock since an arbitrary process-wide epoch.
[[nodiscard]] double now_s();

/// Linear-interpolated quantile of `v` (q in [0,1]); 0 for an empty set.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Operations a run attempted and how many of them failed. Every output
/// check, query, shard and ingest frame lands here; a failed check is a
/// failed operation, never a skipped one.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few reasons, for stderr

  /// Counts one operation; `ok == false` records it as failed.
  void check(bool ok, const std::string& what);
  /// Counts `n` operations of which `bad` failed.
  void add(std::uint64_t n, std::uint64_t bad, const std::string& what);
};

/// Spans recorded around the benchmark's calls into each layer, from one
/// thread. Names are "<layer>.<call>"; a span's parent is the innermost
/// span still open when it began. Spans stay in memory and are written out
/// once, when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;  ///< index of the parent span, -1 for a root
    int run = 0;      ///< iteration the span belongs to; < 0 for set-up
  };

  /// Turns recording on or off (off: ScopedSpan costs one branch).
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_run(int run) { run_ = run; }

  int begin(const std::string& name);
  void end(int index);

  /// Per-layer self time (span duration minus its children), summed over
  /// the measured iterations (set-up spans excluded).
  [[nodiscard]] std::map<std::string, double> layer_self_s() const;
  /// Summed duration of the measured root spans and of their self time.
  void root_totals(double& total_s, double& self_s) const;

  /// Writes every span as JSON: {"spans":[{name,start_s,end_s,parent,run}]}.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  int run_ = 0;
  std::vector<Span> spans_;
};

/// RAII span; records nothing when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name)
      : tracer_(tracer), index_(tracer.enabled() ? tracer.begin(name) : -1) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (index_ >= 0) tracer_.end(index_);
  }

 private:
  Tracer& tracer_;
  int index_;
};

/// Result of one loopback HTTP GET.
struct HttpReply {
  bool ok = false;  ///< transport completed and a status line parsed
  int status = 0;
  std::string body;
};

/// One GET on a fresh connection to 127.0.0.1:`port` (HTTP/1.0, the
/// observatory closes after each reply). Times out after `timeout_ms`.
[[nodiscard]] HttpReply http_get(std::uint16_t port, const std::string& path,
                                 int timeout_ms);

/// True when `text` is one well-formed JSON value (RFC 8259 grammar).
[[nodiscard]] bool json_valid(const std::string& text);

/// Process peak resident set (VmHWM) in MiB.
[[nodiscard]] double peak_rss_mib();
/// Returns freed heap pages to the kernel and resets VmHWM to the current
/// resident set (Linux >= 4.0); false when the kernel refused.
bool reset_peak_rss();
/// Bytes currently allocated on the malloc heap.
[[nodiscard]] double heap_in_use_bytes();

/// Throughput of `threads` pure-compute spinners relative to one, over
/// `seconds` each: the parallel capacity the machine actually delivers.
[[nodiscard]] double spinner_capacity(int threads, double seconds);

}  // namespace cgnbench
