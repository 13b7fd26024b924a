#include "scenario/env_config.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <set>

namespace cgn::scenario {

namespace {

/// The knob's value, or nullptr when it is unset or empty.
const char* knob(const char* name) {
  const char* v = std::getenv(name);
  return v && *v ? v : nullptr;
}

void warn_once(const char* name, const char* value) {
  static std::mutex mu;
  static std::set<std::string> warned;
  std::lock_guard lock(mu);
  if (warned.insert(name).second)
    std::fprintf(stderr, "cgn: %s='%s' is not a valid number; using the "
                         "default\n",
                 name, value);
}

}  // namespace

std::optional<std::uint64_t> parse_u64(const char* text, std::uint64_t max) {
  // Digits only, as par::configured_threads parses CGN_THREADS: a sign,
  // blank or suffix rejects the whole value.
  if (!text || !*text || text[std::strspn(text, "0123456789")] != '\0')
    return std::nullopt;
  errno = 0;
  const unsigned long long x = std::strtoull(text, nullptr, 10);
  if (errno == ERANGE || x > max) return std::nullopt;
  return x;
}

std::optional<double> parse_double(const char* text) {
  // strtod would skip leading blanks and stop at trailing garbage; the
  // whole text must be the number.
  if (!text || !*text || std::isspace(static_cast<unsigned char>(*text)))
    return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const double x = std::strtod(text, &end);
  if (*end != '\0' || errno == ERANGE || !std::isfinite(x))
    return std::nullopt;
  return x;
}

double env_double(const char* name, double fallback) {
  const char* v = knob(name);
  if (!v) return fallback;
  const std::optional<double> x = parse_double(v);
  if (!x) warn_once(name, v);
  return x.value_or(fallback);
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = knob(name);
  if (!v) return fallback;
  const std::optional<std::uint64_t> x = parse_u64(v);
  if (!x) warn_once(name, v);
  return x.value_or(fallback);
}

double bench_scale() { return env_double("CGN_BENCH_SCALE", 0.4); }

std::uint64_t bench_seed() { return env_u64("CGN_BENCH_SEED", 42); }

fault::FaultPlan fault_plan_from_env() {
  fault::FaultPlan plan;
  plan.link.loss_rate = env_double("CGN_FAULT_LOSS", 0.0);
  plan.link.duplication_rate = env_double("CGN_FAULT_DUP", 0.0);
  plan.peers.unresponsive_fraction = env_double("CGN_FAULT_UNRESP", 0.0);
  plan.nat.restart_period_s = env_double("CGN_FAULT_RESTART_S", 0.0);
  plan.shards.crash_rate = env_double("CGN_FAULT_SHARD_CRASH", 0.0);
  return plan;
}

super::SupervisorConfig supervisor_config_from_env(const std::string& kind) {
  super::SupervisorConfig cfg;
  cfg.max_attempts = static_cast<int>(env_u64("CGN_SUPER_ATTEMPTS", 1));
  if (const char* dir = knob("CGN_SUPER_CHECKPOINT_DIR")) {
    // CheckpointWriter::open cannot create directories; make the drill
    // (point the env at a scratch dir, kill, rerun) just work.
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    cfg.checkpoint_path = std::string(dir) + "/" + kind + ".ckpt";
  }
  return cfg;
}

InternetConfig scaled_config() {
  const double scale = bench_scale();
  InternetConfig cfg;
  cfg.seed = bench_seed();
  auto scaled = [scale](std::size_t n) {
    return std::max<std::size_t>(8, static_cast<std::size_t>(
                                        static_cast<double>(n) * scale));
  };
  cfg.routed_ases = scaled(cfg.routed_ases);
  cfg.pbl_eyeballs = scaled(cfg.pbl_eyeballs);
  cfg.apnic_eyeballs = scaled(cfg.apnic_eyeballs);
  cfg.cellular_ases = scaled(cfg.cellular_ases);
  cfg.fault_plan = fault_plan_from_env();
  cfg.v6.enabled = env_u64("CGN_V6_TRANSITION", 0) != 0;
  return cfg;
}

}  // namespace cgn::scenario
