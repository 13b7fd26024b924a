// The CGN_* environment knobs: strict parsing (a value that does not parse
// whole falls back to the default; the daemon's and the feeder's numeric
// flags share the parsers), each knob landing in its config field,
// and the one StreamDriverConfig builder the daemon, the feeder and the
// soak bench share. CGN_THREADS is covered by par_test.cpp; the remaining
// knobs (CGN_BENCH_JSON_DIR, CGN_SOAK_DURATION_S, CGN_SCALE_SWEEP_*) are
// read by bench binaries only.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "observatory/stream_driver.hpp"
#include "scenario/env_config.hpp"

namespace cgn {
namespace {

/// Clears the named knobs for the test's duration and restores whatever
/// the surrounding environment held afterwards.
class ScopedEnv {
 public:
  explicit ScopedEnv(std::vector<std::string> names) {
    for (std::string& name : names) {
      const char* v = std::getenv(name.c_str());
      saved_.emplace_back(std::move(name),
                          v ? std::optional<std::string>(v) : std::nullopt);
      unsetenv(saved_.back().first.c_str());
    }
  }
  ~ScopedEnv() {
    for (const auto& [name, value] : saved_) {
      if (value)
        setenv(name.c_str(), value->c_str(), 1);
      else
        unsetenv(name.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

  static void set(const char* name, const char* value) {
    ASSERT_EQ(setenv(name, value, 1), 0);
  }

 private:
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

const std::vector<std::string> kWorldKnobs = {
    "CGN_BENCH_SCALE",       "CGN_BENCH_SEED",       "CGN_FAULT_LOSS",
    "CGN_FAULT_DUP",         "CGN_FAULT_UNRESP",     "CGN_FAULT_RESTART_S",
    "CGN_FAULT_SHARD_CRASH", "CGN_V6_TRANSITION",    "CGN_SUPER_ATTEMPTS",
    "CGN_SUPER_CHECKPOINT_DIR"};

/// A fresh directory under the system temp dir, removed on scope exit.
struct TempDir {
  std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("cgn_env_config_test_" + std::to_string(::getpid()));
  TempDir() = default;
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

TEST(EnvConfig, UnsetKnobsGiveTheDefaults) {
  ScopedEnv env(kWorldKnobs);
  EXPECT_EQ(scenario::bench_scale(), 0.4);
  EXPECT_EQ(scenario::bench_seed(), 42u);
  const scenario::InternetConfig cfg = scenario::scaled_config();
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_FALSE(cfg.fault_plan.active());
  EXPECT_FALSE(cfg.v6.enabled);
  const super::SupervisorConfig sup =
      scenario::supervisor_config_from_env("netalyzr");
  EXPECT_EQ(sup.max_attempts, 1);
  EXPECT_TRUE(sup.checkpoint_path.empty());
}

TEST(EnvConfig, MalformedValueFallsBackToTheDefault) {
  ScopedEnv env(kWorldKnobs);
  const scenario::InternetConfig defaults = scenario::scaled_config();
  // atof("abc") used to read as 0, silently building the 8-AS minimum world.
  ScopedEnv::set("CGN_BENCH_SCALE", "abc");
  ScopedEnv::set("CGN_BENCH_SEED", "abc");
  EXPECT_EQ(scenario::bench_scale(), 0.4);
  EXPECT_EQ(scenario::bench_seed(), 42u);
  const scenario::InternetConfig cfg = scenario::scaled_config();
  EXPECT_EQ(cfg.routed_ases, defaults.routed_ases);
  EXPECT_EQ(cfg.seed, defaults.seed);
  for (const char* bad : {"", " 0.1", "inf", "nan", "1e999", "0x"}) {
    ScopedEnv::set("CGN_FAULT_LOSS", bad);
    EXPECT_EQ(scenario::env_double("CGN_FAULT_LOSS", 0.25), 0.25) << bad;
  }
  for (const char* bad :
       {"", "-2", "+4", " 4", "4.0", "99999999999999999999"}) {
    ScopedEnv::set("CGN_SUPER_ATTEMPTS", bad);
    EXPECT_EQ(scenario::env_u64("CGN_SUPER_ATTEMPTS", 7), 7u) << bad;
  }
}

TEST(EnvConfig, TrailingGarbageRejectsTheWholeValue) {
  ScopedEnv env(kWorldKnobs);
  // atof("0.1x") used to read as 0.1 and atoll("3x") as 3.
  ScopedEnv::set("CGN_FAULT_LOSS", "0.1x");
  ScopedEnv::set("CGN_SUPER_ATTEMPTS", "3x");
  ScopedEnv::set("CGN_V6_TRANSITION", "1 ");
  EXPECT_EQ(scenario::fault_plan_from_env().link.loss_rate, 0.0);
  EXPECT_EQ(scenario::supervisor_config_from_env("x").max_attempts, 1);
  EXPECT_FALSE(scenario::scaled_config().v6.enabled);
}

TEST(EnvConfig, ParsersTakeWholeValuesUpToTheMaximum) {
  // cgn_observatoryd / cgn_feeder parse their numeric flags here. atoll
  // used to read "--ingest-queue -5" as a capacity of ~2^64 and atoi
  // "--port 70000" as port 4464.
  EXPECT_EQ(scenario::parse_u64("-5"), std::nullopt);
  EXPECT_EQ(scenario::parse_u64("70000", 65535), std::nullopt);
  EXPECT_EQ(scenario::parse_u64("4x"), std::nullopt);
  EXPECT_EQ(scenario::parse_u64(""), std::nullopt);
  EXPECT_EQ(scenario::parse_u64(nullptr), std::nullopt);
  EXPECT_EQ(scenario::parse_u64("65535", 65535), 65535u);
  EXPECT_EQ(scenario::parse_u64("9464", 65535), 9464u);
  EXPECT_EQ(scenario::parse_u64("0"), 0u);
  EXPECT_EQ(scenario::parse_double("abc"), std::nullopt);
  EXPECT_EQ(scenario::parse_double("4x"), std::nullopt);
  EXPECT_EQ(scenario::parse_double(""), std::nullopt);
  EXPECT_EQ(scenario::parse_double(nullptr), std::nullopt);
  EXPECT_EQ(scenario::parse_double("600"), 600.0);
  EXPECT_EQ(scenario::parse_double("-5"), -5.0);
}

TEST(EnvConfig, RejectedValueWarnsOncePerKnob) {
  ScopedEnv env({"CGN_ENV_CONFIG_TEST_KNOB"});
  ScopedEnv::set("CGN_ENV_CONFIG_TEST_KNOB", "12abc");
  testing::internal::CaptureStderr();
  EXPECT_EQ(scenario::env_u64("CGN_ENV_CONFIG_TEST_KNOB", 5), 5u);
  EXPECT_EQ(scenario::env_double("CGN_ENV_CONFIG_TEST_KNOB", 0.5), 0.5);
  const std::string err = testing::internal::GetCapturedStderr();
  const std::string needle = "CGN_ENV_CONFIG_TEST_KNOB='12abc'";
  const std::size_t first = err.find(needle);
  ASSERT_NE(first, std::string::npos) << err;
  EXPECT_EQ(err.find(needle, first + 1), std::string::npos) << err;
}

TEST(EnvConfig, EachKnobLandsInItsField) {
  ScopedEnv env(kWorldKnobs);
  TempDir dir;
  ScopedEnv::set("CGN_BENCH_SCALE", "1");
  ScopedEnv::set("CGN_BENCH_SEED", "7");
  ScopedEnv::set("CGN_FAULT_LOSS", "0.125");
  ScopedEnv::set("CGN_FAULT_DUP", "0.25");
  ScopedEnv::set("CGN_FAULT_UNRESP", "0.5");
  ScopedEnv::set("CGN_FAULT_RESTART_S", "600");
  ScopedEnv::set("CGN_FAULT_SHARD_CRASH", "0.0625");
  ScopedEnv::set("CGN_V6_TRANSITION", "1");
  ScopedEnv::set("CGN_SUPER_ATTEMPTS", "3");
  ScopedEnv::set("CGN_SUPER_CHECKPOINT_DIR", dir.path.c_str());

  const scenario::InternetConfig cfg = scenario::scaled_config();
  const scenario::InternetConfig full_size;
  EXPECT_EQ(cfg.routed_ases, full_size.routed_ases);
  EXPECT_EQ(cfg.pbl_eyeballs, full_size.pbl_eyeballs);
  EXPECT_EQ(cfg.apnic_eyeballs, full_size.apnic_eyeballs);
  EXPECT_EQ(cfg.cellular_ases, full_size.cellular_ases);
  EXPECT_EQ(cfg.seed, 7u);
  EXPECT_EQ(cfg.fault_plan.link.loss_rate, 0.125);
  EXPECT_EQ(cfg.fault_plan.link.duplication_rate, 0.25);
  EXPECT_EQ(cfg.fault_plan.peers.unresponsive_fraction, 0.5);
  EXPECT_EQ(cfg.fault_plan.nat.restart_period_s, 600.0);
  EXPECT_EQ(cfg.fault_plan.shards.crash_rate, 0.0625);
  EXPECT_TRUE(cfg.fault_plan.active());
  EXPECT_TRUE(cfg.v6.enabled);

  const super::SupervisorConfig sup =
      scenario::supervisor_config_from_env("netalyzr");
  EXPECT_EQ(sup.max_attempts, 3);
  EXPECT_EQ(sup.checkpoint_path, dir.path.string() + "/netalyzr.ckpt");
  EXPECT_TRUE(std::filesystem::is_directory(dir.path));
}

TEST(EnvConfig, StreamDriverConfigFromEnv) {
  ScopedEnv env(kWorldKnobs);
  TempDir dir;
  ScopedEnv::set("CGN_BENCH_SCALE", "0.05");
  ScopedEnv::set("CGN_BENCH_SEED", "9");
  ScopedEnv::set("CGN_FAULT_LOSS", "0.01");
  ScopedEnv::set("CGN_SUPER_ATTEMPTS", "2");
  ScopedEnv::set("CGN_SUPER_CHECKPOINT_DIR", dir.path.c_str());

  observatory::StreamDriverConfig cfg =
      observatory::stream_driver_config_from_env();
  const scenario::InternetConfig world = scenario::scaled_config();
  EXPECT_EQ(cfg.world.seed, 9u);
  EXPECT_EQ(cfg.world.routed_ases, world.routed_ases);
  EXPECT_EQ(cfg.world.fault_plan.hash(), world.fault_plan.hash());
  EXPECT_FALSE(cfg.world.v6.enabled);
  EXPECT_FALSE(cfg.netalyzr.transition_battery);
  EXPECT_EQ(cfg.crawl.supervise.max_attempts, 2);
  EXPECT_EQ(cfg.netalyzr.supervise.max_attempts, 2);
  EXPECT_EQ(cfg.crawl.supervise.checkpoint_path,
            dir.path.string() + "/crawl_ping.ckpt");
  EXPECT_EQ(cfg.netalyzr.supervise.checkpoint_path,
            dir.path.string() + "/netalyzr.ckpt");
  // Everything the environment does not name keeps the streaming defaults.
  const scenario::NetalyzrCampaignConfig nz_defaults =
      observatory::stream_netalyzr_defaults();
  EXPECT_EQ(cfg.netalyzr.enum_fraction, nz_defaults.enum_fraction);
  EXPECT_EQ(cfg.netalyzr.stun_fraction, nz_defaults.stun_fraction);
  EXPECT_EQ(cfg.netalyzr.retry.attempts, 1);
  EXPECT_EQ(cfg.crawl.crawl.retry.attempts, 1);
  EXPECT_EQ(cfg.netalyzr.supervise.abort_after_shards, 0u);
  EXPECT_EQ(cfg.pace_us, 0);

  // A v6-transition world turns on the Big-NAT battery.
  ScopedEnv::set("CGN_V6_TRANSITION", "1");
  cfg = observatory::stream_driver_config_from_env();
  EXPECT_TRUE(cfg.world.v6.enabled);
  EXPECT_TRUE(cfg.netalyzr.transition_battery);
}

}  // namespace
}  // namespace cgn
