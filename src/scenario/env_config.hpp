// Environment-driven run configuration shared by the bench binaries and
// the cgn::observatory daemon: the scaled world, the impairment scenario
// and the supervision policy all come from the same CGN_* knobs, so "the
// daemon streams the same campaign the bench ran" is a matter of sharing a
// shell environment, not of duplicating parsing code. Each knob is read in
// exactly one place; the table of knobs is in README.md. Every other field
// of the configs built here keeps its in-code default and is set by the
// callers (tests, ablation benches) that need it.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "fault/fault.hpp"
#include "scenario/internet.hpp"
#include "super/supervisor.hpp"

namespace cgn::scenario {

/// Strict number parsing for knobs and command-line flags. parse_u64
/// takes plain decimal digits only (no sign, blank or suffix) and gives
/// nullopt above `max`; parse_double needs strtod to consume the whole text
/// and give a finite number. Both give nullopt for a null or empty text
/// and for a value that does not parse whole ("abc", "0.1x", " 4").
[[nodiscard]] std::optional<std::uint64_t> parse_u64(
    const char* text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
[[nodiscard]] std::optional<double> parse_double(const char* text);

/// A numeric CGN_* knob. Unset or empty gives `fallback`, and so does a
/// value the parse_* functions reject; such a value warns once per knob on
/// stderr.
[[nodiscard]] double env_double(const char* name, double fallback);
[[nodiscard]] std::uint64_t env_u64(const char* name, std::uint64_t fallback);

/// CGN_BENCH_SCALE (default 0.4): the world's size relative to the
/// calibrated 1:8 model (scale 1.0).
[[nodiscard]] double bench_scale();
/// CGN_BENCH_SEED (default 42): the world seed.
[[nodiscard]] std::uint64_t bench_seed();

/// The impairment scenario. All-zero defaults give the inactive plan
/// (clean runs identical to a no-fault build). CGN_FAULT_LOSS /
/// CGN_FAULT_DUP are per-hop / per-delivery rates; CGN_FAULT_UNRESP the
/// deaf-BT-peer fraction; CGN_FAULT_RESTART_S the CGN restart period;
/// CGN_FAULT_SHARD_CRASH kills campaign shard attempts (see cgn::super).
[[nodiscard]] fault::FaultPlan fault_plan_from_env();

/// Campaign supervision policy. CGN_SUPER_ATTEMPTS (default 1) sets the
/// per-shard budget; CGN_SUPER_CHECKPOINT_DIR enables checkpoint/resume
/// (one `<kind>.ckpt` file per campaign in that directory, created if
/// missing).
[[nodiscard]] super::SupervisorConfig supervisor_config_from_env(
    const std::string& kind);

/// The calibrated world at bench_scale() and bench_seed(), with the
/// fault_plan_from_env() scenario; CGN_V6_TRANSITION=1 enables the v6
/// world (default off: v4-only, figures byte-identical to a pre-v6 build).
[[nodiscard]] InternetConfig scaled_config();

}  // namespace cgn::scenario
