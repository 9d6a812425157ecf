// The benchmark's named closed-loop workloads (README.md beside this file
// says why each exists). Each maps a seed to a complete
// simrun::daemon_setup, so the daemon, the gate daemons and the traced
// replica of one run are built from byte-identical inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "simrun/daemon.h"

namespace perfbench {

struct workload_spec {
  std::string_view name;
  std::size_t regions = 8;
  std::size_t sellers = 8;    // per region
  std::size_t demanders = 4;  // per region
  std::uint32_t users = 1;    // ~15 requests per user per round
  ecrs::simrun::scenario_config scenario;
  // Every run replays rounds 1..quality_rounds on the benchmark's replica
  // loop and on the timed daemon, and requires both to agree round by
  // round. The deterministic quality metrics cover the settled window
  // (settle_rounds, quality_rounds]: the first rounds are the loop's
  // start-up transient, whose backlog dwarfs the steady state.
  std::uint64_t quality_rounds = 100;
  std::uint64_t settle_rounds = 50;
  // Rounds of the serial-vs-parallel and checkpoint-resume gates.
  std::uint64_t gate_rounds = 12;
  // Timing runs in whole passes of this many rounds (one period of the
  // scenario), so every run samples each scenario phase equally often.
  std::uint64_t timing_period = 96;
};

// Looks a workload up by name; nullopt for an unknown name.
[[nodiscard]] std::optional<workload_spec> find_workload(
    std::string_view name);

// The comma-separated workload names, for usage text.
[[nodiscard]] const char* workload_names();

// Builds the daemon setup for `spec`, with `seed` driving the request
// stream and the marketplace capped at `market_threads` workers (1 =
// serial).
[[nodiscard]] ecrs::simrun::daemon_setup build_setup(
    const workload_spec& spec, std::uint64_t seed,
    std::size_t market_threads);

}  // namespace perfbench
