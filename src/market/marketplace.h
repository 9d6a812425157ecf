// The sharded multi-region marketplace (DESIGN.md section 12).
//
// One MSOA shard per edge::topology region, run concurrently on the shared
// thread pool, then a serial spillover stage re-auctioning uncovered demand
// to neighboring regions. Per round:
//
//   1. fan out: every shard runs its region's local auction round on its
//      own warm-start msoa_session (disjoint state — results land in
//      disjoint slots, spill requests in disjoint mailbox slots);
//   2. drain #1: coordinator collects spill_requests ordered by
//      (to, from, post sequence) — ascending origin region;
//   3. spillover: uncovered demand is re-auctioned against neighbors'
//      spare capacity (market/spillover.h), grants posted as mail;
//   4. drain #2: helper shards apply their grants (capacity + ψ charge);
//   5. reduce: totals accumulated serially in ascending region order.
//
// Determinism: the parallel stage writes disjoint slots, every cross-shard
// ordering is a pure function of region ids (never completion order), and
// each shard's state depends only on its own instance stream — so a round's
// result is byte-identical at any thread count, including against the
// serial composition of the same shards (ctest-enforced; tests/market_test).
#pragma once

#include <cstdint>
#include <vector>

#include "auction/instance_gen.h"
#include "edge/topology.h"
#include "market/mailbox.h"
#include "market/shard.h"
#include "market/spillover.h"

namespace ecrs::market {

struct marketplace_options {
  shard_options shard;            // per-region session configuration
  spillover_options spillover;    // cross-region re-auction stage
  // Worker threads for the shard fan-out and the spillover candidate
  // assembly: 1 = serial on the calling thread, 0 = the shared pool at
  // hardware width, k = at most k workers. Results are identical for
  // every setting. A round with fewer than 16384 demanders runs both
  // stages inline whatever the setting: below that the fork-join costs
  // more than the work it spreads (marketplace.cc).
  std::size_t threads = 0;
};

// Wall-clock telemetry of the last round. Perf reporting only — values
// depend on the machine and thread count, so they are kept OUT of
// marketplace_round (whose bytes are thread-count-invariant).
struct marketplace_timing {
  double shard_ms = 0.0;           // parallel local-round fan-out
  double spill_ms = 0.0;           // whole spillover stage
  double spill_assembly_ms = 0.0;  // candidate assembly within spillover
};

// One marketplace round, all regions.
struct marketplace_round {
  std::uint32_t round = 0;                // 1-based
  std::vector<shard_round> shards;        // per region, local outcomes
  spillover_outcome spillover;
  double social_cost = 0.0;               // local true prices + spill asks
  double total_payment = 0.0;             // local + spill payments
  auction::units unmet_units = 0;         // demand no one could cover
  bool feasible = false;                  // unmet_units == 0
};

class marketplace {
 public:
  // `topo` must be finalized, cover at least `sellers_per_region.size()`
  // clouds, and outlive the marketplace. One shard is built per entry of
  // `sellers_per_region` (the region's seller profiles, local ids).
  marketplace(const edge::topology& topo,
              std::vector<std::vector<auction::seller_profile>>
                  sellers_per_region,
              marketplace_options options = {});

  [[nodiscard]] std::uint32_t regions() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] std::uint32_t rounds_run() const { return round_; }
  [[nodiscard]] const shard& region(std::uint32_t r) const;

  // Run one round: `round` must carry one single-stage instance (true
  // prices, region-local ids) per region.
  [[nodiscard]] marketplace_round run_round(
      const auction::regional_instance& round);

  // Allocation-reusing flavour: clears and refills `out`'s vectors keeping
  // their capacity. Bit-identical to the value overload. With warm shard
  // sessions (payment_threads == 1) the steady-state round stays off the
  // allocator end to end: spill requests are spans into the round records,
  // spillover candidates live in the stage's arena, and every pooled
  // buffer reuses its capacity.
  void run_round(const auction::regional_instance& round,
                 marketplace_round& out);

  // Timing of the last run_round (see marketplace_timing).
  [[nodiscard]] const marketplace_timing& last_timing() const {
    return timing_;
  }

  // Seller churn: deactivate/reactivate one region-local seller. Takes
  // effect at the next round's admission (and spillover spare-offer) pass.
  void set_seller_active(std::uint32_t region, auction::seller_id s,
                         bool active);

  // Checkpoint the marketplace at a round boundary: round counter plus
  // every shard session's cross-round state. The mailbox must be drained
  // (it always is between run_round calls) and the spillover stage holds
  // only per-round scratch, so neither is serialized.
  void save(ecrs::checkpoint_writer& w) const;
  void load(ecrs::checkpoint_reader& r);

 private:
  const edge::topology* topo_;
  marketplace_options options_;
  std::vector<shard> shards_;
  post_office po_;
  std::uint32_t round_ = 0;
  // Coordinator scratch: requests drained from the mailbox each round.
  std::vector<message> requests_;
  // Persistent spillover stage: candidate arena, pooled re-auction
  // storage, SSAM scratch — reused across rounds.
  spillover_stage spill_stage_;
  marketplace_timing timing_;
};

}  // namespace ecrs::market
