// Streaming regional ingestion: workload request batches straight into
// per-region shard instances (DESIGN.md section 12, PR 9).
//
// The PR 8 path materialized one GLOBAL single_stage_instance per round
// and split it with region_map::partition — at the 100-region / ~1M
// demander scale that is a full copy of every requirement and every bid,
// every round. The round_ingestor goes the other way: it owns the
// per-region standing bid sets once, and each round only rewrites the
// per-region requirement vectors from the request stream:
//
//   1. accumulate: every request adds its service_demand to its
//      microservice's accumulator row — region m % regions, local slot
//      m / regions, the same round-robin placement
//      workload::generator::region_of uses. Rows are carved from the
//      ingestor's arena at construction (one double row per region), so
//      the per-round loop is pure arithmetic into preallocated memory.
//   2. quantize: per region (parallel across regions, disjoint rows — or
//      serial; identical bytes either way), each accumulator becomes a
//      requirement: ceil(accumulated / unit_demand) units, capped by
//      max_requirement and by the region's guaranteed-supply bound
//      (auction::guaranteed_supply × supply_margin — the generators'
//      satisfiability clamp), then re-inflated by demand_scale exactly
//      like auction::regional_config::demand_scale. Accumulators reset
//      for the next round.
//
// The returned regional_instance is stable storage owned by the ingestor:
// feed it to marketplace::run_round, then ingest the next batch. Bids are
// standing across rounds, so shard warm-start caches engage. The steady
// state allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "auction/bid.h"
#include "auction/instance_gen.h"
#include "common/annotations.h"
#include "common/arena.h"
#include "workload/request.h"

namespace ecrs::market {

// Supply cap sentinel: no clamp (supply_margin == 0).
inline constexpr auction::units kNoSupplyCap =
    std::numeric_limits<auction::units>::max();

// Fewest demanders in a round for which the market's per-region stages
// (round_ingestor::finalize, marketplace::run_round's shard fan-out and
// spillover assembly) go to the pool; smaller rounds run inline, where the
// fork-join would cost more than the work it spreads. Measured on 4 cores
// with 8 regions (bench/shard_scaling, 8 sellers per region): the parallel
// horizon was still slower than serial at 8192 demanders per round (0.55
// vs 0.36 ms) and faster from 32768 (0.92 vs 1.55 ms). Below the grain,
// with the quantize pass still fanned out, `shard_scaling --regions=8
// --demanders=4 --rounds=50 --repeats=20` timed the parallel streamed
// horizon at 20-32 µs/round against 5-9 µs serial.
inline constexpr std::size_t kParallelDemanders = 16384;

struct ingest_config {
  std::uint32_t regions = 1;
  // Microservice id space of the request stream; microservice m lands on
  // region m % regions, local demander slot m / regions (the
  // workload::generator contract).
  std::uint32_t microservices = 1;
  // Resource-seconds of accumulated service demand per requirement unit.
  double unit_demand = 1.0;
  // Hard per-demander requirement cap in units (0 = uncapped), applied
  // before the supply clamp. Mirrors instance_config::requirement_hi.
  auction::units max_requirement = 0;
  // Clamp requirements to this fraction of the region's guaranteed supply
  // (auction::guaranteed_supply over the standing bids); 0 = no clamp.
  double supply_margin = 0.0;
  // Post-clamp demand multiplier, exactly regional_config::demand_scale:
  // > 1 re-inflates requirements past local supply so only cross-region
  // spillover can cover them.
  double demand_scale = 1.0;
  // Worker threads for the quantize pass: 1 = serial, 0 = shared pool at
  // hardware width, k = at most k workers. Identical bytes at any value.
  // Rounds under kParallelDemanders quantize inline at any value.
  std::size_t threads = 1;
};

// One request batch's demand, quantized to auction units: ceil of
// accumulated / unit_demand, capped by max_requirement (when > 0) and
// supply_cap (kNoSupplyCap = none), then scaled by demand_scale (ceil).
// Shared by the ingestor, the batch-partition equivalence tests and the
// bench's PR 8 reference path, so both paths quantize bit-identically.
[[nodiscard]] auction::units quantize_demand(double accumulated,
                                             const ingest_config& config,
                                             auction::units supply_cap);

class round_ingestor {
 public:
  // Takes ownership of the standing per-region bid sets. Requirement
  // vectors of `standing` are resized to the region's demander count
  // (microservices / regions rounded by slot) and rewritten every round;
  // bids must use region-local ids consistent with that demander count.
  round_ingestor(ingest_config config, auction::regional_instance standing);

  [[nodiscard]] const ingest_config& config() const { return config_; }
  // The current round view (requirements of the last ingest() call).
  [[nodiscard]] const auction::regional_instance& round() const {
    return round_;
  }

  [[nodiscard]] std::uint32_t region_of(std::uint32_t microservice) const {
    return microservice % config_.regions;
  }
  [[nodiscard]] std::uint32_t local_demander(
      std::uint32_t microservice) const {
    return microservice / config_.regions;
  }
  // Demanders hosted on `region` under round-robin placement.
  [[nodiscard]] std::uint32_t demanders_in(std::uint32_t region) const;
  // The region-local guaranteed-supply cap (kNoSupplyCap when unclamped).
  [[nodiscard]] auction::units supply_cap(std::uint32_t region,
                                          std::uint32_t local) const;

  // Add one (sub-)batch's service demand to the round's accumulators,
  // serial in batch order. Callable any number of times per round — the
  // stream does not have to arrive as one batch; sums are order-exact per
  // microservice, so splitting a batch at any point is byte-identical to
  // accumulating it whole.
  ECRS_HOT void accumulate(std::span<const workload::request> batch);

  // Estimator-driven flavour: add `amount` resource-seconds of estimated
  // demand directly to one microservice's accumulator — the closed-loop
  // daemon path, where requirements come from demand::estimator output
  // rather than raw request sums. Mixable with accumulate() in one round.
  ECRS_HOT void add_demand(std::uint32_t microservice, double amount);

  // add_demand for a dense per-microservice vector (index = global id).
  ECRS_HOT void add_demands(std::span<const double> by_microservice);

  // Close the round: quantize every accumulator into its region's
  // requirement vector (parallel across regions per config.threads from
  // kParallelDemanders up, disjoint writes — byte-identical at any thread
  // count), reset the accumulators, and return the round's per-region
  // instances.
  const auction::regional_instance& finalize();

  // accumulate() + finalize() for the common one-batch-per-round loop.
  const auction::regional_instance& ingest(
      std::span<const workload::request> batch);

 private:
  ECRS_HOT void quantize_region(std::uint32_t region);

  ingest_config config_;
  auction::regional_instance round_;
  arena arena_;  // accumulator + cap rows, live for the ingestor lifetime
  std::vector<double*> accum_;          // per region, demanders_in(r) slots
  std::vector<auction::units*> caps_;   // per region (empty when unclamped)
};

}  // namespace ecrs::market
