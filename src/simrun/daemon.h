// The sustained closed-loop marketplace daemon (DESIGN.md section 13).
//
// One long-running synchronous loop wiring the whole reproduction into the
// feedback cycle of paper §V: per round,
//
//   1. scenario: set the round's arrival-rate multiplier (diurnal cycle,
//      flash crowds — simrun/scenario.h) and apply seller churn events;
//   2. simulate: generate the round lane-major, each microservice's
//      arrivals contiguous and in arrival order (a serial count walk over
//      the rng stream, then a parallel replay that writes every request
//      into its lane slot and a parallel per-lane sort —
//      workload/generator.h), and deliver it per service
//      (simrun/delivery.h): each pool worker owns a contiguous range of
//      microservices and walks only their lanes, advancing each service
//      lazily to each of its arrivals and serving the lane in place, then
//      advancing it to the round boundary; lanes that still hold
//      unserved requests are closed on the daemon thread, which copies
//      those requests into the services' own queues. Every queue sees
//      exactly what a single DES stream over the time-sorted batch
//      (des::simulator::schedule_stream, kept as the reference path in
//      perfbench's replica) would give it, so results do not depend on
//      the thread count. All fan-out goes through thread_pool::shared(),
//      and rounds below each pass's size grain run inline; the daemon
//      creates no thread;
//   3. observe: close each microservice's round directly into the demand
//      estimator's streaming path (demand::estimator::observe — no
//      round_stats vector is materialized) and finalize the round's
//      smoothed estimates in place (estimates_into);
//   4. ingest: feed the estimates into the round_ingestor's accumulator
//      rows (add_demands) and quantize them into the standing per-region
//      instances;
//   5. auction: run the sharded marketplace round (local MSOA rounds +
//      cross-region spillover);
//   6. close the loop: the units each microservice was granted (local
//      coverage minus deficits plus spillover awards) become its service
//      rate for the next round — allocation = base + per_unit · granted.
//
// Steady state is allocation-free and rebuild-free: the lanes and the
// generator's and sorter's scratch, estimator history, ingest
// accumulators, shard warm-start caches and spillover pools all reuse
// their storage. Generation and delivery allocate nothing once warm
// unless requests carry over into the next round (their copies go to the
// services' own queues), and the per-round observe → estimate → ingest
// chain performs zero heap allocations (bench/daemon_throughput.cc gates
// this).
//
// Checkpoint/restore: save() at any round boundary captures the complete
// dynamic state (generator rng, per-microservice queues with exact FP
// sums, estimator Holt history, per-shard ψ/χ/activity). A daemon
// restored from the checkpoint replays the remaining horizon
// byte-identically to the straight-through run: every cross-component
// contract it relies on (warm/cold auction identity, thread-count
// invariance, order-exact accumulation) is already ctest-enforced.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/checkpoint.h"
#include "demand/estimator.h"
// Not used by the daemon itself: code written against this header
// (perfbench's replica, whose serial DES delivery is the reference path)
// reaches the DES through it.
#include "des/simulator.h"  // IWYU pragma: export
#include "edge/cluster.h"
#include "edge/topology.h"
#include "market/ingest.h"
#include "market/marketplace.h"
#include "simrun/delivery.h"
#include "simrun/scenario.h"
#include "workload/generator.h"

namespace ecrs::simrun {

struct daemon_config {
  double round_duration = 600.0;  // paper: 10-minute rounds
  // Closed-loop coupling: a microservice granted g units runs the next
  // round at allocation = base_allocation + resources_per_unit * g. The
  // base keeps starved services serving (and their estimator indicators
  // finite) even when the market covers nothing.
  double base_allocation = 0.05;
  double resources_per_unit = 1.0;
  scenario_config scenario;
};

// Everything a daemon owns, by value: the daemon is self-contained and
// re-constructible from the same setup (the checkpoint contract — a
// restored daemon must be built from an identical setup, enforced by the
// config hash in the checkpoint header).
struct daemon_setup {
  workload::generator_config workload;
  edge::cluster_config cluster;
  demand::estimator_config estimator;
  market::ingest_config ingest;
  market::marketplace_options market;
  // Backhaul topology (finalized) and per-region standing bids/sellers,
  // exactly as fed to market::round_ingestor / market::marketplace.
  edge::topology topology{1};
  auction::regional_instance standing;
  std::vector<std::vector<auction::seller_profile>> sellers;
  daemon_config config;
};

class daemon {
 public:
  // Invoked after each completed round with the marketplace outcome and
  // the round's demand estimates (indexed by global microservice id).
  using round_callback =
      std::function<void(std::uint64_t round,
                         const market::marketplace_round& out,
                         std::span<const double> estimates)>;

  // Steady-state instrumentation: invoked with `true` immediately before
  // the round's observe -> estimate -> ingest chain and with `false` right
  // after the round's instances are finalized (before the auction).
  // bench/daemon_throughput brackets an allocation counter here to gate
  // the chain's allocation-free steady state.
  using chain_probe = std::function<void(bool entering)>;

  explicit daemon(daemon_setup setup);

  void set_round_callback(round_callback cb) { callback_ = std::move(cb); }
  void set_chain_probe(chain_probe probe) { probe_ = std::move(probe); }

  // Run `count` more rounds of the closed loop.
  void run_rounds(std::uint64_t count);

  [[nodiscard]] std::uint64_t rounds_completed() const { return completed_; }
  [[nodiscard]] std::uint64_t requests_delivered() const { return delivered_; }
  [[nodiscard]] const daemon_config& config() const { return config_; }
  [[nodiscard]] const demand::estimator& estimator() const {
    return estimator_;
  }
  [[nodiscard]] const edge::cluster& cluster() const { return cluster_; }
  [[nodiscard]] const market::marketplace& market() const { return market_; }
  [[nodiscard]] const workload::generator& generator() const { return gen_; }
  // Units granted per global microservice id in the last completed round.
  [[nodiscard]] std::span<const auction::units> last_grants() const {
    return granted_;
  }

  // ---- checkpoint/restore (common/checkpoint.h) ----------------------------
  // FNV-1a over the setup's behaviour-determining configuration; stored in
  // the checkpoint header so a checkpoint never restores into a daemon
  // built from a different setup.
  [[nodiscard]] std::uint64_t config_hash() const { return config_hash_; }

  // Serialize the complete dynamic state at the current round boundary.
  void save(ecrs::checkpoint_writer& w) const;
  // Restore into a FRESHLY CONSTRUCTED daemon (no rounds run) built from
  // the identical setup. Subsequent rounds are byte-identical to the
  // straight-through run.
  void load(ecrs::checkpoint_reader& r);
  void save_file(const std::string& path) const;
  void load_file(const std::string& path);

 private:
  void run_one_round();
  void apply_churn(std::uint64_t round);
  [[nodiscard]] churn_event churn_target(std::uint64_t ordinal) const;
  // Close the loop: turn the round's coverage into next-round allocations.
  void apply_allocations(const auction::regional_instance& inst,
                         const market::marketplace_round& out);

  // Declared first: hashed before the setup's topology and standing bids
  // move into the members below.
  std::uint64_t config_hash_ = 0;
  daemon_config config_;
  workload::generator gen_;
  edge::cluster cluster_;
  demand::estimator estimator_;
  edge::topology topo_;  // must outlive market_
  market::marketplace market_;
  market::round_ingestor ingestor_;
  batch_delivery delivery_;
  round_callback callback_;
  chain_probe probe_;
  std::vector<std::uint32_t> seller_counts_;  // per region
  std::vector<std::uint32_t> population_;     // per microservice, static
  // Round-scoped buffers, reused so steady-state rounds do not allocate.
  workload::request_lanes lanes_;
  std::vector<double> estimates_;
  std::vector<auction::units> granted_;
  market::marketplace_round market_out_;
  // Every service's clock at the last round boundary (they advance to the
  // boundary together at the end of each round's delivery).
  double clock_ = 0.0;
  std::uint64_t completed_ = 0;
  std::uint64_t delivered_ = 0;
};

}  // namespace ecrs::simrun
