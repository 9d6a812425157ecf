// A copy of simrun::daemon's round loop, written against each layer's
// public API so the benchmark can put a span around every layer call:
//
//   scenario -> generator::round_into -> simulator::schedule_stream /
//   run_until (microservice::advance / enqueue per arrival) ->
//   microservice::end_round (all services) -> estimator::observe (all
//   services) -> estimates_into -> round_ingestor::add_demands / finalize
//   -> marketplace::run_round -> microservice::set_allocation.
//
// The daemon streams end_round straight into observe; the replica closes
// every service into a reused round_stats buffer first and observes it in
// a second pass, so the two layers time apart. The estimator only reads
// the stats, so the order changes nothing, and the benchmark's digest gate
// requires every replica round to equal the daemon's byte for byte. The
// churn and grant-application code is the daemon's private code, copied;
// that gate keeps the copy honest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "simrun/daemon.h"
#include "trace.h"

namespace perfbench {

class replica {
 public:
  // `shadow_serial`: also run every round's instance through a second,
  // serial (threads=1) marketplace, outside the round span, so the serial
  // and parallel shard fan-out times are measured on the same rounds.
  replica(ecrs::simrun::daemon_setup setup, bool shadow_serial);

  // Runs the next round; with a tracer, records one round span and one
  // span per layer call.
  void run_round(tracer* t);

  [[nodiscard]] std::uint64_t rounds_completed() const { return completed_; }
  [[nodiscard]] const ecrs::edge::cluster& cluster() const { return cluster_; }
  [[nodiscard]] const ecrs::demand::estimator& estimator() const {
    return estimator_;
  }
  [[nodiscard]] const ecrs::simrun::daemon_config& config() const {
    return config_;
  }

  // Last completed round.
  [[nodiscard]] const ecrs::market::marketplace_round& last_market() const {
    return market_out_;
  }
  [[nodiscard]] const ecrs::auction::regional_instance& last_instance() const {
    return ingestor_.round();
  }
  [[nodiscard]] std::span<const double> last_estimates() const {
    return estimates_;
  }
  [[nodiscard]] std::span<const ecrs::auction::units> last_grants() const {
    return granted_;
  }
  [[nodiscard]] std::span<const ecrs::edge::round_stats> last_stats() const {
    return stats_;
  }
  [[nodiscard]] std::size_t last_requests() const { return batch_.size(); }
  [[nodiscard]] std::uint64_t last_des_events() const { return last_events_; }
  [[nodiscard]] const ecrs::market::marketplace_timing& market_timing() const {
    return market_.last_timing();
  }
  // The shadow marketplace (present only with shadow_serial).
  [[nodiscard]] const ecrs::market::marketplace* shadow() const {
    return shadow_ ? &*shadow_ : nullptr;
  }
  [[nodiscard]] const ecrs::market::marketplace_round& shadow_out() const {
    return shadow_out_;
  }

 private:
  void apply_churn(std::uint64_t round);
  void apply_allocations(const ecrs::auction::regional_instance& inst,
                         const ecrs::market::marketplace_round& out);

  ecrs::simrun::daemon_config config_;
  ecrs::workload::generator gen_;
  ecrs::edge::cluster cluster_;
  ecrs::demand::estimator estimator_;
  ecrs::edge::topology topo_;  // must outlive both marketplaces
  ecrs::market::marketplace market_;
  std::optional<ecrs::market::marketplace> shadow_;
  ecrs::market::round_ingestor ingestor_;
  ecrs::des::simulator sim_;
  std::vector<std::uint32_t> seller_counts_;  // per region
  std::vector<std::uint32_t> population_;     // per microservice
  std::vector<ecrs::workload::request> batch_;
  std::vector<ecrs::des::sim_time> arrivals_;
  std::vector<ecrs::edge::round_stats> stats_;
  std::vector<double> estimates_;
  std::vector<ecrs::auction::units> granted_;
  ecrs::market::marketplace_round market_out_;
  ecrs::market::marketplace_round shadow_out_;
  std::vector<double> service_clock_;
  std::uint64_t completed_ = 0;
  std::uint64_t last_events_ = 0;
};

}  // namespace perfbench
