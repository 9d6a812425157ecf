// Workload generator (paper §V-A).
//
// 300 edge users issue requests to microservices. Each microservice serves
// one of two QoS classes: delay-sensitive request batches arrive with
// Poisson mean 5 per round, delay-tolerant with Poisson mean 10 per round.
// Service demands are exponential around a configurable mean.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/checkpoint.h"
#include "common/rng.h"
#include "workload/request.h"
#include "workload/round_source.h"

namespace ecrs::workload {

struct generator_config {
  std::uint32_t users = 300;
  std::uint32_t microservices = 25;
  // Fraction of microservices that are delay-sensitive.
  double delay_sensitive_fraction = 0.5;
  // Poisson mean of requests per (user, round) for each class, spread across
  // the microservices of that class.
  double sensitive_mean = 5.0;
  double tolerant_mean = 10.0;
  // Mean resource-seconds of work per request (exponentially distributed).
  double mean_service_demand = 1.0;
  // Per-class overrides (paper's future-work extension: "diverse processing
  // time of each task"). 0 = use mean_service_demand.
  double sensitive_mean_demand = 0.0;
  double tolerant_mean_demand = 0.0;
  // Edge cloud regions hosting the microservices (sharded marketplace).
  // Microservice m is hosted on region m % regions, so every request is
  // tagged with the region that must serve it. 1 = the single-market
  // setups of PRs 1-7 (every request tagged region 0; streams unchanged).
  std::uint32_t regions = 1;
  std::uint64_t seed = 42;
};

// Sorts a batch into arrives_before order with a two-level bucket sort on
// arrival time. Level 1 permutes the batch in place into ~n/256 coarse
// buckets over [window_start, window_start + window_length) (an
// American-flag cycle permutation). Level 2 counting-scatters each coarse
// bucket by a fine time key into a scratch buffer and insertion-sorts it
// back into place. For large batches the key pass and level 2 run in
// parallel on thread_pool::shared(). Bucket keys are monotone in arrival
// time, so the result is correct for any finite times. Speed
// needs the times spread over the window: requests that share a fine
// bucket (equal timestamps, or times clamped into an end bucket from
// outside the window) are ordered by the insertion sort alone, which is
// quadratic in their number.
//
// sort_lanes sorts each lane of a lane-major batch (request_lanes) on its
// own, by level 2 alone: a lane is one coarse bucket spanning the window.
// Contiguous runs of lanes, split at equal request counts, sort in
// parallel.
//
// Scratch: a 2-byte key per slot of the batch's capacity plus, per run,
// its slice's bucket counts and one coarse bucket (or lane) with its fine
// counters; it grows on demand and never shrinks, so sorting batches no
// larger than earlier ones allocates nothing.
class arrival_sorter {
 public:
  // Requires window_length > 0.
  void sort(std::vector<request>& batch, double window_start,
            double window_length);
  // Sorts requests[offsets[m], offsets[m + 1]) for every lane m; `offsets`
  // ends at requests.size(). Requires window_length > 0.
  void sort_lanes(std::vector<request>& requests,
                  std::span<const std::size_t> offsets, double window_start,
                  double window_length);

 private:
  // One run's scratch: its batch slice's coarse bucket counts, then the
  // fine counters and one scattered bucket for its level-2 buckets.
  struct run_scratch {
    std::vector<std::uint32_t> counts;
    std::vector<std::uint32_t> cursors;
    std::vector<request> bucket;
  };

  // Sorts the m requests of one coarse bucket (starting at `out`, keys at
  // `keys`) by fine-scattering them into `scratch` and insertion-sorting
  // them back.
  static void sort_bucket(request* out, std::size_t m, std::uint16_t* keys,
                          double base, double window_start, double scale,
                          run_scratch& scratch);

  std::vector<std::uint16_t> keys_;     // coarse, then fine key per request
  std::vector<std::uint32_t> ends_;     // one past each coarse bucket
  std::vector<std::uint32_t> cursors_;  // coarse bucket heads
  std::vector<run_scratch> scratch_;    // one per run
};

// Per-round batch: the requests that arrived during one auction round, in
// arrives_before order: arrival time, delay-sensitive first among equal
// times (the paper's priority), then request id.
class generator final : public round_source {
 public:
  explicit generator(generator_config config);

  [[nodiscard]] const generator_config& config() const { return config_; }

  [[nodiscard]] std::uint32_t microservice_count() const override {
    return config_.microservices;
  }

  // QoS class assigned to each microservice (index = microservice id).
  [[nodiscard]] qos_class class_of(std::uint32_t microservice) const;

  // Generate all requests arriving in [round_start, round_start + duration).
  [[nodiscard]] std::vector<request> round(double round_start,
                                           double duration);

  // Same stream of requests, written into a caller-owned buffer: `batch` is
  // reserved from expected_arrivals_per_round() and refilled, so a driver
  // that reuses one buffer pays no allocation in steady state. The round
  // is generated lane-major (see round_lanes), then sorted into
  // arrives_before order by arrival_sorter::sort.
  void round_into(double round_start, double duration,
                  std::vector<request>& batch) override;

  // The same round, lane-major: lane m holds the requests round_into
  // would emit for microservice m, ids included, in the same order. Both
  // calls consume the rng stream identically. Generation (DESIGN.md
  // section 14): a serial count walk consumes the stream, writes no
  // request, snapshots the rng at chunk boundaries (whole users) and
  // counts each chunk's requests per lane; a prefix sum gives each chunk
  // its cursor in every lane; the chunks are replayed from their
  // snapshots in parallel, each request written straight into its lane
  // slot; then every lane is sorted (arrival_sorter::sort_lanes). Large
  // rounds fan out over thread_pool::shared(); the output is the same at
  // any width. `lanes` reuses its storage across calls.
  void round_lanes(double round_start, double duration,
                   request_lanes& lanes);

  // Total expected arrivals per round across all users (sanity metric).
  [[nodiscard]] double expected_arrivals_per_round() const;

  // Effective mean service demand of a QoS class (override or global).
  [[nodiscard]] double mean_demand_of(qos_class cls) const;

  // Scale the per-class Poisson arrival means for subsequent rounds
  // (service demands are untouched). Scenario programs drive this per
  // round: diurnal cycles, flash crowds. 1.0 = configured rates.
  void set_rate_scale(double scale);
  [[nodiscard]] double rate_scale() const { return rate_scale_; }

  // Checkpoint the generator's dynamic state (rng state, next request id,
  // current rate scale). Class assignment and target lists are
  // construction-time deterministic from the config and not serialized.
  void save(ecrs::checkpoint_writer& w) const;
  void load(ecrs::checkpoint_reader& r);

 private:
  generator_config config_;
  rng gen_;
  std::uint64_t next_request_id_ = 1;
  double rate_scale_ = 1.0;
  std::vector<qos_class> class_by_service_;
  // Microservice ids by class, ascending: round_into targets a class with
  // one uniform draw instead of rejection sampling the full id space.
  std::vector<std::uint32_t> sensitive_ids_;
  std::vector<std::uint32_t> tolerant_ids_;
  // Generates the round lane-major into `out`, lane m at
  // out[offsets[m], offsets[m + 1]) in stream order (not yet sorted).
  void fill_lanes(double round_start, double duration,
                  std::vector<request>& out,
                  std::vector<std::size_t>& offsets);

  arrival_sorter sorter_;
  // fill_lanes scratch, reused across rounds: the rng state and first
  // stream index at each chunk's start, the (chunk, lane) counts that
  // become cursors, and round_into's lane offsets.
  std::vector<std::array<std::uint64_t, 4>> snapshots_;
  std::vector<std::size_t> chunk_first_;
  std::vector<std::uint32_t> cursors_;
  std::vector<std::size_t> offsets_;
};

}  // namespace ecrs::workload
