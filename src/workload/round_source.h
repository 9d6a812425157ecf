// Abstract per-round request supplier.
//
// Decouples consumers of round batches (simrun::des_driver, replay tools,
// benches) from the concrete stochastic generator: anything that can fill a
// buffer with the requests arriving in [round_start, round_start + duration)
// — sorted by arrival time — can drive the event loop. workload::generator
// is the stochastic implementation; replay_source serves pre-recorded
// rounds (e.g. a trace loaded via workload/trace.h, or batches captured
// once so benchmark timings exclude generation cost).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "workload/request.h"

namespace ecrs::workload {

class round_source {
 public:
  virtual ~round_source() = default;

  // Number of distinct microservices requests may target (ids are
  // [0, microservice_count)).
  [[nodiscard]] virtual std::uint32_t microservice_count() const = 0;

  // Fill `batch` with the requests arriving in [round_start, round_start +
  // duration), sorted ascending by arrival time. `batch` is cleared first;
  // implementations should reuse its capacity. workload::generator emits
  // the total arrives_before order (arrival time, delay-sensitive first,
  // then request id), so its batches never depend on how ties were
  // broken; replay_source serves rounds in their recorded order.
  virtual void round_into(double round_start, double duration,
                          std::vector<request>& batch) = 0;

  // Zero-copy alternative: a source whose rounds already exist in memory may
  // hand out the round directly instead of copying it into the caller's
  // buffer. Returns nullptr when the source must generate (the default);
  // callers then fall back to round_into. A non-null view stays valid until
  // the source is destroyed or reset.
  [[nodiscard]] virtual const std::vector<request>* round_view(
      double /*round_start*/, double /*duration*/) {
    return nullptr;
  }
};

// Serves a fixed sequence of pre-recorded rounds, in order. round_into
// ignores the requested window beyond checking that rounds are consumed
// sequentially from the start; the caller owns keeping its round schedule
// consistent with how the rounds were recorded.
class replay_source final : public round_source {
 public:
  replay_source(std::vector<std::vector<request>> rounds,
                std::uint32_t microservices)
      : rounds_(std::move(rounds)), microservices_(microservices) {}

  [[nodiscard]] std::uint32_t microservice_count() const override {
    return microservices_;
  }

  void round_into(double /*round_start*/, double /*duration*/,
                  std::vector<request>& batch) override {
    ECRS_CHECK_MSG(next_ < rounds_.size(),
                   "replay_source exhausted after " << rounds_.size()
                                                    << " rounds");
    const auto& src = rounds_[next_++];
    batch.assign(src.begin(), src.end());
  }

  [[nodiscard]] const std::vector<request>* round_view(
      double /*round_start*/, double /*duration*/) override {
    ECRS_CHECK_MSG(next_ < rounds_.size(),
                   "replay_source exhausted after " << rounds_.size()
                                                    << " rounds");
    return &rounds_[next_++];
  }

  // Rewind so the same recording can drive another run.
  void reset() { next_ = 0; }

 private:
  std::vector<std::vector<request>> rounds_;
  std::uint32_t microservices_ = 0;
  std::size_t next_ = 0;
};

}  // namespace ecrs::workload
