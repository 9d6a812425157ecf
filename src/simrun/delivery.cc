#include "simrun/delivery.h"

#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"

namespace ecrs::simrun {
namespace {

// Doubles between the clock slices of two ranges: one cache line.
constexpr std::size_t kPad = 64 / sizeof(double);

// Fewest requests that pay for a second range: every range reads the
// whole batch, so a small batch is delivered by one range, inline.
constexpr std::size_t kMinBatch = 8192;

}  // namespace

void batch_delivery::deliver_round(edge::cluster& cluster,
                                   std::span<const workload::request> batch,
                                   double clock, double end) {
  ECRS_CHECK_MSG(end >= clock, "round end before the service clocks");
  if (!batch.empty()) {
    ECRS_CHECK_MSG(batch.front().arrival_time >= clock,
                   "arrival before the service clocks: "
                       << batch.front().arrival_time << " < " << clock);
    ECRS_CHECK_MSG(batch.back().arrival_time <= end,
                   "arrivals leaked past the round boundary");
  }
  const auto services =
      static_cast<std::uint32_t>(cluster.microservice_count());
  const std::size_t width =
      batch.size() < kMinBatch
          ? 1
          : std::min<std::size_t>(services, thread_pool::shared().size());
  if (clocks_.size() < services + width * kPad) {
    clocks_.resize(services + width * kPad);
  }
  const auto deliver_share = [&](std::size_t k) {
    const auto lo = static_cast<std::uint32_t>(k * services / width);
    const auto hi = static_cast<std::uint32_t>((k + 1) * services / width);
    deliver_range(cluster, batch, lo, hi, clocks_.data() + lo + k * kPad,
                  clock, end);
  };
  if (width == 1) {
    deliver_share(0);
  } else {
    thread_pool::shared().parallel_for(width, deliver_share);
  }
}

void batch_delivery::deliver_range(edge::cluster& cluster,
                                   std::span<const workload::request> batch,
                                   std::uint32_t lo, std::uint32_t hi,
                                   double* clocks, double clock, double end) {
  const auto services =
      static_cast<std::uint32_t>(cluster.microservice_count());
  const std::uint32_t width = hi - lo;
  std::fill(clocks, clocks + width, clock);
  // The batch is scanned in blocks: a branch-free pass lists the block's
  // requests for this range (a range owns ~1/ranges of them at random, so
  // testing each one in a branch mispredicts often), then those are
  // delivered in order.
  constexpr std::size_t kBlock = 256;
  std::uint16_t own[kBlock];
  bool unknown = false;
  for (std::size_t base = 0; base < batch.size(); base += kBlock) {
    const std::size_t n = std::min(kBlock, batch.size() - base);
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t m = batch[base + i].microservice;
      own[count] = static_cast<std::uint16_t>(i);
      count += m - lo < width ? 1 : 0;
      unknown |= m >= services;
    }
    for (std::size_t k = 0; k < count; ++k) {
      const workload::request& r = batch[base + own[k]];
      edge::microservice& svc = cluster.service(r.microservice);
      double& mark = clocks[r.microservice - lo];
      if (r.arrival_time > mark) {
        svc.advance(mark, r.arrival_time - mark);
        mark = r.arrival_time;
      }
      svc.enqueue(r);
    }
  }
  ECRS_CHECK_MSG(!unknown, "request for an unknown microservice");
  for (std::uint32_t m = lo; m < hi; ++m) {
    const double mark = clocks[m - lo];
    if (end > mark) cluster.service(m).advance(mark, end - mark);
  }
}

void des_delivery::deliver_round(edge::cluster& cluster,
                                 std::span<const workload::request> batch,
                                 double clock, double end) {
  ECRS_CHECK_MSG(end >= clock, "round end before the service clocks");
  clocks_.assign(cluster.microservice_count(), clock);
  arrivals_.resize(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    arrivals_[i] = batch[i].arrival_time;
  }
  sim_.schedule_stream(arrivals_, [&](std::size_t i) {
    const workload::request& r = batch[i];
    edge::microservice& svc = cluster.service(r.microservice);
    double& mark = clocks_[r.microservice];
    if (sim_.now() > mark) {
      svc.advance(mark, sim_.now() - mark);
      mark = sim_.now();
    }
    svc.enqueue(r);
  });
  sim_.run_until(end);
  for (std::uint32_t m = 0; m < clocks_.size(); ++m) {
    const double mark = clocks_[m];
    if (end > mark) cluster.service(m).advance(mark, end - mark);
  }
}

}  // namespace ecrs::simrun
