#include "simrun/delivery.h"

#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"

namespace ecrs::simrun {
namespace {

// Fewest requests that pay for the fork-join: a smaller round is
// delivered by one range, inline.
constexpr std::size_t kMinBatch = 8192;

}  // namespace

void batch_delivery::deliver_round(edge::cluster& cluster,
                                   const workload::request_lanes& lanes,
                                   double clock, double end) {
  ECRS_CHECK_MSG(end >= clock, "round end before the service clocks");
  const auto services =
      static_cast<std::uint32_t>(cluster.microservice_count());
  ECRS_CHECK_MSG(lanes.lane_count() == services,
                 lanes.lane_count() << " lanes for " << services
                                    << " microservices");
  const std::size_t width =
      lanes.requests.size() < kMinBatch
          ? 1
          : std::min<std::size_t>(services, thread_pool::shared().size());
  if (carried_.size() < services) carried_.resize(services);
  if (carried_count_.size() < width) carried_count_.resize(width);
  const auto first = [&](std::size_t k) {
    return static_cast<std::uint32_t>(k * services / width);
  };
  const auto deliver_share = [&](std::size_t k) {
    carried_count_[k] = deliver_lanes(cluster, lanes, first(k), first(k + 1),
                                      clock, end, carried_.data() + first(k));
  };
  if (width == 1) {
    deliver_share(0);
  } else {
    thread_pool::shared().parallel_for(width, deliver_share);
  }
  // Closing copies a lane's unserved entries into its service's own
  // queue, so it runs here, on the calling thread.
  for (std::size_t k = 0; k < width; ++k) {
    for (std::uint32_t i = 0; i < carried_count_[k]; ++i) {
      cluster.service(carried_[first(k) + i]).close_lane();
    }
  }
}

std::uint32_t batch_delivery::deliver_lanes(
    edge::cluster& cluster, const workload::request_lanes& lanes,
    std::uint32_t lo, std::uint32_t hi, double clock, double end,
    std::uint32_t* carried) {
  std::uint32_t count = 0;
  for (std::uint32_t m = lo; m < hi; ++m) {
    const std::span<const workload::request> lane = lanes.lane(m);
    if (!lane.empty()) {
      ECRS_CHECK_MSG(lane.front().arrival_time >= clock,
                     "arrival before the service clocks: "
                         << lane.front().arrival_time << " < " << clock);
      ECRS_CHECK_MSG(lane.back().arrival_time <= end,
                     "arrivals leaked past the round boundary");
    }
    edge::microservice& svc = cluster.service(m);
    svc.open_lane(lane);
    double mark = clock;
    for (const workload::request& r : lane) {
      if (r.arrival_time > mark) {
        svc.advance(mark, r.arrival_time - mark);
        mark = r.arrival_time;
      }
      svc.admit_next();
    }
    if (end > mark) svc.advance(mark, end - mark);
    // A drained lane copies nothing when it closes, so it closes here.
    if (svc.lane_drained()) {
      svc.close_lane();
    } else {
      carried[count++] = m;
    }
  }
  return count;
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
