// Per-service delivery of a round's request batch (DESIGN.md section 13).
//
// A request touches only its own target's queue, and a queue's evolution
// depends only on the times and order of its own arrivals. So instead of
// one event loop over the whole batch, batch_delivery splits the services
// into contiguous id ranges, one per worker of thread_pool::shared(). Each
// worker reads the whole time-sorted batch front to back, advances and
// enqueues only the requests of its own services, and finally advances
// those services to the round end. Every queue sees exactly the operations
// the single-stream DES delivery (des::simulator::schedule_stream, as in
// perfbench's replica) gives it, in the same order, so every round
// statistic is bit-identical at any thread count.
//
// Each range keeps its services' clocks in its own slice of one scratch
// array, a cache line apart from the next slice: workers never write a
// shared line, and the slices reuse their storage across rounds. A batch
// too small to pay for the extra scans is delivered by one range, inline.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/annotations.h"
#include "des/simulator.h"
#include "edge/cluster.h"
#include "workload/request.h"

namespace ecrs::simrun {

class batch_delivery {
 public:
  // Delivers `batch` (arrives_before order, every arrival in
  // [clock, end]) to `cluster`'s microservices. Every service starts the
  // call at `clock`, is advanced to each of its arrivals before that
  // request is enqueued, and ends it advanced to `end`.
  void deliver_round(edge::cluster& cluster,
                     std::span<const workload::request> batch, double clock,
                     double end);

 private:
  // One range's share: services [lo, hi), their clocks at `clocks`.
  ECRS_HOT static void deliver_range(edge::cluster& cluster,
                                     std::span<const workload::request> batch,
                                     std::uint32_t lo, std::uint32_t hi,
                                     double* clocks, double clock,
                                     double end);

  std::vector<double> clocks_;
};

// The single-stream reference batch_delivery is checked against: one
// des::simulator stream over the whole batch, each arrival catching its
// service up from that service's own clock before it is enqueued (the
// delivery perfbench's replica times as des.deliver_ms). Same contract as
// batch_delivery::deliver_round; every call continues the simulator's
// timeline, so `clock` must be at least the previous call's `end`.
class des_delivery {
 public:
  void deliver_round(edge::cluster& cluster,
                     std::span<const workload::request> batch, double clock,
                     double end);

 private:
  des::simulator sim_;
  std::vector<des::sim_time> arrivals_;
  std::vector<double> clocks_;
};

}  // namespace ecrs::simrun
