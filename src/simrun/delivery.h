// Per-service delivery of a round's requests (DESIGN.md section 13).
//
// A request touches only its own target's queue, and a queue's evolution
// depends only on the times and order of its own arrivals. So the round
// comes lane-major (workload::request_lanes: each service's arrivals
// contiguous, in arrives_before order), and batch_delivery splits the
// services into contiguous id ranges, one per worker of
// thread_pool::shared(). Each worker walks only its own services' lanes:
// a service borrows its lane (edge::microservice::open_lane), is advanced
// to each arrival before admitting it, and ends advanced to the round
// end, serving the admitted entries in place. Every queue sees exactly
// the operations the single-stream DES delivery (des_delivery below, as
// in perfbench's replica) gives it, in the same order, so every round
// statistic is bit-identical at any thread count. A worker closes each
// lane its service drained (closing copies nothing); after the fan-out
// the calling thread closes the rest, moving each unserved tail into its
// service's own queue. So no queue memory is allocated on a pool worker,
// and a round whose lanes drain allocates none at all. A round too small
// to pay for the fork-join is delivered inline.
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
  // Delivers `lanes` (one lane per microservice, every arrival in
  // [clock, end]) to `cluster`'s microservices. Every service starts the
  // call at `clock`, is advanced to each of its arrivals before that
  // request is admitted, and ends it advanced to `end`. No lane is open
  // when the call returns. A lane with an arrival outside [clock, end]
  // throws before its service moves, but other services may have taken
  // their lanes by then: the cluster is not fit for further rounds.
  void deliver_round(edge::cluster& cluster,
                     const workload::request_lanes& lanes, double clock,
                     double end);

 private:
  // One worker's share: the lanes of services [lo, hi). Closes the lanes
  // its services drained, writes the ids of the others to `carried` and
  // returns their count.
  ECRS_HOT static std::uint32_t deliver_lanes(
      edge::cluster& cluster, const workload::request_lanes& lanes,
      std::uint32_t lo, std::uint32_t hi, double clock, double end,
      std::uint32_t* carried);

  // Per share, from its first service on: the services whose lanes kept
  // unserved entries, and their count. Reused across rounds.
  std::vector<std::uint32_t> carried_;
  std::vector<std::uint32_t> carried_count_;
};

// The single-stream reference batch_delivery is checked against: one
// des::simulator stream over the whole time-sorted batch, each arrival
// catching its service up from that service's own clock before it is
// enqueued (the delivery perfbench's replica times as des.deliver_ms).
// Same contract as batch_delivery::deliver_round, on the batch
// generator::round_into emits; every call continues the simulator's
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
