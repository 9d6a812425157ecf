// Microservice runtime state: a work-conserving FIFO queue served at the
// rate of the resources currently allocated to the microservice.
//
// The queue has two parts. The owned part is a deque of copies: the
// backlog carried over from earlier rounds, and whatever enqueue() admits.
// The borrowed part is a lane (workload::request_lanes): the caller opens
// the service's lane for the round, admits its entries one by one in
// order, and closes it. Admitted lane entries are served in place, behind
// the owned part, with the lane head's remaining work held in one member;
// closing copies the unserved tail into the owned part. A round whose lane
// drains therefore copies no request and allocates no queue memory, and at
// every round boundary the state (and so the checkpoint bytes) is what
// enqueue() would have produced.
//
// Tracks the observables the paper's demand estimator (§III) consumes:
// received/served request counts (π_i, θ_i), achieved vs. required
// processing rate (ς_i, ϖ_i), utilization (execution rate L_i), and the
// current allocation a_i.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "common/checkpoint.h"
#include "workload/request.h"

namespace ecrs::edge {

// Snapshot of one auction round, consumed by ecrs::demand.
struct round_stats {
  std::uint32_t microservice = 0;
  std::uint64_t round = 0;            // t, 1-based
  std::uint64_t received = 0;         // π_i: requests that arrived this round
  std::uint64_t served = 0;           // θ_i: requests completed this round
  double arrived_work = 0.0;          // resource-seconds that arrived
  double served_work = 0.0;           // resource-seconds completed
  double backlog_work = 0.0;          // queued resource-seconds at round end
  double allocation = 0.0;            // a_i^t: resource units held
  double utilization = 0.0;           // L_i^t in [0, 1]: busy fraction
  double mean_wait = 0.0;             // mean sojourn of requests completed
  std::uint32_t cloud_population = 1; // microservices co-located on the cloud

  // ς_i: processing rate needed to clear arrivals + backlog in one round.
  [[nodiscard]] double required_rate(double round_duration) const;
  // Achieved service rate this round.
  [[nodiscard]] double achieved_rate(double round_duration) const;
};

class microservice {
 public:
  microservice(std::uint32_t id, workload::qos_class qos);

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] workload::qos_class qos() const { return qos_; }
  [[nodiscard]] double allocation() const { return allocation_; }
  [[nodiscard]] double backlog_work() const;
  // Work that arrived during the most recently closed round (0 before the
  // first end_round); used by arrival-aware allocation policies.
  [[nodiscard]] double last_round_arrived_work() const {
    return last_arrived_work_;
  }
  [[nodiscard]] std::size_t queue_length() const {
    return queue_.size() + (lane_admitted_ - lane_head_);
  }
  [[nodiscard]] std::uint64_t total_received() const { return total_received_; }
  [[nodiscard]] std::uint64_t total_served() const { return total_served_; }

  // Set the resources the microservice holds for the upcoming interval.
  void set_allocation(double resources);

  // Admit a request (assumed to arrive within the current round) by
  // copying it into the owned queue. Not allowed while a lane is open.
  void enqueue(const workload::request& r);

  // Borrow `lane` (this service's arrivals for the round, in arrival
  // order) until close_lane(); it must stay valid and unchanged until then.
  // Requires no lane to be open.
  void open_lane(std::span<const workload::request> lane);
  // Admit the lane's next entry, with the same effect on every counter and
  // on the queue as enqueue() of that request.
  void admit_next();
  // True when no admitted lane entry is left unserved, so close_lane()
  // copies nothing (also when no lane is open).
  [[nodiscard]] bool lane_drained() const {
    return lane_head_ == lane_admitted_;
  }
  // Return the lane: its unserved entries (the partly served head with its
  // remaining work) move to the back of the owned queue. Requires every
  // entry to have been admitted.
  void close_lane();

  // Serve queued work for `duration` simulated seconds starting at `now`,
  // at a rate equal to the current allocation. Requests complete FIFO:
  // the owned queue first, then the admitted lane entries. A partially
  // served request stays at the head.
  void advance(double now, double duration);

  // Close the current round: return its statistics and reset per-round
  // counters. `round` is the 1-based round index, `cloud_population` the
  // number of microservices co-located on the same edge cloud.
  round_stats end_round(std::uint64_t round, double round_duration,
                        std::uint32_t cloud_population);

  // Checkpoint the full runtime state — allocation, queue contents (with
  // the head's partial-service progress), the incremental backlog sum at
  // its EXACT current value (serialized, never recomputed, so restored FP
  // state matches bit for bit), per-round accumulators and lifetime
  // counters. id/qos are construction-time identity and verified on load.
  // save() throws while a lane is open.
  void save(ecrs::checkpoint_writer& w) const;
  void load(ecrs::checkpoint_reader& r);

 private:
  struct queued {
    workload::request req;
    double remaining;  // resource-seconds still to serve
  };

  // Counts an admitted arrival (enqueue and admit_next alike).
  void count_arrival(const workload::request& r);
  [[nodiscard]] bool idle() const { return queue_.empty() && lane_drained(); }

  std::uint32_t id_;
  workload::qos_class qos_;
  double allocation_ = 1.0;
  std::deque<queued> queue_;
  // Sum of the FULL service demands of queued requests, maintained
  // incrementally so backlog_work() is O(1) instead of an O(queue) scan
  // (allocate_fair and end_round both read it every round, and a
  // persistently under-allocated service's queue grows without bound).
  // Only the head request is ever partially served, so
  // backlog = this sum minus the head's consumed portion.
  double queued_demand_sum_ = 0.0;

  // The borrowed lane: entries [lane_head_, lane_admitted_) are queued
  // behind queue_, and the head among them has lane_head_remaining_ work
  // left.
  const workload::request* lane_ = nullptr;
  std::uint32_t lane_size_ = 0;
  std::uint32_t lane_head_ = 0;
  std::uint32_t lane_admitted_ = 0;
  bool lane_open_ = false;
  double lane_head_remaining_ = 0.0;

  // Per-round accumulators.
  std::uint64_t round_received_ = 0;
  std::uint64_t round_served_ = 0;
  double round_arrived_work_ = 0.0;
  double round_served_work_ = 0.0;
  double round_busy_time_ = 0.0;
  double round_wait_sum_ = 0.0;
  double round_elapsed_ = 0.0;

  // Lifetime counters.
  std::uint64_t total_received_ = 0;
  std::uint64_t total_served_ = 0;
  double last_arrived_work_ = 0.0;
};

}  // namespace ecrs::edge
