#include "edge/microservice.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace ecrs::edge {

double round_stats::required_rate(double round_duration) const {
  ECRS_CHECK(round_duration > 0.0);
  return (arrived_work + backlog_work) / round_duration;
}

double round_stats::achieved_rate(double round_duration) const {
  ECRS_CHECK(round_duration > 0.0);
  return served_work / round_duration;
}

microservice::microservice(std::uint32_t id, workload::qos_class qos)
    : id_(id), qos_(qos) {}

double microservice::backlog_work() const {
  double consumed = 0.0;  // the head's served share of its demand
  if (!queue_.empty()) {
    const queued& head = queue_.front();
    consumed = head.req.service_demand - head.remaining;
  } else if (lane_head_ < lane_admitted_) {
    consumed = lane_[lane_head_].service_demand - lane_head_remaining_;
  } else {
    return 0.0;
  }
  const double total = queued_demand_sum_ - consumed;
  return total > 0.0 ? total : 0.0;
}

void microservice::set_allocation(double resources) {
  ECRS_CHECK_MSG(resources >= 0.0, "allocation must be non-negative");
  allocation_ = resources;
}

inline void microservice::count_arrival(const workload::request& r) {
  ECRS_CHECK_MSG(r.microservice == id_,
                 "request for microservice " << r.microservice
                                             << " routed to " << id_);
  ECRS_CHECK_MSG(r.service_demand >= 0.0, "negative service demand");
  queued_demand_sum_ += r.service_demand;
  ++round_received_;
  ++total_received_;
  round_arrived_work_ += r.service_demand;
}

void microservice::enqueue(const workload::request& r) {
  ECRS_CHECK_MSG(!lane_open_, "enqueue while a lane is open");
  count_arrival(r);
  queue_.push_back(queued{r, r.service_demand});
}

void microservice::open_lane(std::span<const workload::request> lane) {
  ECRS_CHECK_MSG(!lane_open_, "microservice " << id_ << " has a lane open");
  ECRS_CHECK_MSG(lane.size() <= std::numeric_limits<std::uint32_t>::max(),
                 "lane too long: " << lane.size());
  lane_ = lane.data();
  lane_size_ = static_cast<std::uint32_t>(lane.size());
  lane_head_ = 0;
  lane_admitted_ = 0;
  lane_open_ = true;
  lane_head_remaining_ = lane.empty() ? 0.0 : lane.front().service_demand;
}

void microservice::admit_next() {
  ECRS_CHECK_MSG(lane_admitted_ < lane_size_, "lane has no entry to admit");
  count_arrival(lane_[lane_admitted_++]);
}

void microservice::close_lane() {
  ECRS_CHECK_MSG(lane_open_, "microservice " << id_ << " has no lane open");
  ECRS_CHECK_MSG(lane_admitted_ == lane_size_,
                 "closing a lane with unadmitted entries");
  for (std::uint32_t i = lane_head_; i < lane_admitted_; ++i) {
    queue_.push_back(queued{
        lane_[i], i == lane_head_ ? lane_head_remaining_
                                  : lane_[i].service_demand});
  }
  lane_ = nullptr;
  lane_size_ = lane_head_ = lane_admitted_ = 0;
  lane_open_ = false;
  lane_head_remaining_ = 0.0;
}

void microservice::advance(double now, double duration) {
  ECRS_CHECK_MSG(duration >= 0.0, "negative duration");
  round_elapsed_ += duration;
  if (allocation_ <= 0.0 || idle()) return;

  double budget = allocation_ * duration;  // resource-seconds available
  double clock = now;
  // The one serve step of both queue parts: spends the budget on one
  // queued request, advancing the clock; true when the request completes.
  // A lambda, so that it inlines and budget and clock stay in registers.
  const auto serve = [&](const workload::request& r, double& remaining) {
    const double spend = std::min(budget, remaining);
    remaining -= spend;
    budget -= spend;
    clock += spend / allocation_;
    round_served_work_ += spend;
    round_busy_time_ += spend / allocation_;
    if (remaining > 1e-12) return false;
    ++round_served_;
    ++total_served_;
    round_wait_sum_ += std::max(0.0, clock - r.arrival_time);
    queued_demand_sum_ -= r.service_demand;
    return true;
  };
  // A request left unfinished has used up the budget, so each loop stops
  // at the first one.
  while (budget > 0.0 && !queue_.empty()) {
    queued& head = queue_.front();
    if (serve(head.req, head.remaining)) queue_.pop_front();
  }
  while (budget > 0.0 && lane_head_ < lane_admitted_) {
    if (serve(lane_[lane_head_], lane_head_remaining_) &&
        ++lane_head_ < lane_size_) {
      lane_head_remaining_ = lane_[lane_head_].service_demand;
    }
  }
  // Pin the incremental sum back to exact zero whenever the queue drains so
  // rounding residue cannot accumulate across rounds.
  if (idle()) queued_demand_sum_ = 0.0;
}

round_stats microservice::end_round(std::uint64_t round, double round_duration,
                                    std::uint32_t cloud_population) {
  ECRS_CHECK(round_duration > 0.0);
  ECRS_CHECK(cloud_population >= 1);
  round_stats s;
  s.microservice = id_;
  s.round = round;
  s.received = round_received_;
  s.served = round_served_;
  s.arrived_work = round_arrived_work_;
  s.served_work = round_served_work_;
  s.backlog_work = backlog_work();
  s.allocation = allocation_;
  const double elapsed = round_elapsed_ > 0.0 ? round_elapsed_ : round_duration;
  s.utilization = std::clamp(round_busy_time_ / elapsed, 0.0, 1.0);
  s.mean_wait = round_served_ > 0
                    ? round_wait_sum_ / static_cast<double>(round_served_)
                    : 0.0;
  s.cloud_population = cloud_population;

  last_arrived_work_ = round_arrived_work_;
  round_received_ = 0;
  round_served_ = 0;
  round_arrived_work_ = 0.0;
  round_served_work_ = 0.0;
  round_busy_time_ = 0.0;
  round_wait_sum_ = 0.0;
  round_elapsed_ = 0.0;
  return s;
}

void microservice::save(ecrs::checkpoint_writer& w) const {
  ECRS_CHECK_MSG(!lane_open_, "save() while microservice " << id_
                                                          << " has a lane open");
  w.u32(id_);
  w.u8(static_cast<std::uint8_t>(qos_));
  w.f64(allocation_);
  w.f64(queued_demand_sum_);
  w.u64(round_received_);
  w.u64(round_served_);
  w.f64(round_arrived_work_);
  w.f64(round_served_work_);
  w.f64(round_busy_time_);
  w.f64(round_wait_sum_);
  w.f64(round_elapsed_);
  w.u64(total_received_);
  w.u64(total_served_);
  w.f64(last_arrived_work_);
  w.size(queue_.size());
  for (const queued& q : queue_) {
    w.u64(q.req.id);
    w.u32(q.req.user);
    w.u32(q.req.microservice);
    w.u32(q.req.region);
    w.u8(static_cast<std::uint8_t>(q.req.qos));
    w.f64(q.req.arrival_time);
    w.f64(q.req.service_demand);
    w.f64(q.remaining);
  }
}

void microservice::load(ecrs::checkpoint_reader& r) {
  const std::uint32_t id = r.u32();
  const auto qos = static_cast<workload::qos_class>(r.u8());
  ECRS_CHECK_MSG(!lane_open_, "load() while a lane is open");
  ECRS_CHECK_MSG(id == id_ && qos == qos_,
                 "checkpoint holds microservice " << id
                                                  << ", restoring into "
                                                  << id_);
  allocation_ = r.f64();
  queued_demand_sum_ = r.f64();
  round_received_ = r.u64();
  round_served_ = r.u64();
  round_arrived_work_ = r.f64();
  round_served_work_ = r.f64();
  round_busy_time_ = r.f64();
  round_wait_sum_ = r.f64();
  round_elapsed_ = r.f64();
  total_received_ = r.u64();
  total_served_ = r.u64();
  last_arrived_work_ = r.f64();
  const std::size_t n = r.size();
  // 45 bytes per queued request; bound before any resize.
  ECRS_CHECK_MSG(n <= r.remaining() / 45,
                 "microservice checkpoint declares " << n
                                                     << " queued requests "
                                                        "but the payload is "
                                                        "too short");
  queue_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    queued q;
    q.req.id = r.u64();
    q.req.user = r.u32();
    q.req.microservice = r.u32();
    q.req.region = r.u32();
    q.req.qos = static_cast<workload::qos_class>(r.u8());
    q.req.arrival_time = r.f64();
    q.req.service_demand = r.f64();
    q.remaining = r.f64();
    queue_.push_back(q);
  }
}

}  // namespace ecrs::edge
