// Request model shared by the workload generator and the edge simulation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ecrs::workload {

// QoS class of a request (paper §V-A: delay-sensitive requests arrive with
// Poisson mean 5, delay-tolerant with mean 10; the former are prioritized).
enum class qos_class : std::uint8_t {
  delay_sensitive = 0,
  delay_tolerant = 1,
};

[[nodiscard]] inline const char* to_string(qos_class c) {
  return c == qos_class::delay_sensitive ? "delay_sensitive"
                                         : "delay_tolerant";
}

struct request {
  std::uint64_t id = 0;
  std::uint32_t user = 0;           // issuing end user
  std::uint32_t microservice = 0;   // target microservice
  std::uint32_t region = 0;         // edge cloud hosting the microservice
  qos_class qos = qos_class::delay_sensitive;
  double arrival_time = 0.0;        // simulated seconds
  double service_demand = 1.0;      // resource-seconds of work
};

// The total order of a round batch: arrival time, then delay-sensitive
// before delay-tolerant at equal times (the paper gives them priority),
// then request id.
[[nodiscard]] inline bool arrives_before(const request& a, const request& b) {
  if (a.arrival_time != b.arrival_time) return a.arrival_time < b.arrival_time;
  if (a.qos != b.qos) return a.qos < b.qos;
  return a.id < b.id;
}

// One round's requests, lane-major: lane m holds microservice m's arrivals
// in arrives_before order, and the lanes lie back to back in one buffer.
// Partitioning a time-sorted batch stably by microservice gives the same
// requests in the same order.
struct request_lanes {
  std::vector<request> requests;
  // Lane m is requests[offsets[m], offsets[m + 1]); one entry per lane
  // plus the end.
  std::vector<std::size_t> offsets;

  [[nodiscard]] std::size_t lane_count() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  [[nodiscard]] std::span<const request> lane(std::size_t m) const {
    return {requests.data() + offsets[m], offsets[m + 1] - offsets[m]};
  }
};

}  // namespace ecrs::workload
