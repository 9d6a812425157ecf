// Request model shared by the workload generator and the edge simulation.
#pragma once

#include <cstdint>
#include <string>

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

}  // namespace ecrs::workload
