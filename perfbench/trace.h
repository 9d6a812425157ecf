// In-memory spans for the traced run. A round span covers one whole
// closed-loop round; each layer span covers one call (or one pass of
// calls) into a layer and has that round span as its parent. Spans are
// appended to a buffer reserved up front and written out only when the
// run ends, so recording costs two clock reads and two counter reads.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Operator-new calls made by the process so far (alloc_counter.cc).
[[nodiscard]] std::uint64_t allocations_now();

enum class layer : std::uint8_t {
  round,     // the whole round; parent of every other span
  scenario,  // rate multiplier and seller churn
  generate,  // workload::generator::round_into
  deliver,   // des::simulator::schedule_stream + run_until
  close,     // microservice catch-up + end_round into the stats buffer
  observe,   // demand::estimator::observe over the stats buffer
  estimate,  // demand::estimator::estimates_into
  ingest,    // round_ingestor::add_demands + finalize
  market,    // marketplace::run_round
  apply,     // grants -> microservice::set_allocation
};
inline constexpr std::size_t kLayers = 10;

[[nodiscard]] const char* layer_name(layer l);

struct span_record {
  std::uint64_t round = 0;
  layer name = layer::round;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t allocs = 0;  // operator-new calls inside the span
};

class tracer {
 public:
  explicit tracer(std::size_t rounds) { spans_.reserve(rounds * kLayers); }

  // Opens a span; the returned token closes it in end().
  struct open_span {
    std::uint64_t round;
    layer name;
    std::int64_t start_ns;
    std::uint64_t allocs;
  };
  [[nodiscard]] static open_span begin(std::uint64_t round, layer name) {
    return {round, name, now_ns(), allocations_now()};
  }
  void end(const open_span& s) {
    const std::uint64_t allocs = allocations_now();
    spans_.push_back({s.round, s.name, s.start_ns, now_ns(),
                      allocs - s.allocs});
  }

  [[nodiscard]] const std::vector<span_record>& spans() const {
    return spans_;
  }
  // True once another round would outgrow the reserved buffer (and so
  // allocate inside a span).
  [[nodiscard]] bool full() const {
    return spans_.size() + kLayers > spans_.capacity();
  }
  // Writes one JSON object per span (id, parent id, round, name, times,
  // allocations) to `path`. Returns false when the file cannot be written.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

  [[nodiscard]] static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  std::vector<span_record> spans_;
};

}  // namespace perfbench
