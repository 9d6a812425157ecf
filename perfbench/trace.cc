#include "trace.h"

#include <cstdio>
#include <unordered_map>

namespace perfbench {

const char* layer_name(layer l) {
  switch (l) {
    case layer::round: return "round";
    case layer::scenario: return "scenario";
    case layer::generate: return "workload.generate";
    case layer::deliver: return "des.deliver";
    case layer::close: return "edge.close";
    case layer::observe: return "demand.observe";
    case layer::estimate: return "demand.estimate";
    case layer::ingest: return "market.ingest";
    case layer::market: return "market.round";
    case layer::apply: return "edge.apply";
  }
  return "unknown";
}

bool tracer::write_jsonl(const std::string& path) const {
  // A round span closes after its layer spans, so find every round's span
  // id first; it is the parent of that round's layer spans.
  std::unordered_map<std::uint64_t, std::size_t> round_span;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == layer::round) round_span[spans_[i].round] = i;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span_record& s = spans_[i];
    long long parent = -1;
    if (s.name != layer::round) {
      const auto it = round_span.find(s.round);
      if (it != round_span.end()) parent = static_cast<long long>(it->second);
    }
    std::fprintf(f,
                 "{\"id\": %zu, \"parent\": %lld, \"round\": %llu, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"allocs\": %llu}\n",
                 i, parent, static_cast<unsigned long long>(s.round),
                 layer_name(s.name), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.allocs));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
