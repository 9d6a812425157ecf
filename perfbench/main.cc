// The closed-loop daemon benchmark. One run: one workload, one seed.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--threads N] [--quality-rounds N] [--max-rounds N]
//             [--out DIR] [--commit TEXT]
//
// Every run first passes the correctness gates (run_gates below), which
// also replay the workload's quality horizon, and then times rounds
// quality_rounds+1 onwards in whole scenario periods:
//  - trace 0: simrun::daemon itself, one run_rounds(1) call per sample,
//    for the end-to-end metrics;
//  - trace 1: the same rounds untraced on the daemon and then traced on
//    the replica loop (replica.h), which has a span around every layer
//    call, for the per-layer metrics and the tracing overhead.
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. The line before it records the host, build, seed, commit, gate
// verdicts and sample counts. Exit 0 only when every gate passed.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/checkpoint.h"
#include "common/thread_pool.h"
#include "digest.h"
#include "replica.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using daemon_t = ecrs::simrun::daemon;

constexpr const char* kUsage =
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
    "                 [--threads N] [--quality-rounds N] [--max-rounds N]\n"
    "                 [--out DIR] [--commit TEXT]\n"
    "\n"
    "  --workload        one of: %s\n"
    "  --seed            input seed (the same seed gives the same inputs)\n"
    "  --seconds         timed horizon length in host seconds (> 0)\n"
    "  --trace           0: end-to-end metrics of simrun::daemon\n"
    "                    1: per-layer metrics of the traced replica loop\n"
    "  --threads         marketplace thread cap (default: nproc)\n"
    "  --quality-rounds  gated quality horizon (default: per workload)\n"
    "  --max-rounds      stop timing after this many rounds (default: none)\n"
    "  --out DIR         directory for the checkpoint gate file and the\n"
    "                    span trace (default: .)\n"
    "  --commit TEXT     source revision recorded in the result\n";

struct options {
  workload_spec spec;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::size_t threads = 0;
  std::uint64_t max_rounds = 0;  // 0 = until `seconds` elapse
  std::string out_dir = ".";
  std::string commit = "unknown";
};

[[noreturn]] void usage_error(const char* fmt, const char* arg) {
  std::fprintf(stderr, "perfbench: ");
  std::fprintf(stderr, fmt, arg);
  std::fprintf(stderr, "\n");
  std::fprintf(stderr, kUsage, workload_names());
  std::exit(2);
}

std::uint64_t parse_count(const std::string& flag, const std::string& v) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos ||
      v.size() > 18) {
    usage_error("%s needs a non-negative whole number", flag.c_str());
  }
  return std::stoull(v);
}

// Strict argv parsing: every flag must be known, given once and given a
// value; --help prints usage and exits before anything runs.
options parse(int argc, char** argv) {
  options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  std::uint64_t quality_rounds = 0;
  std::vector<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf(kUsage, workload_names());
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) {
      usage_error("unexpected argument '%s'", argv[i]);
    }
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage_error("%s needs a value", arg.c_str());
    }
    if (std::find(seen.begin(), seen.end(), arg) != seen.end()) {
      usage_error("%s given twice", arg.c_str());
    }
    seen.push_back(arg);
    if (arg == "--workload") {
      const auto w = find_workload(value);
      if (!w) usage_error("unknown workload '%s'", value.c_str());
      o.spec = *w;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = parse_count(arg, value);
      have_seed = true;
    } else if (arg == "--seconds") {
      char* end = nullptr;
      errno = 0;
      o.seconds = std::strtod(value.c_str(), &end);
      if (errno != 0 || end == value.c_str() || *end != '\0' ||
          !(o.seconds > 0.0) || o.seconds > 3600.0) {
        usage_error("--seconds needs a number in (0, 3600], got '%s'",
                    value.c_str());
      }
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        usage_error("--trace must be 0 or 1, got '%s'", value.c_str());
      }
      o.trace = value == "1" ? 1 : 0;
      have_trace = true;
    } else if (arg == "--threads") {
      o.threads = parse_count(arg, value);
      if (o.threads == 0) usage_error("%s must be at least 1", arg.c_str());
    } else if (arg == "--quality-rounds") {
      quality_rounds = parse_count(arg, value);
      if (quality_rounds < 2) usage_error("%s must be at least 2", arg.c_str());
    } else if (arg == "--max-rounds") {
      o.max_rounds = parse_count(arg, value);
      if (o.max_rounds == 0) usage_error("%s must be at least 1", arg.c_str());
    } else if (arg == "--out") {
      o.out_dir = value;
    } else if (arg == "--commit") {
      o.commit = value;
    } else {
      usage_error("unknown flag '%s'", arg.c_str());
    }
  }
  if (!have_workload) usage_error("%s is required", "--workload");
  if (!have_seed) usage_error("%s is required", "--seed");
  if (!have_seconds) usage_error("%s is required", "--seconds");
  if (!have_trace) usage_error("%s is required", "--trace");
  if (quality_rounds != 0) {
    o.spec.quality_rounds = quality_rounds;
    o.spec.settle_rounds = std::min(o.spec.settle_rounds, quality_rounds / 2);
    o.spec.gate_rounds = std::min(o.spec.gate_rounds, quality_rounds);
  }
  return o;
}

// CPUs this process may run on (what `nproc` prints).
unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// Returns freed heap pages to the kernel and restarts the kernel's
// resident-set high-water mark, so peak_rss_mb() then reports the peak of
// what follows (timed rounds), not of the gates' start-up transients or a
// set-up sample. False when the kernel does not allow the reset.
bool restart_peak_rss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

// Peak resident set (MB) since the process started or since the last
// restart_peak_rss().
// Pins the calling thread to the CPU it is running on and returns that
// CPU (-1 when the kernel refuses). Threads created afterwards inherit the
// mask, so the market's shared pool must exist before this is called.
int pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    }
    std::fclose(f);
    if (kb >= 0) return static_cast<double>(kb) / 1024.0;
  }
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Linear interpolation between closest ranks; `v` must be non-empty.
double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}


double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

std::vector<std::uint8_t> save_bytes(const daemon_t& d) {
  ecrs::checkpoint_writer w;
  d.save(w);
  const std::span<const std::uint8_t> p = w.payload();
  return {p.begin(), p.end()};
}

void attach_digest(daemon_t& d, digest& out) {
  d.set_round_callback([&out, &d](std::uint64_t,
                                  const ecrs::market::marketplace_round& o,
                                  std::span<const double> estimates) {
    out.add_round(o, estimates, d.last_grants());
  });
}

struct metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---- quality horizon --------------------------------------------------------

// What the replica's quality horizon produced: a pure function of the
// workload and seed. Sums cover the settled window; the queue state is
// taken at the horizon's end.
struct quality {
  struct round {
    std::uint64_t requests = 0;
    // Arrivals of this round still queued at its end. Queues are FIFO, so
    // they are the last min(queue length, arrivals) requests in each queue.
    std::uint64_t missed = 0;
    bool failed = false;  // threw or failed a gate
  };
  std::vector<round> rounds;
  std::uint64_t settle = 0;
  double requirement_units = 0.0;
  double unmet_units = 0.0;    // after spillover
  double deficit_units = 0.0;  // before spillover
  double spill_awards = 0.0;
  double winners = 0.0;
  double social_cost = 0.0;
  double wait_weighted = 0.0;  // sum of mean_wait * served
  double served = 0.0;
  std::uint64_t backlog = 0;
  std::uint64_t worst_queue = 0;
  std::size_t history_size = 0;

  [[nodiscard]] double window_rounds() const {
    return static_cast<double>(rounds.size() - settle);
  }

  void observe(const replica& rep) {
    round qr;
    qr.requests = rep.last_requests();
    for (const ecrs::edge::round_stats& s : rep.last_stats()) {
      const std::uint64_t queued =
          rep.cluster().service(s.microservice).queue_length();
      qr.missed += std::min<std::uint64_t>(queued, s.received);
    }
    rounds.push_back(qr);
    if (rounds.size() <= settle) return;
    for (const auto& region : rep.last_instance().regions) {
      for (const ecrs::auction::units u : region.requirements) {
        requirement_units += static_cast<double>(u);
      }
    }
    const ecrs::market::marketplace_round& out = rep.last_market();
    unmet_units += static_cast<double>(out.unmet_units);
    social_cost += out.social_cost;
    spill_awards += static_cast<double>(out.spillover.awards.size());
    for (const auto& shard : out.shards) {
      deficit_units += static_cast<double>(shard.deficit);
      winners += static_cast<double>(shard.outcome.winner_bids.size());
    }
    for (const ecrs::edge::round_stats& s : rep.last_stats()) {
      wait_weighted += s.mean_wait * static_cast<double>(s.served);
      served += static_cast<double>(s.served);
    }
  }

  void close(const replica& rep) {
    const auto services =
        static_cast<std::uint32_t>(rep.cluster().microservice_count());
    for (std::uint32_t m = 0; m < services; ++m) {
      const std::uint64_t len = rep.cluster().service(m).queue_length();
      backlog += len;
      worst_queue = std::max(worst_queue, len);
    }
    history_size = rep.estimator().history_size();
  }

  // Marks rounds [first, last) of the horizon failed.
  void fail(std::size_t first, std::size_t last) {
    for (std::size_t r = first; r < std::min(last, rounds.size()); ++r) {
      rounds[r].failed = true;
    }
  }

  [[nodiscard]] std::uint64_t failed_rounds() const {
    return static_cast<std::uint64_t>(std::count_if(
        rounds.begin(), rounds.end(), [](const round& r) { return r.failed; }));
  }

  // Requests that missed their round over the settled window, plus every
  // request of a failed round, over the requests generated.
  [[nodiscard]] double unserved_share() const {
    double lost = 0.0, generated = 0.0;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      const round& r = rounds[i];
      if (i >= settle || r.failed) generated += static_cast<double>(r.requests);
      if (r.failed) {
        lost += static_cast<double>(r.requests);
      } else if (i >= settle) {
        lost += static_cast<double>(r.missed);
      }
    }
    return lost / generated;
  }
};

// ---- correctness gates ------------------------------------------------------

struct gates {
  bool serial_parallel = false;  // threads=1 and threads=cap daemons agree
  bool resume = false;           // checkpoint-resumed daemon agrees
  bool chain_alloc_free = false; // warm observe->estimate->ingest: 0 allocs
  bool replica = false;          // replica loop agrees with the daemon
  bool shadow = true;            // serial shadow market agrees (trace 1)
  std::uint64_t chain_warm_allocs = 0;
  std::uint64_t digest_words = 0;

  [[nodiscard]] bool all() const {
    return serial_parallel && resume && chain_alloc_free && replica && shadow;
  }
};

// Gate 2, and the serial half of gate 1: a threads=1 daemon runs the gate
// horizon and is checkpointed to a file at its midpoint; a threads=cap
// daemon restored from that file must replay the rest of the horizon
// identically and end at identical checkpoint bytes. Runs after the
// replica, whose rounds the failures are marked on.
digest serial_and_resume(const options& o, std::size_t cap, gates& g,
                         quality& q) {
  const std::uint64_t rounds = o.spec.gate_rounds;
  const std::uint64_t mid = rounds / 2;
  const std::string ckpt = o.out_dir + "/perfbench_gate_" +
                           std::string(o.spec.name) + ".ckpt";
  digest serial_digest;
  std::vector<std::uint8_t> serial_final;
  {
    daemon_t serial(build_setup(o.spec, o.seed, 1));
    attach_digest(serial, serial_digest);
    serial.run_rounds(mid);
    serial.save_file(ckpt);
    serial.run_rounds(rounds - mid);
    serial_final = save_bytes(serial);
  }
  daemon_t resumed(build_setup(o.spec, o.seed, cap));
  resumed.load_file(ckpt);
  std::remove(ckpt.c_str());
  digest resumed_digest;
  attach_digest(resumed, resumed_digest);
  resumed.run_rounds(rounds - mid);
  const std::vector<std::uint64_t> tail(
      serial_digest.rounds().begin() + static_cast<std::ptrdiff_t>(mid),
      serial_digest.rounds().end());
  const std::size_t bad = first_mismatch(resumed_digest.rounds(), tail);
  g.resume = bad == tail.size() && save_bytes(resumed) == serial_final;
  if (!g.resume) {
    q.fail(mid + std::min<std::size_t>(bad, tail.size() - 1), rounds);
  }
  return serial_digest;
}

// Whether the replica's serial shadow market decided the last round
// exactly as its parallel market did.
bool shadow_agrees(const replica& rep) {
  digest parallel, serial;
  parallel.add_round(rep.last_market(), {}, {});
  serial.add_round(rep.shadow_out(), {}, {});
  return parallel.rounds() == serial.rounds();
}

// The replica half of gate 4: replays the quality horizon, digesting every
// round. With a serial shadow market, that market must also match the
// parallel one on every round.
digest replay(replica& rep, const options& o, tracer* t, gates& g,
              quality& q) {
  digest d;
  for (std::uint64_t r = 0; r < o.spec.quality_rounds; ++r) {
    rep.run_round(t);
    d.add_round(rep.last_market(), rep.last_estimates(), rep.last_grants());
    q.observe(rep);
    if (rep.shadow() != nullptr && !shadow_agrees(rep)) {
      g.shadow = false;
      q.fail(r, r + 1);
    }
  }
  q.close(rep);
  return d;
}

// Gates 1, 3 and 4 on the daemon that is timed next: it replays the
// quality horizon at threads=cap and must agree with the serial daemon on
// the gate horizon and with the replica on every round, and its warm
// observe -> estimate -> ingest chain must not allocate. The digest and
// probe are detached before any timing.
void check_daemon(daemon_t& d, const options& o, const digest& serial,
                  const digest& rep, gates& g, quality& q) {
  digest own;
  attach_digest(d, own);
  std::uint64_t begin = 0;
  std::vector<std::uint64_t> chain_allocs;
  d.set_chain_probe([&](bool entering) {
    if (entering) {
      begin = allocations_now();
    } else {
      chain_allocs.push_back(allocations_now() - begin);
    }
  });
  d.run_rounds(o.spec.quality_rounds);
  d.set_round_callback(nullptr);
  d.set_chain_probe(nullptr);

  const std::size_t gate_rounds = serial.rounds().size();
  const std::size_t bad_serial = first_mismatch(serial.rounds(), own.rounds());
  g.serial_parallel = bad_serial == gate_rounds;
  q.fail(bad_serial, gate_rounds);
  const std::size_t bad_replica = first_mismatch(rep.rounds(), own.rounds());
  g.replica = bad_replica == rep.rounds().size() &&
              own.rounds().size() == rep.rounds().size();
  q.fail(bad_replica, q.rounds.size());
  g.digest_words = own.words();
  g.chain_alloc_free = true;
  for (std::size_t r = 1; r < chain_allocs.size(); ++r) {  // warm rounds
    g.chain_warm_allocs = std::max(g.chain_warm_allocs, chain_allocs[r]);
    if (chain_allocs[r] != 0) {
      g.chain_alloc_free = false;
      q.fail(r, r + 1);
    }
  }
}

// ---- timed horizons ---------------------------------------------------------

// Seconds to build the setup and construct a daemon from it (appended to
// `setup_s`); the daemon is returned, so a caller that drops it destroys
// it untimed. Freed heap pages go back to the kernel first, so every
// sample faults its memory in as a fresh process would.
std::unique_ptr<daemon_t> build_daemon(const options& o, std::size_t cap,
                                       std::vector<double>& setup_s) {
  malloc_trim(0);
  const auto t0 = std::chrono::steady_clock::now();
  auto d = std::make_unique<daemon_t>(build_setup(o.spec, o.seed, cap));
  setup_s.push_back(seconds_since(t0));
  return d;
}

struct round_samples {
  std::vector<double> ms;
  std::uint64_t requests = 0;
  double peak_rss_mb = 0.0;  // highest resident set over the timed rounds
  bool rss_rounds_only = false;  // false: the process-lifetime peak
};

// Times the daemon one run_rounds(1) call at a time, in whole scenario
// periods, until `seconds` have elapsed (or `max_rounds` samples). With
// `setup_s`, every pass boundary also times one set-up (a throwaway
// daemon), so set-up is sampled across the run like the rounds are; the
// resident-set peak restarts after it, so it covers only the rounds.
round_samples time_daemon(daemon_t& d, const options& o, std::size_t cap,
                          double seconds, std::vector<double>* setup_s) {
  round_samples s;
  s.ms.reserve(1 << 16);
  const std::uint64_t delivered_before = d.requests_delivered();
  s.rss_rounds_only = restart_peak_rss();
  const auto t0 = std::chrono::steady_clock::now();
  bool done = false;
  while (!done) {
    for (std::uint64_t k = 0; k < o.spec.timing_period && !done; ++k) {
      const auto r0 = std::chrono::steady_clock::now();
      d.run_rounds(1);
      s.ms.push_back(seconds_since(r0) * 1e3);
      done = o.max_rounds != 0 && s.ms.size() >= o.max_rounds;
    }
    s.peak_rss_mb = std::max(s.peak_rss_mb, peak_rss_mb());
    done = done || seconds_since(t0) >= seconds;
    if (setup_s != nullptr && !done) {
      build_daemon(o, cap, *setup_s);
      s.rss_rounds_only = restart_peak_rss() && s.rss_rounds_only;
    }
  }
  s.requests = d.requests_delivered() - delivered_before;
  return s;
}

// The traced horizon: `rounds` more replica rounds with spans, reduced to
// the per-layer metrics. `untraced_ms` holds the daemon's times for the
// same rounds.
std::vector<metric> traced_horizon(replica& rep, std::size_t rounds,
                                   const std::vector<double>& untraced_ms,
                                   const quality& q, const options& o,
                                   gates& g, std::string& info) {
  tracer t(rounds);
  std::vector<double> shard_ms, shard_serial_ms, spill_ms, spill_asm_ms;
  double requests = 0.0, events = 0.0;
  for (std::size_t i = 0; i < rounds && !t.full(); ++i) {
    rep.run_round(&t);
    requests += static_cast<double>(rep.last_requests());
    events += static_cast<double>(rep.last_des_events());
    shard_ms.push_back(rep.market_timing().shard_ms);
    spill_ms.push_back(rep.market_timing().spill_ms);
    spill_asm_ms.push_back(rep.market_timing().spill_assembly_ms);
    shard_serial_ms.push_back(rep.shadow()->last_timing().shard_ms);
    if (!shadow_agrees(rep)) g.shadow = false;
  }

  // Layer spans have no children, so a layer's self time is its span's
  // duration; the round span's self time (its duration minus its layer
  // spans) is the remainder.
  std::vector<double> round_ms;
  double self_ms[kLayers] = {};
  double allocs[kLayers] = {};
  for (const span_record& s : t.spans()) {
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    const auto i = static_cast<std::size_t>(s.name);
    self_ms[i] += ms;
    allocs[i] += static_cast<double>(s.allocs);
    if (s.name == layer::round) round_ms.push_back(ms);
  }
  const auto n = static_cast<double>(round_ms.size());
  double layers_ms = 0.0;
  for (std::size_t i = 0; i < kLayers; ++i) {
    self_ms[i] /= n;
    allocs[i] /= n;
    if (i != 0) layers_ms += self_ms[i];
  }
  const auto ms_of = [&](layer l) {
    return self_ms[static_cast<std::size_t>(l)];
  };
  const auto allocs_of = [&](layer l) {
    return allocs[static_cast<std::size_t>(l)];
  };
  const double traced_p50 = percentile(round_ms, 0.5);
  const double untraced_p50 = percentile(untraced_ms, 0.5);
  const double per_round_requests = requests / n;
  const double per_round_events = events / n;

  const std::string path = o.out_dir + "/perfbench_trace_" +
                           std::string(o.spec.name) + "_seed" +
                           std::to_string(o.seed) + ".jsonl";
  if (!t.write_jsonl(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
  info = ", \"trace_file\": \"" + json_escape(path) +
         "\", \"traced_round_ms_p50\": " + std::to_string(traced_p50) +
         ", \"untraced_round_ms_p50\": " + std::to_string(untraced_p50);

  return {
      {"workload.generate_ms", ms_of(layer::generate), "ms"},
      {"workload.requests", per_round_requests, "count"},
      {"workload.ns_per_request",
       ms_of(layer::generate) * 1e6 / std::max(1.0, per_round_requests), "ns"},
      {"des.deliver_ms", ms_of(layer::deliver), "ms"},
      {"des.events", per_round_events, "count"},
      {"des.ns_per_event",
       ms_of(layer::deliver) * 1e6 / std::max(1.0, per_round_events), "ns"},
      {"edge.close_ms", ms_of(layer::close), "ms"},
      {"edge.apply_ms", ms_of(layer::apply), "ms"},
      {"edge.backlog_requests", static_cast<double>(q.backlog), "count"},
      {"edge.worst_queue", static_cast<double>(q.worst_queue), "count"},
      {"demand.observe_ms", ms_of(layer::observe), "ms"},
      {"demand.estimate_ms", ms_of(layer::estimate), "ms"},
      {"demand.history_size", static_cast<double>(q.history_size), "count"},
      {"market.ingest_ms", ms_of(layer::ingest), "ms"},
      {"market.round_ms", ms_of(layer::market), "ms"},
      {"market.shard_ms", mean(shard_ms), "ms"},
      {"market.shard_ms_serial", mean(shard_serial_ms), "ms"},
      {"market.shard_speedup", mean(shard_serial_ms) / mean(shard_ms), "x"},
      {"market.winners", q.winners / q.window_rounds(), "count"},
      {"market.spill_ms", mean(spill_ms), "ms"},
      {"market.spill_assembly_ms", mean(spill_asm_ms), "ms"},
      {"market.spill_awards", q.spill_awards, "count"},
      {"market.deficit_units", q.deficit_units, "count"},
      {"market.unmet_unit_share", q.unmet_units / q.requirement_units,
       "share"},
      {"simrun.scenario_ms", ms_of(layer::scenario), "ms"},
      {"workload.allocs", allocs_of(layer::generate), "count"},
      {"des.allocs", allocs_of(layer::deliver), "count"},
      {"edge.allocs", allocs_of(layer::close) + allocs_of(layer::apply),
       "count"},
      {"demand.allocs", allocs_of(layer::observe) + allocs_of(layer::estimate),
       "count"},
      {"market.allocs", allocs_of(layer::ingest) + allocs_of(layer::market),
       "count"},
      {"trace.round_ms", ms_of(layer::round), "ms"},
      {"trace.layers_ms", layers_ms, "ms"},
      {"trace.remainder_ms", ms_of(layer::round) - layers_ms, "ms"},
      {"trace.overhead_pct", (traced_p50 / untraced_p50 - 1.0) * 100.0, "%"},
  };
}

int run(const options& o) {
  const unsigned cpus = nproc();
  const std::size_t cap = o.threads != 0 ? o.threads : cpus;
  const workload_spec& spec = o.spec;
  gates g;
  quality q;
  q.settle = spec.settle_rounds;
  std::uint64_t attempted =
      spec.gate_rounds + (spec.gate_rounds - spec.gate_rounds / 2);

  // Gates first: nothing below is timed until all of them have passed.
  // With --trace 1 the gated replica runs with spans too, so the traced
  // loop itself is what gate 4 compares; those spans are not reported.
  std::unique_ptr<tracer> gate_tracer;
  if (o.trace == 1) {
    gate_tracer = std::make_unique<tracer>(spec.quality_rounds);
  }
  // Trace 1 keeps the replica (with its serial shadow market) for the
  // traced horizon; trace 0 frees it before the next daemon is built.
  auto rep = std::make_unique<replica>(build_setup(spec, o.seed, cap),
                                       o.trace == 1);
  const digest rep_digest = replay(*rep, o, gate_tracer.get(), g, q);
  attempted += spec.quality_rounds;
  if (o.trace == 0) rep.reset();
  const digest serial = serial_and_resume(o, cap, g, q);

  // From here on the rounds run on one CPU: on a shared host, migrations
  // between CPUs made the memory-heavy wide market's round times swing by
  // a quarter between runs. The pool's workers (created above, by the
  // gates, or here) keep every CPU.
  ecrs::thread_pool::shared();
  const int pinned_cpu = pin_to_current_cpu();

  // Set-up is timed here, on the daemon that is gated and timed next, and
  // with --trace 0 again at every timed pass boundary.
  std::vector<double> setup_s;
  std::unique_ptr<daemon_t> d = build_daemon(o, cap, setup_s);
  check_daemon(*d, o, serial, rep_digest, g, q);
  attempted += spec.quality_rounds;

  std::vector<metric> metrics;
  std::size_t samples = 0;
  std::string info;
  const char* rss_scope = "";
  if (g.all() && o.trace == 0) {
    const round_samples s = time_daemon(*d, o, cap, o.seconds, &setup_s);
    rss_scope = s.rss_rounds_only ? "timed rounds" : "process";
    samples = s.ms.size();
    attempted += samples;
    const double horizon_s =
        std::accumulate(s.ms.begin(), s.ms.end(), 0.0) / 1e3;
    metrics = {
        {"requests_per_s", static_cast<double>(s.requests) / horizon_s, "1/s"},
        {"round_ms_p50", percentile(s.ms, 0.5), "ms"},
        {"round_ms_p90", percentile(s.ms, 0.9), "ms"},
        {"setup_s", percentile(setup_s, 0.5), "s"},
        {"peak_rss_mb", s.peak_rss_mb, "MB"},
        {"unserved_share", q.unserved_share(), "share"},
        {"covered_unit_share", 1.0 - q.unmet_units / q.requirement_units,
         "share"},
        {"sim_wait_s_mean", q.wait_weighted / q.served, "s"},
        {"social_cost_per_round", q.social_cost / q.window_rounds(), "cost"},
    };
  } else if (g.all()) {
    const round_samples s =
        time_daemon(*d, o, cap, o.seconds / 2.0, nullptr);
    samples = s.ms.size();
    attempted += 2 * samples;
    // The checkpoint of the timed daemon, saved once after its horizon and
    // loaded into a freshly constructed daemon.
    ecrs::checkpoint_writer w;
    auto t0 = std::chrono::steady_clock::now();
    d->save(w);
    const double save_ms = seconds_since(t0) * 1e3;
    d.reset();
    daemon_t fresh(build_setup(spec, o.seed, cap));
    t0 = std::chrono::steady_clock::now();
    ecrs::checkpoint_reader r(w.payload());
    fresh.load(r);
    const double load_ms = seconds_since(t0) * 1e3;
    const std::vector<std::uint8_t> saved(w.payload().begin(),
                                          w.payload().end());
    if (save_bytes(fresh) != saved) {
      std::fprintf(stderr, "perfbench: reloaded checkpoint differs\n");
      g.resume = false;
    }
    metrics = traced_horizon(*rep, samples, s.ms, q, o, g, info);
    metrics.push_back({"checkpoint.save_ms", save_ms, "ms"});
    metrics.push_back({"checkpoint.load_ms", load_ms, "ms"});
    metrics.push_back(
        {"checkpoint.bytes", static_cast<double>(saved.size()), "bytes"});
  }

  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"commit\": \"%s\", \"host\": {\"nproc\": %u, "
      "\"hardware_concurrency\": %u}, \"market_threads\": %zu, "
      "\"build\": {\"compiler\": \"%s\", \"build_type\": \"%s\"}, "
      "\"gates\": {\"serial_parallel\": %s, \"resume\": %s, "
      "\"chain_alloc_free\": %s, \"chain_warm_allocs\": %llu, "
      "\"replica_digest\": %s, \"shadow_market\": %s, "
      "\"digest_words\": %llu}, \"quality_rounds\": %llu, "
      "\"settle_rounds\": %llu, \"round_samples\": %zu, "
      "\"setup_samples\": %zu, \"peak_rss_scope\": \"%s\", "
      "\"pinned_cpu\": %d%s}\n",
      std::string(spec.name).c_str(), static_cast<unsigned long long>(o.seed),
      o.trace, json_escape(o.commit).c_str(), cpus,
      std::thread::hardware_concurrency(), cap,
      json_escape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE,
      g.serial_parallel ? "true" : "false", g.resume ? "true" : "false",
      g.chain_alloc_free ? "true" : "false",
      static_cast<unsigned long long>(g.chain_warm_allocs),
      g.replica ? "true" : "false", g.shadow ? "true" : "false",
      static_cast<unsigned long long>(g.digest_words),
      static_cast<unsigned long long>(spec.quality_rounds),
      static_cast<unsigned long long>(spec.settle_rounds), samples,
      setup_s.size(), rss_scope, pinned_cpu, info.c_str());
  if (!g.all()) {
    // No timing after a failed gate; the failed rounds' requests count as
    // unserved.
    std::fprintf(stderr, "perfbench: correctness gate failed\n");
    print_result(false, attempted,
                 std::max<std::uint64_t>(1, q.failed_rounds()),
                 {{"unserved_share", q.unserved_share(), "share"}});
    return 1;
  }
  print_result(true, attempted, 0, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::options o = perfbench::parse(argc, argv);
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "perfbench: refusing to time an unoptimised build (%s)\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#else
  if (std::string_view(PERFBENCH_BUILD_TYPE) == "Debug") {
    std::fprintf(stderr, "perfbench: refusing to time a Debug build\n");
    return 3;
  }
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: round threw: %s\n", e.what());
    return 1;
  }
#endif
}
