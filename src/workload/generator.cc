#include "workload/generator.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"

namespace ecrs::workload {
namespace {

// floor(k) clamped to [0, count): monotone in k, so buckets never
// contradict time order. NaN arises only as 0 * inf, when count/length
// overflows for a tiny window and t equals the window start; bucket 0
// keeps it ahead of every later time.
std::size_t clamped_bucket(double k, std::size_t count) {
  if (!(k > 0.0)) return 0;
  return k < static_cast<double>(count) ? static_cast<std::size_t>(k)
                                        : count - 1;
}

// Resize without ever shrinking: libstdc++ grows geometrically, so warm
// calls with sizes up to earlier ones reuse the storage.
template <typename T>
void grow_to(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
}

// Fewest requests worth handing to another thread: below this a share of
// a pass costs less than the fork-join that would spread it.
constexpr std::size_t kMinShare = 8192;

// Pieces a pass over n requests splits into: one per pool worker, none
// smaller than kMinShare, so a small batch runs inline.
std::size_t fan_out_width(std::size_t n) {
  if (n < 2 * kMinShare) return 1;
  return std::min(n / kMinShare, thread_pool::shared().size());
}

// Runs fn(0..pieces) on the shared pool, or inline for a single piece.
template <typename Fn>
void fan_out(std::size_t pieces, Fn&& fn) {
  if (pieces == 1) {
    fn(std::size_t{0});
  } else {
    thread_pool::shared().parallel_for(pieces, fn);
  }
}

}  // namespace

void arrival_sorter::sort(std::vector<request>& batch, double window_start,
                          double window_length) {
  ECRS_CHECK_MSG(window_length > 0.0, "sort window must be positive");
  const std::size_t n = batch.size();
  if (n < 2) return;
  ECRS_CHECK_MSG(n <= std::numeric_limits<std::uint32_t>::max(),
                 "batch too large to sort: " << n);
  // Level 1: ~256 requests per coarse bucket; at most 2^16 buckets, so a
  // bucket key fits the 16-bit key array.
  const std::size_t buckets =
      std::clamp<std::size_t>(n / 256, 1, std::size_t{1} << 16);
  const double scale = static_cast<double>(buckets) / window_length;
  // Keys match the batch's capacity exactly: they reallocate only when the
  // batch itself did, and a geometric overshoot would double their memory.
  if (keys_.size() < batch.capacity()) {
    keys_ = std::vector<std::uint16_t>(batch.capacity());
  }
  grow_to(ends_, buckets);
  grow_to(cursors_, buckets + 1);
  // Keys and bucket counts, per contiguous slice of the batch (one slice
  // per run, each counting into its own scratch).
  const std::size_t runs = fan_out_width(n);
  if (scratch_.size() < runs) scratch_.resize(runs);
  fan_out(runs, [&](std::size_t run) {
    std::vector<std::uint32_t>& counts = scratch_[run].counts;
    grow_to(counts, buckets);
    std::fill_n(counts.begin(), buckets, 0u);
    const std::size_t hi = (run + 1) * n / runs;
    for (std::size_t i = run * n / runs; i < hi; ++i) {
      const std::size_t b = clamped_bucket(
          (batch[i].arrival_time - window_start) * scale, buckets);
      keys_[i] = static_cast<std::uint16_t>(b);
      ++counts[b];
    }
  });
  // cursors_[b] = first slot of bucket b; ends_[b] = one past its last.
  cursors_[0] = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    std::uint32_t count = 0;
    for (std::size_t run = 0; run < runs; ++run) {
      count += scratch_[run].counts[b];
    }
    cursors_[b + 1] = cursors_[b] + count;
    ends_[b] = cursors_[b + 1];
  }
  // American-flag permutation: carry each misplaced request to the next
  // free slot of its bucket, picking up that slot's request, until the
  // cycle returns to bucket b. Slots below a cursor are final and never
  // read again, so their keys need no update.
  for (std::size_t b = 0; b < buckets; ++b) {
    while (cursors_[b] < ends_[b]) {
      const std::uint32_t i = cursors_[b];
      std::size_t k = keys_[i];
      if (k != b) {
        request carry = batch[i];
        do {
          const std::uint32_t j = cursors_[k]++;
          k = keys_[j];
          std::swap(carry, batch[j]);
        } while (k != b);
        batch[i] = carry;
      }
      ++cursors_[b];
    }
  }

  // Level 2: each coarse bucket (~10 KB) is counting-scattered by a fine
  // key (one fine bucket per request) into the run's scratch, then
  // insertion-sorted back into place; the scatter leaves almost nothing to
  // fix up. Buckets are disjoint slices of the batch, so contiguous runs
  // of them sort in parallel.
  fan_out(runs, [&](std::size_t run) {
    run_scratch& scratch = scratch_[run];
    const std::size_t first = run * buckets / runs;
    const std::size_t last = (run + 1) * buckets / runs;
    std::uint32_t lo = first == 0 ? 0 : ends_[first - 1];
    for (std::size_t b = first; b < last; ++b) {
      const std::uint32_t hi = ends_[b];
      const std::size_t m = hi - lo;
      if (m > 1) {
        sort_bucket(batch.data() + lo, m, keys_.data() + lo,
                    static_cast<double>(b), window_start, scale, scratch);
      }
      lo = hi;
    }
  });
}

void arrival_sorter::sort_bucket(request* out, std::size_t m,
                                 std::uint16_t* keys, double base,
                                 double window_start, double scale,
                                 run_scratch& scratch) {
  const std::size_t fine = std::min<std::size_t>(m, std::size_t{1} << 16);
  const auto fine_scale = static_cast<double>(fine);
  std::vector<std::uint32_t>& cursors = scratch.cursors;
  grow_to(cursors, fine + 1);
  grow_to(scratch.bucket, m);
  std::fill_n(cursors.begin(), fine + 1, 0u);
  for (std::size_t i = 0; i < m; ++i) {
    const double k = (out[i].arrival_time - window_start) * scale;
    const std::size_t f = clamped_bucket((k - base) * fine_scale, fine);
    keys[i] = static_cast<std::uint16_t>(f);
    ++cursors[f + 1];
  }
  for (std::size_t f = 0; f < fine; ++f) cursors[f + 1] += cursors[f];
  for (std::size_t i = 0; i < m; ++i) {
    scratch.bucket[cursors[keys[i]]++] = out[i];
  }
  for (std::size_t i = 0; i < m; ++i) {
    const request& x = scratch.bucket[i];
    std::size_t j = i;
    for (; j > 0 && arrives_before(x, out[j - 1]); --j) out[j] = out[j - 1];
    out[j] = x;
  }
}

generator::generator(generator_config config)
    : config_(config), gen_(config.seed) {
  ECRS_CHECK_MSG(config_.users > 0, "need at least one user");
  ECRS_CHECK_MSG(config_.microservices > 0, "need at least one microservice");
  ECRS_CHECK_MSG(
      config_.delay_sensitive_fraction >= 0.0 &&
          config_.delay_sensitive_fraction <= 1.0,
      "delay_sensitive_fraction out of [0,1]");
  ECRS_CHECK_MSG(config_.mean_service_demand > 0.0,
                 "mean service demand must be positive");
  ECRS_CHECK_MSG(config_.sensitive_mean_demand >= 0.0 &&
                     config_.tolerant_mean_demand >= 0.0,
                 "per-class demand overrides must be non-negative");
  ECRS_CHECK_MSG(config_.regions > 0, "need at least one region");

  const auto sensitive_count = static_cast<std::uint32_t>(
      config_.delay_sensitive_fraction *
      static_cast<double>(config_.microservices));
  class_by_service_.resize(config_.microservices, qos_class::delay_tolerant);
  for (std::uint32_t s = 0; s < sensitive_count; ++s) {
    class_by_service_[s] = qos_class::delay_sensitive;
  }
  // Shuffle so classes are not correlated with microservice ids.
  gen_.shuffle(class_by_service_);

  // Per-class target lists: one uniform draw picks a matching microservice
  // directly. (The first cut rejection-sampled up to 16 candidate ids per
  // request — a measurable cost once rounds carry ~1M requests.) A class
  // with no microservices falls back to the full id space, preserving the
  // old "fall back to any microservice" behaviour.
  for (std::uint32_t m = 0; m < config_.microservices; ++m) {
    (class_by_service_[m] == qos_class::delay_sensitive ? sensitive_ids_
                                                        : tolerant_ids_)
        .push_back(m);
  }
}

qos_class generator::class_of(std::uint32_t microservice) const {
  ECRS_CHECK(microservice < class_by_service_.size());
  return class_by_service_[microservice];
}

double generator::mean_demand_of(qos_class cls) const {
  const double override_mean = cls == qos_class::delay_sensitive
                                   ? config_.sensitive_mean_demand
                                   : config_.tolerant_mean_demand;
  return override_mean > 0.0 ? override_mean : config_.mean_service_demand;
}

double generator::expected_arrivals_per_round() const {
  const double users = static_cast<double>(config_.users);
  return users * (sensitive_ids_.empty() ? 0.0 : config_.sensitive_mean) +
         users * (tolerant_ids_.empty() ? 0.0 : config_.tolerant_mean);
}

std::vector<request> generator::round(double round_start, double duration) {
  std::vector<request> batch;
  round_into(round_start, duration, batch);
  return batch;
}

void generator::round_into(double round_start, double duration,
                           std::vector<request>& batch) {
  ECRS_CHECK_MSG(duration > 0.0, "round duration must be positive");
  batch.clear();
  // Expected count plus ~4 sigma of Poisson headroom: typical rounds fill
  // the reservation without regrowing, so a reused buffer stops allocating
  // after its first round.
  const double expected = expected_arrivals_per_round() * rate_scale_;
  const auto want = static_cast<std::size_t>(
      expected + 4.0 * std::sqrt(std::max(expected, 1.0)) + 16.0);
  if (batch.capacity() < want) batch.reserve(want);

  // Each class's microservices: a class with none falls back to the full
  // id space.
  const auto targets = [&](qos_class cls) -> const std::vector<std::uint32_t>& {
    return cls == qos_class::delay_sensitive ? sensitive_ids_ : tolerant_ids_;
  };
  const auto pick_in = [&](qos_class cls) {
    const std::vector<std::uint32_t>& ids = targets(cls);
    const std::size_t span = ids.empty() ? config_.microservices : ids.size();
    return uniform_int_dist(0, static_cast<std::int64_t>(span) - 1);
  };
  // Per-class draw parameters, fixed for the round (index = qos).
  const poisson_dist count[2] = {
      poisson_dist(config_.sensitive_mean * rate_scale_),
      poisson_dist(config_.tolerant_mean * rate_scale_)};
  const uniform_int_dist pick[2] = {pick_in(qos_class::delay_sensitive),
                                    pick_in(qos_class::delay_tolerant)};
  const uniform_real_dist offset(0.0, duration);
  const exponential_dist demand[2] = {
      exponential_dist(1.0 / mean_demand_of(qos_class::delay_sensitive)),
      exponential_dist(1.0 / mean_demand_of(qos_class::delay_tolerant))};

  // Pass 1, serial: the stream's draws in their fixed order. Each user
  // issues a Poisson number of requests per class per round, spread over
  // the microservices of that class uniformly at random; every request
  // takes a target, an arrival offset and a service demand. The raw words
  // are parked in the request's own slots: the target word in `id`, the
  // drawing class in `qos`, and the offset and demand words' bits in
  // their double fields.
  const std::uint64_t first_id = next_request_id_;
  for (std::uint32_t user = 0; user < config_.users; ++user) {
    for (const qos_class cls :
         {qos_class::delay_sensitive, qos_class::delay_tolerant}) {
      const auto c = static_cast<std::size_t>(cls);
      const std::int64_t n = count[c](gen_);
      for (std::int64_t k = 0; k < n; ++k) {
        request r;
        r.id = pick[c].draw(gen_);
        r.user = user;
        r.qos = cls;
        r.arrival_time = std::bit_cast<double>(uniform_real_dist::draw(gen_));
        r.service_demand =
            std::bit_cast<double>(exponential_dist::draw(gen_));
        batch.push_back(r);
      }
    }
  }
  next_request_id_ += batch.size();

  // Pass 2, in place and in parallel: finish every parked word. Pure per
  // request, so the pieces may run in any order on any thread.
  const std::size_t n = batch.size();
  const std::size_t width = fan_out_width(n);
  const std::size_t pieces = width > 1 ? 4 * width : 1;
  fan_out(pieces, [&](std::size_t piece) {
    const std::size_t hi = (piece + 1) * n / pieces;
    for (std::size_t i = piece * n / pieces; i < hi; ++i) {
      request& r = batch[i];
      const std::vector<std::uint32_t>& ids = targets(r.qos);
      const auto drawn = static_cast<std::uint32_t>(
          pick[static_cast<std::size_t>(r.qos)].finish(r.id));
      const std::uint32_t target = ids.empty() ? drawn : ids[drawn];
      r.id = first_id + i;
      r.microservice = target;
      r.region = target % config_.regions;
      r.qos = class_by_service_[target];
      r.arrival_time =
          round_start +
          offset.finish(std::bit_cast<std::uint64_t>(r.arrival_time));
      r.service_demand = demand[static_cast<std::size_t>(r.qos)].finish(
          std::bit_cast<std::uint64_t>(r.service_demand));
    }
  });
  sorter_.sort(batch, round_start, duration);
}

void generator::set_rate_scale(double scale) {
  ECRS_CHECK_MSG(scale >= 0.0, "rate scale must be non-negative");
  rate_scale_ = scale;
}

void generator::save(ecrs::checkpoint_writer& w) const {
  const std::array<std::uint64_t, 4>& st = gen_.state();
  for (std::uint64_t word : st) w.u64(word);
  w.u64(next_request_id_);
  w.f64(rate_scale_);
}

void generator::load(ecrs::checkpoint_reader& r) {
  std::array<std::uint64_t, 4> st;
  for (std::uint64_t& word : st) word = r.u64();
  gen_.set_state(st);
  next_request_id_ = r.u64();
  rate_scale_ = r.f64();
}

}  // namespace ecrs::workload
