#include "workload/generator.h"

#include <algorithm>
#include <array>
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

void arrival_sorter::sort_lanes(std::vector<request>& requests,
                                std::span<const std::size_t> offsets,
                                double window_start, double window_length) {
  ECRS_CHECK_MSG(window_length > 0.0, "sort window must be positive");
  ECRS_CHECK_MSG(!offsets.empty() && offsets.back() == requests.size(),
                 "lane offsets do not end at the batch size");
  const std::size_t n = requests.size();
  const std::size_t lanes = offsets.size() - 1;
  if (n < 2) return;
  if (keys_.size() < requests.capacity()) {
    keys_ = std::vector<std::uint16_t>(requests.capacity());
  }
  const std::size_t runs = std::min(fan_out_width(n), lanes);
  if (scratch_.size() < runs) scratch_.resize(runs);
  // Run k sorts the lanes that start in its k-th share of the requests.
  const auto first_lane = [&](std::size_t run) -> std::size_t {
    if (run == runs) return lanes;
    return static_cast<std::size_t>(
        std::lower_bound(offsets.begin(), offsets.end() - 1,
                         run * n / runs) -
        offsets.begin());
  };
  const double scale = 1.0 / window_length;
  fan_out(runs, [&](std::size_t run) {
    const std::size_t last = first_lane(run + 1);
    for (std::size_t m = first_lane(run); m < last; ++m) {
      const std::size_t lo = offsets[m];
      const std::size_t size = offsets[m + 1] - lo;
      if (size > 1) {
        sort_bucket(requests.data() + lo, size, keys_.data() + lo, 0.0,
                    window_start, scale, scratch_[run]);
      }
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
  fill_lanes(round_start, duration, batch, offsets_);
  sorter_.sort(batch, round_start, duration);
}

void generator::round_lanes(double round_start, double duration,
                            request_lanes& lanes) {
  fill_lanes(round_start, duration, lanes.requests, lanes.offsets);
  sorter_.sort_lanes(lanes.requests, lanes.offsets, round_start, duration);
}

void generator::fill_lanes(double round_start, double duration,
                           std::vector<request>& out,
                           std::vector<std::size_t>& offsets) {
  ECRS_CHECK_MSG(duration > 0.0, "round duration must be positive");
  const std::size_t lanes = config_.microservices;
  const std::uint32_t users = config_.users;
  // Expected count plus ~4 sigma of Poisson headroom: typical rounds fill
  // the reservation without regrowing, so a reused buffer stops allocating
  // after its first round.
  const double expected = expected_arrivals_per_round() * rate_scale_;
  const auto want = static_cast<std::size_t>(
      expected + 4.0 * std::sqrt(std::max(expected, 1.0)) + 16.0);
  // Chunks of whole users: 16 per pool worker to balance the replay (4
  // per worker measured ~20% slower on 4 vCPUs), no more than there are
  // users, and at most two (chunk, lane) counters per expected request,
  // so a wide service space gets fewer chunks.
  const std::size_t width = fan_out_width(want);
  const std::size_t chunks = std::min<std::size_t>(
      {width > 1 ? 16 * width : 1, users,
       std::max<std::size_t>(1, 2 * want / lanes)});
  const auto first_user = [&](std::size_t chunk) {
    return static_cast<std::uint32_t>(chunk * users / chunks);
  };
  grow_to(snapshots_, chunks);
  grow_to(chunk_first_, chunks);
  grow_to(cursors_, chunks * lanes);
  std::fill_n(cursors_.begin(), chunks * lanes, 0u);

  // Per-class draw parameters, fixed for the round (index = qos). A class
  // with no microservices falls back to the full id space.
  const auto pick_in = [&](const std::vector<std::uint32_t>& ids) {
    const std::size_t span = ids.empty() ? config_.microservices : ids.size();
    return uniform_int_dist(0, static_cast<std::int64_t>(span) - 1);
  };
  const poisson_dist count[2] = {
      poisson_dist(config_.sensitive_mean * rate_scale_),
      poisson_dist(config_.tolerant_mean * rate_scale_)};
  const uniform_int_dist pick[2] = {pick_in(sensitive_ids_),
                                    pick_in(tolerant_ids_)};
  const std::vector<std::uint32_t>* const ids[2] = {&sensitive_ids_,
                                                    &tolerant_ids_};
  // The stream's draws for users [first, last), in their fixed order. Each
  // user issues a Poisson number of requests per class per round, spread
  // over the microservices of that class uniformly at random; every
  // request takes a target, an arrival offset and a service demand. The
  // last two are handed to `emit` as raw words.
  const auto walk = [&](rng& g, std::uint32_t first, std::uint32_t last,
                        auto&& emit) {
    for (std::uint32_t user = first; user < last; ++user) {
      for (std::size_t c = 0; c < 2; ++c) {
        const std::int64_t n = count[c](g);
        for (std::int64_t k = 0; k < n; ++k) {
          const auto drawn =
              static_cast<std::uint32_t>(pick[c].finish(pick[c].draw(g)));
          const std::uint32_t target =
              ids[c]->empty() ? drawn : (*ids[c])[drawn];
          const std::uint64_t offset_word = uniform_real_dist::draw(g);
          const std::uint64_t demand_word = exponential_dist::draw(g);
          emit(user, target, offset_word, demand_word);
        }
      }
    }
  };

  // Count walk, serial: the only pass over the generator's own stream.
  std::size_t n = 0;
  for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
    snapshots_[chunk] = gen_.state();
    chunk_first_[chunk] = n;
    std::uint32_t* counts = cursors_.data() + chunk * lanes;
    walk(gen_, first_user(chunk), first_user(chunk + 1),
         [&](std::uint32_t, std::uint32_t target, std::uint64_t,
             std::uint64_t) {
           ++counts[target];
           ++n;
         });
  }
  ECRS_CHECK_MSG(n <= std::numeric_limits<std::uint32_t>::max(),
                 "round too large: " << n << " requests");
  // Prefix sum: lane m starts at offsets[m], and chunk c's requests for it
  // follow those of chunks before c.
  offsets.resize(lanes + 1);
  std::uint32_t pos = 0;
  for (std::size_t m = 0; m < lanes; ++m) {
    offsets[m] = pos;
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
      std::uint32_t& cursor = cursors_[chunk * lanes + m];
      const std::uint32_t k = cursor;
      cursor = pos;
      pos += k;
    }
  }
  offsets[lanes] = pos;
  if (out.capacity() < std::max(want, n)) {
    out.clear();
    out.reserve(std::max(want, n));
  }
  // Every slot is overwritten below; growing constructs only new ones.
  out.resize(n);

  // Replay, in parallel: each chunk redraws its users from its snapshot and
  // writes every request, with its stream-order id, into its lane slot.
  const std::uint64_t first_id = next_request_id_;
  next_request_id_ += n;
  const uniform_real_dist offset(0.0, duration);
  const exponential_dist demand[2] = {
      exponential_dist(1.0 / mean_demand_of(qos_class::delay_sensitive)),
      exponential_dist(1.0 / mean_demand_of(qos_class::delay_tolerant))};
  fan_out(chunks, [&](std::size_t chunk) {
    rng g;
    g.set_state(snapshots_[chunk]);
    std::uint32_t* cursors = cursors_.data() + chunk * lanes;
    std::uint64_t id = first_id + chunk_first_[chunk];
    walk(g, first_user(chunk), first_user(chunk + 1),
         [&](std::uint32_t user, std::uint32_t target,
             std::uint64_t offset_word, std::uint64_t demand_word) {
           request& r = out[cursors[target]++];
           r.id = id++;
           r.user = user;
           r.microservice = target;
           r.region = target % config_.regions;
           r.qos = class_by_service_[target];
           r.arrival_time = round_start + offset.finish(offset_word);
           r.service_demand =
               demand[static_cast<std::size_t>(r.qos)].finish(demand_word);
         });
  });
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
