#include "workload/generator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"

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
  std::fill_n(cursors_.begin(), buckets + 1, 0u);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t b = clamped_bucket(
        (batch[i].arrival_time - window_start) * scale, buckets);
    keys_[i] = static_cast<std::uint16_t>(b);
    ++cursors_[b + 1];
  }
  // cursors_[b] = first slot of bucket b; ends_[b] = one past its last.
  for (std::size_t b = 0; b < buckets; ++b) {
    cursors_[b + 1] += cursors_[b];
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
  // key (one fine bucket per request) into bucket_, then insertion-sorted
  // back into place; the scatter leaves almost nothing to fix up.
  std::uint32_t lo = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::uint32_t hi = ends_[b];
    const std::size_t m = hi - lo;
    if (m > 1) {
      const std::size_t fine = std::min<std::size_t>(m, std::size_t{1} << 16);
      const auto base = static_cast<double>(b);
      const auto fine_scale = static_cast<double>(fine);
      grow_to(cursors_, fine + 1);
      grow_to(bucket_, m);
      std::fill_n(cursors_.begin(), fine + 1, 0u);
      for (std::uint32_t i = lo; i < hi; ++i) {
        const double k = (batch[i].arrival_time - window_start) * scale;
        const std::size_t f = clamped_bucket((k - base) * fine_scale, fine);
        keys_[i] = static_cast<std::uint16_t>(f);
        ++cursors_[f + 1];
      }
      for (std::size_t f = 0; f < fine; ++f) cursors_[f + 1] += cursors_[f];
      for (std::uint32_t i = lo; i < hi; ++i) {
        bucket_[cursors_[keys_[i]]++] = batch[i];
      }
      request* out = batch.data() + lo;
      for (std::size_t i = 0; i < m; ++i) {
        const request& x = bucket_[i];
        std::size_t j = i;
        for (; j > 0 && arrives_before(x, out[j - 1]); --j) out[j] = out[j - 1];
        out[j] = x;
      }
    }
    lo = hi;
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
  // Exponential rate of each QoS class's service demand (index = qos).
  const double demand_rate[2] = {
      1.0 / mean_demand_of(qos_class::delay_sensitive),
      1.0 / mean_demand_of(qos_class::delay_tolerant)};
  for (std::uint32_t user = 0; user < config_.users; ++user) {
    // Each user issues a Poisson number of requests per class per round and
    // spreads them over microservices of that class uniformly at random.
    for (const qos_class cls :
         {qos_class::delay_sensitive, qos_class::delay_tolerant}) {
      const double mean = (cls == qos_class::delay_sensitive
                               ? config_.sensitive_mean
                               : config_.tolerant_mean) *
                          rate_scale_;
      const std::int64_t count = gen_.poisson(mean);
      const std::vector<std::uint32_t>& ids =
          cls == qos_class::delay_sensitive ? sensitive_ids_ : tolerant_ids_;
      for (std::int64_t k = 0; k < count; ++k) {
        // Pick a target microservice of the matching class in one draw;
        // an empty class falls back to any microservice.
        std::uint32_t target;
        if (!ids.empty()) {
          target = ids[static_cast<std::size_t>(gen_.uniform_int(
              0, static_cast<std::int64_t>(ids.size()) - 1))];
        } else {
          target = static_cast<std::uint32_t>(gen_.uniform_int(
              0, static_cast<std::int64_t>(config_.microservices) - 1));
        }
        request r;
        r.id = next_request_id_++;
        r.user = user;
        r.microservice = target;
        r.region = target % config_.regions;
        r.qos = class_by_service_[target];
        r.arrival_time = round_start + gen_.uniform_real(0.0, duration);
        r.service_demand =
            gen_.exponential(demand_rate[static_cast<std::size_t>(r.qos)]);
        batch.push_back(r);
      }
    }
  }
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
