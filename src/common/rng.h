// Deterministic pseudo-random number generation for simulations.
//
// All stochastic components of the library draw from ecrs::rng so that every
// experiment is reproducible from a single 64-bit seed. The engine is
// xoshiro256** (Blackman & Vigna), seeded through splitmix64; it satisfies
// std::uniform_random_bit_generator and is much faster than std::mt19937_64.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/annotations.h"
#include "common/check.h"

namespace ecrs {

// splitmix64: used to expand a single seed into engine state, and useful on
// its own for hashing stream ids into independent seeds.
// ECRS_NO_SANITIZE_INTEGER: the multiply-xor-shift mixing wraps mod 2^64 by
// design; -fsanitize=integer would flag every unsigned overflow here.
ECRS_NO_SANITIZE_INTEGER constexpr std::uint64_t splitmix64(
    std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// xoshiro256** engine with convenience distributions.
class rng {
 public:
  using result_type = std::uint64_t;

  explicit rng(std::uint64_t seed = 0x853c49e6748fea9bULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  // Derive an independent generator for a named substream; generators for
  // different (seed, stream) pairs are statistically independent.
  // ECRS_NO_SANITIZE_INTEGER: stream-id hashing wraps by design.
  ECRS_NO_SANITIZE_INTEGER [[nodiscard]] rng fork(std::uint64_t stream) const {
    std::uint64_t mix = state_[0] ^ (stream * 0x9e3779b97f4a7c15ULL);
    return rng(splitmix64(mix));
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  // ECRS_NO_SANITIZE_INTEGER: xoshiro256** state transitions wrap mod 2^64
  // by design.
  ECRS_NO_SANITIZE_INTEGER result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [lo, hi] (inclusive). Unbiased via rejection.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  // Uniform real in [lo, hi).
  double uniform_real(double lo, double hi);

  // Uniform double in [0, 1) with 53 bits of precision.
  double next_double() { return to_unit((*this)()); }

  // The [0, 1) double a raw engine word maps to (its top 53 bits).
  static double to_unit(std::uint64_t word) {
    return static_cast<double>(word >> 11) * 0x1.0p-53;
  }

  bool bernoulli(double p) {
    ECRS_CHECK(p >= 0.0 && p <= 1.0);
    return next_double() < p;
  }

  // Exponential with the given rate (lambda).
  double exponential(double rate);

  // Poisson-distributed count with the given mean (see poisson_dist).
  std::int64_t poisson(double mean);

  // Sample an index in [0, weights.size()) proportionally to weights.
  std::size_t weighted_index(const std::vector<double>& weights);

  // Fisher-Yates shuffle.
  template <typename Container>
  void shuffle(Container& items) {
    if (items.size() < 2) return;
    for (std::size_t i = items.size() - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i)));
      using std::swap;
      swap(items[i], items[j]);
    }
  }

  // Sample k distinct values from [0, n) (k <= n), in random order.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  // Raw engine state, for checkpoint/restore (common/checkpoint.h): a
  // generator restored with set_state() continues the exact draw sequence.
  [[nodiscard]] const std::array<std::uint64_t, 4>& state() const {
    return state_;
  }
  void set_state(const std::array<std::uint64_t, 4>& state) {
    state_ = state;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

// Distributions with their parameters fixed up front. The uniform and
// exponential ones split a sample into a draw, which consumes the stream
// (rejection loops included) and returns the accepted raw word, and a pure
// finish that maps that word to the value. Draws must run in stream order;
// finishes may run later, on any thread, in any order, and give the value
// the one-shot rng member would have returned for the same stream. The
// rng members are these classes, so each distribution has one definition.

// Uniform integer in [lo, hi] (inclusive). The rejection limit is computed
// once; draw() rejects the words at or above it, finish() reduces modulo
// the span.
class uniform_int_dist {
 public:
  // ECRS_NO_SANITIZE_INTEGER: the [lo,hi] span is computed in uint64 with
  // intentional wrapping to cover the full-range case.
  ECRS_NO_SANITIZE_INTEGER uniform_int_dist(std::int64_t lo, std::int64_t hi)
      : lo_(lo) {
    ECRS_CHECK_MSG(lo <= hi, "uniform_int range [" << lo << "," << hi << "]");
    span_ = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    if (span_ != 0) last_ = rng::max() - rng::max() % span_ - 1;
  }

  [[nodiscard]] std::uint64_t draw(rng& g) const {
    std::uint64_t word;
    do {
      word = g();
    } while (word > last_);
    return word;
  }

  // ECRS_NO_SANITIZE_INTEGER: the offset from lo wraps for spans past
  // 2^63, exactly as the unsplit arithmetic did.
  ECRS_NO_SANITIZE_INTEGER [[nodiscard]] std::int64_t finish(
      std::uint64_t word) const {
    if (span_ == 0) return static_cast<std::int64_t>(word);  // full range
    return lo_ + static_cast<std::int64_t>(word % span_);
  }

  std::int64_t operator()(rng& g) const { return finish(draw(g)); }

 private:
  std::int64_t lo_;
  std::uint64_t span_ = 0;             // hi - lo + 1; 0 = the full range
  std::uint64_t last_ = rng::max();    // largest accepted word
};

// Uniform real in [lo, hi): one word, scaled.
class uniform_real_dist {
 public:
  uniform_real_dist(double lo, double hi) : lo_(lo), width_(hi - lo) {
    ECRS_CHECK(lo <= hi);
  }

  [[nodiscard]] static std::uint64_t draw(rng& g) { return g(); }
  [[nodiscard]] double finish(std::uint64_t word) const {
    return lo_ + width_ * rng::to_unit(word);
  }
  double operator()(rng& g) const { return finish(draw(g)); }

 private:
  double lo_;
  double width_;
};

// Exponential with rate lambda, by inversion: draw() rejects the words
// whose unit value is 0 (log(0) would be -inf), finish() is -log(u)/rate.
class exponential_dist {
 public:
  explicit exponential_dist(double rate) : rate_(rate) {
    ECRS_CHECK_MSG(rate > 0.0, "exponential rate must be positive");
  }

  [[nodiscard]] static std::uint64_t draw(rng& g) {
    std::uint64_t word;
    do {
      word = g();
    } while (rng::to_unit(word) <= 0.0);
    return word;
  }
  [[nodiscard]] double finish(std::uint64_t word) const {
    return -std::log(rng::to_unit(word)) / rate_;
  }
  double operator()(rng& g) const { return finish(draw(g)); }

 private:
  double rate_;
};

// Poisson count with the given mean: exact (Knuth's multiplication method)
// below a mean of 30, the normal approximation with continuity correction
// above. The constructor computes exp(-mean) (or sqrt(mean)) once, so a
// caller drawing many counts at one mean pays it once. A count decides how
// many words it consumes, so it has no draw/finish split.
class poisson_dist {
 public:
  explicit poisson_dist(double mean);
  std::int64_t operator()(rng& g) const;

 private:
  double mean_;
  double threshold_ = 0.0;  // exp(-mean), Knuth's stopping product
  double root_ = 0.0;       // sqrt(mean), the normal approximation's sigma
};

inline std::int64_t rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  return uniform_int_dist(lo, hi)(*this);
}

inline double rng::uniform_real(double lo, double hi) {
  return uniform_real_dist(lo, hi)(*this);
}

}  // namespace ecrs
