#include "common/rng.h"

#include <cmath>

namespace ecrs {

double rng::exponential(double rate) { return exponential_dist(rate)(*this); }

std::int64_t rng::poisson(double mean) { return poisson_dist(mean)(*this); }

poisson_dist::poisson_dist(double mean) : mean_(mean) {
  ECRS_CHECK_MSG(mean >= 0.0, "poisson mean must be non-negative");
  if (mean < 30.0) {
    threshold_ = std::exp(-mean);
  } else {
    root_ = std::sqrt(mean);
  }
}

std::int64_t poisson_dist::operator()(rng& g) const {
  if (mean_ == 0.0) return 0;
  if (mean_ < 30.0) {
    // Knuth's multiplication method.
    std::int64_t k = 0;
    double product = 1.0;
    do {
      ++k;
      product *= g.next_double();
    } while (product > threshold_);
    return k - 1;
  }
  // Normal approximation, adequate for workload generation at large means.
  const double gauss = std::sqrt(-2.0 * std::log(1.0 - g.next_double())) *
                       std::cos(2.0 * 3.141592653589793 * g.next_double());
  const double value = mean_ + root_ * gauss + 0.5;
  return value < 0.0 ? 0 : static_cast<std::int64_t>(value);
}

std::size_t rng::weighted_index(const std::vector<double>& weights) {
  ECRS_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    ECRS_CHECK_MSG(w >= 0.0, "weights must be non-negative");
    total += w;
  }
  ECRS_CHECK_MSG(total > 0.0, "weights must not all be zero");
  double point = uniform_real(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    point -= weights[i];
    if (point < 0.0) return i;
  }
  return weights.size() - 1;  // guards against accumulated rounding
}

std::vector<std::size_t> rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  ECRS_CHECK_MSG(k <= n, "cannot sample " << k << " of " << n);
  std::vector<std::size_t> pool(n);
  for (std::size_t i = 0; i < n; ++i) pool[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(uniform_int(
        static_cast<std::int64_t>(i), static_cast<std::int64_t>(n) - 1));
    using std::swap;
    swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

}  // namespace ecrs
