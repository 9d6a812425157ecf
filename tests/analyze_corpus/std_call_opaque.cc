// Regression for std:: call resolution: `std::sort(...)` is the standard
// algorithm, NOT the repo-local `sort()` below, so the analyzer must not
// attribute that function's allocation to the hot path. No findings.
#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/annotations.h"

namespace corpus {

struct sorter {
  int* sort(std::size_t n) { return new int[n]; }
};

ECRS_HOT void hot_root(std::vector<int>& v) { std::sort(v.begin(), v.end()); }

}  // namespace corpus
