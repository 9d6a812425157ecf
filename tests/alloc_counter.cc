// Process-wide operator-new counter for tests that assert a code path
// allocates nothing: every allocation in the binary, the thread pool's
// workers included, bumps it. Kept in its own translation unit so the
// replaced operators are never inlined into the test's delete expressions.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ecrs::test_support {

std::uint64_t allocations_now() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace ecrs::test_support
