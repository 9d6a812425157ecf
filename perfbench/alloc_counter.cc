// Process-wide operator-new counter (as in bench/daemon_throughput.cc):
// spans read it at their boundaries to count allocations per layer, and
// the chain gate reads it around the daemon's chain probe.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "trace.h"

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

namespace perfbench {

std::uint64_t allocations_now() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace perfbench
