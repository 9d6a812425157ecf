// Small reusable worker pool for embarrassingly parallel kernels.
//
// The pool owns its worker threads for its whole lifetime. `parallel_for`
// is an allocation-free fork-join: the job (a non-owning reference to the
// callable, the range and an atomic cursor) lives on the caller's stack,
// workers attach to it and claim contiguous chunks of indices from the
// cursor, and the call returns once every claimed chunk has finished. The
// calling thread claims chunks too, so a `parallel_for` nested inside a
// worker still makes progress, and several threads may call into one pool
// at once. The first exception any `fn(i)` throws is rethrown to the caller
// (unclaimed indices are then skipped). Work items must write to disjoint
// output slots so the result is deterministic regardless of thread count
// or scheduling.
//
// `thread_pool::shared()` is a lazily constructed process-wide pool sized to
// the hardware concurrency; use it for short bursts (e.g. SSAM critical-value
// payments, the daemon's request generation and delivery) instead of
// spawning threads per call.
#pragma once

#include <cstddef>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"

namespace ecrs {

class thread_pool {
 public:
  // `threads == 0` sizes the pool to std::thread::hardware_concurrency()
  // (at least one worker either way).
  explicit thread_pool(std::size_t threads = 0);
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  // Run `fn(i)` for every i in [0, n). Blocks until all indices completed.
  // `fn` is referenced, never copied or stored, and nothing is allocated.
  // Rethrows the first exception thrown by any `fn(i)`; later indices are
  // then abandoned (already-started ones still finish). `max_workers` caps
  // the total concurrency including the calling thread (0 = pool size + 1).
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn, std::size_t max_workers = 0)
      ECRS_EXCLUDES(mutex_) {
    using callable = std::remove_reference_t<Fn>;
    const index_fn ref{
        const_cast<void*>(static_cast<const void*>(std::addressof(fn))),
        [](void* f, std::size_t i) { (*static_cast<callable*>(f))(i); }};
    fork_join(n, ref, max_workers);
  }

  // Process-wide pool, created on first use.
  static thread_pool& shared();

 private:
  // A type-erased, non-owning reference to the caller's callable.
  struct index_fn {
    void* fn;
    void (*call)(void*, std::size_t);
  };
  struct job;

  void fork_join(std::size_t n, index_fn fn, std::size_t max_workers)
      ECRS_EXCLUDES(mutex_);
  // Claims and runs chunks of `j` until its cursor passes the end.
  static void claim_chunks(job& j);
  void unlink(job& j) ECRS_REQUIRES(mutex_);
  void worker_loop() ECRS_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  mutex mutex_;
  condition_variable work_ready_;  // a job was posted, or the pool stops
  condition_variable job_done_;    // a sleeping caller's last helper left
  // Jobs that still accept helpers, oldest first (intrusive, on the
  // callers' stacks).
  job* jobs_ ECRS_GUARDED_BY(mutex_) = nullptr;
  bool stopping_ ECRS_GUARDED_BY(mutex_) = false;
};

// Convenience: `pool == nullptr` runs the loop inline on the calling thread.
template <typename Fn>
void parallel_for(thread_pool* pool, std::size_t n, Fn&& fn) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool->parallel_for(n, fn);
}

}  // namespace ecrs
