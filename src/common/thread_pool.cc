#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace ecrs {
namespace {

// Yields a joining caller makes before it sleeps on job_done_.
constexpr int kJoinSpins = 64;

}  // namespace

// One parallel_for call, on the caller's stack. The cursor, the failure
// flag and the attached count are shared lock-free; the list link and the
// open slots are guarded by the owning pool's mutex_. Helpers attach under
// the mutex while the job is listed; the caller unlinks it once its own
// claims run dry and returns only after `attached` drops to zero, so no
// helper touches the job after its frame is gone.
struct thread_pool::job {
  index_fn fn{};
  std::size_t n = 0;
  std::size_t grain = 1;                // indices per claim
  std::atomic<std::size_t> next{0};     // first unclaimed index
  std::atomic<bool> failed{false};
  std::exception_ptr error;             // written by whoever set `failed`
  std::atomic<std::size_t> attached{0};  // helpers inside claim_chunks
  std::size_t open_slots = 0;            // helpers that may still attach
  bool caller_asleep = false;            // the caller waits on job_done_
  job* next_job = nullptr;               // link in thread_pool::jobs_
};

thread_pool::thread_pool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

thread_pool::~thread_pool() {
  {
    mutex_lock lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void thread_pool::claim_chunks(job& j) {
  for (;;) {
    const std::size_t begin =
        j.next.fetch_add(j.grain, std::memory_order_relaxed);
    if (begin >= j.n) return;
    const std::size_t end = std::min(j.n, begin + j.grain);
    try {
      for (std::size_t i = begin; i < end; ++i) j.fn.call(j.fn.fn, i);
    } catch (...) {
      if (!j.failed.exchange(true)) j.error = std::current_exception();
      j.next.store(j.n, std::memory_order_relaxed);  // abandon the rest
      return;
    }
  }
}

void thread_pool::unlink(job& j) {
  job** link = &jobs_;
  while (*link != &j) link = &(*link)->next_job;
  *link = j.next_job;
  j.next_job = nullptr;
  j.open_slots = 0;
}

void thread_pool::worker_loop() {
  for (;;) {
    job* j = nullptr;
    {
      mutex_lock lock(mutex_);
      while (!stopping_ && jobs_ == nullptr) work_ready_.wait(lock);
      if (jobs_ == nullptr) return;  // stopping, no job left to help
      j = jobs_;
      j->attached.fetch_add(1, std::memory_order_relaxed);
      if (--j->open_slots == 0) unlink(*j);
    }
    claim_chunks(*j);
    // Detach under the mutex, reading the caller's state before the count
    // drops: once it reaches zero the caller may return, and only the
    // pool's own members are touched after that.
    mutex_lock lock(mutex_);
    const bool wake = j->caller_asleep;
    if (j->attached.fetch_sub(1, std::memory_order_release) == 1 && wake) {
      job_done_.notify_all();
    }
  }
}

void thread_pool::fork_join(std::size_t n, index_fn fn,
                            std::size_t max_workers) {
  if (n == 0) return;
  // Helpers besides the calling thread, which drains too: n == 1 or a
  // fully busy pool never deadlocks.
  std::size_t helpers = std::min(size(), n - 1);
  if (max_workers > 0) helpers = std::min(helpers, max_workers - 1);
  if (helpers == 0) {
    for (std::size_t i = 0; i < n; ++i) fn.call(fn.fn, i);
    return;
  }
  job j;
  j.fn = fn;
  j.n = n;
  // About four claims per participant: few cursor round trips, and a
  // participant that starts late still finds work to share.
  j.grain = std::max<std::size_t>(1, n / (4 * (helpers + 1)));
  {
    mutex_lock lock(mutex_);
    j.open_slots = helpers;
    job** tail = &jobs_;
    while (*tail != nullptr) tail = &(*tail)->next_job;
    *tail = &j;
  }
  if (helpers == size()) {
    work_ready_.notify_all();
  } else {
    for (std::size_t h = 0; h < helpers; ++h) work_ready_.notify_one();
  }

  claim_chunks(j);
  {
    mutex_lock lock(mutex_);
    if (j.open_slots > 0) unlink(j);  // no late helper may attach
  }
  // The attached helpers are running their last claims: spin briefly, so
  // a short join costs no wake-up, then sleep until the last one detaches.
  for (int spin = 0; spin < kJoinSpins; ++spin) {
    if (j.attached.load(std::memory_order_acquire) == 0) break;
    std::this_thread::yield();
  }
  if (j.attached.load(std::memory_order_acquire) != 0) {
    mutex_lock lock(mutex_);
    j.caller_asleep = true;
    while (j.attached.load(std::memory_order_acquire) != 0) {
      job_done_.wait(lock);
    }
  }
  if (j.error) std::rethrow_exception(j.error);
}

thread_pool& thread_pool::shared() {
  static thread_pool pool;
  return pool;
}

}  // namespace ecrs
