// Fixed-size worker pool used by the service-wide tensor scheduler to run
// preprocessing subtasks concurrently (the paper's host-side S/R/K/T threads).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/flops.hpp"

namespace gt {

/// Split [begin, end) into at most `chunks` contiguous ranges and call
/// `fn(chunk_index, chunk_begin, chunk_end)` for each, in order, on this
/// thread. The boundaries are a pure function of (begin, end, chunks);
/// ThreadPool::parallel_for fans out exactly these chunks.
template <typename F>
void for_each_chunk(std::size_t begin, std::size_t end, std::size_t chunks,
                    F&& fn) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  chunks = std::max<std::size_t>(1, std::min(chunks, n));
  const std::size_t per = (n + chunks - 1) / chunks;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * per;
    if (lo >= end) break;
    fn(c, lo, std::min(end, lo + per));
  }
}

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a callable; returns a future for its result.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mu_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Block until the queue is empty and every worker is idle.
  void wait_idle();

  /// Run every for_each_chunk chunk of [begin, end) as
  /// `fn(chunk_index, chunk_begin, chunk_end)` on the pool, blocking until
  /// every chunk finishes. The boundaries are for_each_chunk's, so chunked
  /// algorithms stay deterministic. The first exception thrown by any
  /// chunk is rethrown on the calling thread after all chunks complete.
  ///
  /// FLOPs counted by a chunk land in the *worker's* thread-local
  /// FlopCounter; each chunk's delta is captured and the sum is merged into
  /// the calling thread's counter at join, so callers observe the exact
  /// serial count (Fig 18 reporting stays right under parallel matmul).
  template <typename F>
  void parallel_for(std::size_t begin, std::size_t end, std::size_t chunks,
                    F&& fn) {
    if (end <= begin) return;
    std::atomic<std::uint64_t> worker_flops{0};
    std::vector<std::future<void>> futures;
    futures.reserve(std::min(chunks, end - begin));
    for_each_chunk(begin, end, chunks,
                   [&](std::size_t c, std::size_t lo, std::size_t hi) {
                     futures.push_back(submit([&fn, &worker_flops, c, lo, hi] {
                       const std::uint64_t before =
                           FlopCounter::instance().count();
                       fn(c, lo, hi);
                       worker_flops.fetch_add(
                           FlopCounter::instance().count() - before,
                           std::memory_order_relaxed);
                     }));
                   });
    std::exception_ptr first_error;
    for (auto& f : futures) {
      try {
        f.get();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    FlopCounter::instance().add(
        worker_flops.load(std::memory_order_relaxed));
    if (first_error) std::rethrow_exception(first_error);
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::size_t active_ = 0;
  bool stop_ = false;
};

/// `pool->parallel_for(begin, end, chunks, fn)`, or the same chunks run
/// inline in chunk order when `pool` is null.
template <typename F>
void run_chunks(ThreadPool* pool, std::size_t begin, std::size_t end,
                std::size_t chunks, F&& fn) {
  if (pool != nullptr)
    pool->parallel_for(begin, end, chunks, fn);
  else
    for_each_chunk(begin, end, chunks, fn);
}

}  // namespace gt
