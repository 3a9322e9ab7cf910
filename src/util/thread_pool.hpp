// A fixed-size worker pool with blocking parallel-for, used both as the
// "multicore CPU" of the baseline implementations and as the physical
// execution engine beneath the GPU simulator (sim::Device schedules thread
// blocks onto this pool).
//
// Design notes (per C++ Core Guidelines CP.*):
//  * Workers are joined in the destructor (RAII); no detached threads.
//  * parallel_for uses an atomic work counter, so iteration order within a
//    chunk is increasing -- a property the simulator's ordered block dispatch
//    (adjacent synchronisation) relies on.
//  * Exceptions thrown by a body are captured and rethrown on the caller.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/common.hpp"

namespace ust {

class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means std::thread::hardware_concurrency.
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// Runs body(i) for i in [0, n), distributing dynamically in chunks of
  /// `grain`. Blocks until all iterations complete. The calling thread
  /// participates in the work. Rethrows the first exception raised by any
  /// iteration after all workers have drained.
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t)>& body);

  /// Convenience overload with automatic grain (~4 chunks per worker).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Runs body(worker_rank, begin, end) over contiguous ranges. Useful when a
  /// body wants per-worker scratch indexed by rank; rank < size()+1 (the
  /// caller participates as the last rank). A call made while the pool runs
  /// another job (nested, or from another thread) runs serially on its
  /// caller as rank size(), so per-rank scratch must belong to the call.
  void parallel_ranges(std::size_t n, std::size_t grain,
                       const std::function<void(unsigned, std::size_t, std::size_t)>& body);

  /// Process-wide default pool, sized from UST_NUM_THREADS or hardware.
  static ThreadPool& global();

 private:
  struct Job {
    std::atomic<std::size_t> next{0};
    std::size_t total = 0;
    std::size_t grain = 1;
    // body_range is invoked with (worker_rank, begin, end).
    std::function<void(unsigned, std::size_t, std::size_t)> body_range;
    std::atomic<std::size_t> done{0};
    // Number of workers currently inside run_job for this job; the caller
    // must not retire the job until this drops to zero.
    std::atomic<std::size_t> in_flight{0};
    std::exception_ptr error;
    std::mutex error_mutex;
  };

  void worker_loop(unsigned rank);
  void run_job(Job& job, unsigned rank);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;          // wakes workers when a job is posted
  std::condition_variable cv_done_;     // wakes caller when a job completes
  Job* current_ = nullptr;              // at most one job active at a time
  std::uint64_t job_epoch_ = 0;
  bool stopping_ = false;
};

/// Splits [0, n) into consecutive blocks of `block` elements (the last one
/// shorter) and runs body(b, begin, end) once per block: on `pool` when one
/// is given, else on the caller. A single block runs on the caller without
/// waking the pool.
void for_each_block(ThreadPool* pool, std::size_t n, std::size_t block,
                    const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

}  // namespace ust
