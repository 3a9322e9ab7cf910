#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

namespace ust {

namespace {
unsigned default_thread_count() {
  if (const char* env = std::getenv("UST_NUM_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4u : hw;
}
}  // namespace

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads == 0) num_threads = default_thread_count();
  // The caller participates in every job, so spawn one fewer worker.
  const unsigned spawned = num_threads > 1 ? num_threads - 1 : 0;
  workers_.reserve(spawned);
  for (unsigned r = 0; r < spawned; ++r) {
    workers_.emplace_back([this, r] { worker_loop(r); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(unsigned rank) {
  std::uint64_t seen_epoch = 0;
  while (true) {
    Job* job = nullptr;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [&] {
        return stopping_ || (current_ != nullptr && job_epoch_ != seen_epoch);
      });
      if (stopping_) return;
      job = current_;
      seen_epoch = job_epoch_;
      // Check in under the lock: the caller cannot retire the job while any
      // checked-in worker may still touch it.
      job->in_flight.fetch_add(1, std::memory_order_relaxed);
    }
    run_job(*job, rank);
    {
      std::scoped_lock lock(mutex_);
      if (job->in_flight.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
          job->done.load(std::memory_order_acquire) == job->total) {
        cv_done_.notify_all();
      }
    }
  }
}

void ThreadPool::run_job(Job& job, unsigned rank) {
  while (true) {
    const std::size_t begin = job.next.fetch_add(job.grain, std::memory_order_relaxed);
    if (begin >= job.total) break;
    const std::size_t end = std::min(begin + job.grain, job.total);
    try {
      job.body_range(rank, begin, end);
    } catch (...) {
      std::scoped_lock lock(job.error_mutex);
      if (!job.error) job.error = std::current_exception();
    }
    job.done.fetch_add(end - begin, std::memory_order_acq_rel);
  }
}

void ThreadPool::parallel_ranges(
    std::size_t n, std::size_t grain,
    const std::function<void(unsigned, std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  grain = std::max<std::size_t>(grain, 1);
  if (workers_.empty() || n <= grain) {
    // Serial fast path.
    const unsigned rank = size();
    for (std::size_t b = 0; b < n; b += grain) body(rank, b, std::min(b + grain, n));
    return;
  }

  Job job;
  job.total = n;
  job.grain = grain;
  job.body_range = body;
  bool busy = false;
  {
    std::scoped_lock lock(mutex_);
    busy = current_ != nullptr;
    if (!busy) {
      current_ = &job;
      ++job_epoch_;
    }
  }
  if (busy) {
    // The pool runs another job: a nested call from inside it (baselines may
    // nest), or another thread's (a plan build beside a device's kernel).
    // Degrade to serial rather than deadlock, outside the lock, so neither
    // job waits on the other. Rank size() is safe: every caller's per-rank
    // scratch is its own.
    const unsigned rank = size();
    for (std::size_t b = 0; b < n; b += grain) body(rank, b, std::min(b + grain, n));
    return;
  }
  cv_.notify_all();

  // The caller participates with rank == size().
  run_job(job, size());

  {
    // Wait until all iterations completed AND every checked-in worker has
    // checked out -- only then is it safe to destroy the stack-resident job.
    std::unique_lock lock(mutex_);
    current_ = nullptr;  // stop further check-ins (workers test under lock)
    cv_done_.wait(lock, [&] {
      return job.done.load(std::memory_order_acquire) == job.total &&
             job.in_flight.load(std::memory_order_acquire) == 0;
    });
  }
  if (job.error) std::rethrow_exception(job.error);
}

void ThreadPool::parallel_for(std::size_t n, std::size_t grain,
                              const std::function<void(std::size_t)>& body) {
  parallel_ranges(n, grain, [&body](unsigned, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) body(i);
  });
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) {
  const std::size_t workers = std::max<std::size_t>(size() + 1, 1);
  const std::size_t grain = std::max<std::size_t>(1, n / (workers * 4));
  parallel_for(n, grain, body);
}

void for_each_block(ThreadPool* pool, std::size_t n, std::size_t block,
                    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  UST_EXPECTS(block >= 1);
  const std::size_t blocks = ceil_div(n, block);
  const auto run = [&](std::size_t b) { body(b, b * block, std::min(n, (b + 1) * block)); };
  if (pool != nullptr) {
    pool->parallel_for(blocks, 1, run);
  } else {
    for (std::size_t b = 0; b < blocks; ++b) run(b);
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace ust
