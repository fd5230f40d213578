#include "src/util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <new>

#include "src/util/env.hpp"
#include "src/util/logging.hpp"

namespace slim::util {

namespace {

// Pool workers run nested parallel_for calls inline (a kernel invoked from
// inside another kernel's chunk must not deadlock waiting for the pool).
thread_local bool t_in_pool_worker = false;
// Innermost ScopedKernelThreads cap for this thread; 0 = uncapped.
thread_local int t_kernel_cap = 0;

int threads_from_env() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int fallback = hw == 0 ? 1 : static_cast<int>(hw);
  return static_cast<int>(env_int_or("SLIMPIPE_THREADS", fallback, 1));
}

}  // namespace

/// One parallel_for invocation. Chunks are claimed by atomic ticket; the
/// claim order is irrelevant to results (chunks are independent by the
/// determinism contract), only the done count and the error slot matter.
struct ThreadPool::Job {
  std::function<void(std::int64_t, std::int64_t)> fn;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t grain = 1;
  std::int64_t n_chunks = 0;
  int max_helpers = 0;  // pool workers allowed on top of the caller
  std::atomic<std::int64_t> next_chunk{0};
  std::atomic<std::int64_t> done{0};
  std::atomic<int> helpers{0};
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::mutex error_mutex;
  std::exception_ptr error;
};

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(threads_from_env());
  return pool;
}

ThreadPool::ThreadPool(int threads) { set_threads(threads); }

ThreadPool::~ThreadPool() { set_threads(1); }

int ThreadPool::max_threads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return configured_;
}

void ThreadPool::set_threads(int threads) {
  threads = std::max(1, threads);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    SLIM_CHECK(jobs_.empty(), "set_threads while a parallel_for is in flight");
    if (threads == configured_ &&
        static_cast<int>(workers_.size()) == threads - 1) {
      return;
    }
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  std::lock_guard<std::mutex> lock(mutex_);
  stop_ = false;
  configured_ = threads;
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int i = 0; i < threads - 1; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void ThreadPool::run_chunks(Job& job) {
  for (;;) {
    const std::int64_t chunk =
        job.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= job.n_chunks) return;
    const std::int64_t lo = job.begin + chunk * job.grain;
    const std::int64_t hi = std::min(job.end, lo + job.grain);
    bool skip;
    {
      std::lock_guard<std::mutex> lock(job.error_mutex);
      skip = static_cast<bool>(job.error);
    }
    if (!skip) {
      try {
        job.fn(lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.error_mutex);
        if (!job.error) job.error = std::current_exception();
      }
    }
    if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job.n_chunks) {
      std::lock_guard<std::mutex> lock(job.done_mutex);
      job.done_cv.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  t_in_pool_worker = true;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    std::shared_ptr<Job> job;
    for (auto it = jobs_.begin(); it != jobs_.end();) {
      Job& candidate = **it;
      if (candidate.next_chunk.load(std::memory_order_relaxed) >=
          candidate.n_chunks) {
        it = jobs_.erase(it);
        continue;
      }
      if (candidate.helpers.load(std::memory_order_relaxed) <
          candidate.max_helpers) {
        job = *it;
        break;
      }
      ++it;
    }
    if (!job) {
      if (stop_) return;
      cv_.wait(lock);
      continue;
    }
    job->helpers.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();
    run_chunks(*job);
    job->helpers.fetch_sub(1, std::memory_order_relaxed);
    lock.lock();
  }
}

void ThreadPool::parallel_for(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (begin >= end) return;
  grain = std::max<std::int64_t>(1, grain);
  const std::int64_t n_chunks = chunk_count(begin, end, grain);

  // Serial path: a caller capped at one thread, a nested call from a pool
  // worker, a single chunk, or a forced-serial pool. The first three need
  // no pool state, so they skip the pool lock, which the pipeline's stage
  // threads would otherwise take on every kernel call. Chunks still run in
  // ascending index order with the same boundaries — bit-identical to the
  // threaded path.
  int width = 1;
  if (t_kernel_cap != 1 && !t_in_pool_worker && n_chunks > 1) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      width = configured_;
    }
    if (t_kernel_cap > 0) width = std::min(width, t_kernel_cap);
  }
  if (width <= 1) {
    for (std::int64_t chunk = 0; chunk < n_chunks; ++chunk) {
      const std::int64_t lo = begin + chunk * grain;
      fn(lo, std::min(end, lo + grain));
    }
    return;
  }

  auto job = std::make_shared<Job>();
  job->fn = fn;
  job->begin = begin;
  job->end = end;
  job->grain = grain;
  job->n_chunks = n_chunks;
  job->max_helpers = static_cast<int>(
      std::min<std::int64_t>(width - 1, n_chunks - 1));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.push_back(job);
  }
  cv_.notify_all();
  run_chunks(*job);  // the caller participates
  {
    std::unique_lock<std::mutex> lock(job->done_mutex);
    job->done_cv.wait(lock, [&] {
      return job->done.load(std::memory_order_acquire) == job->n_chunks;
    });
  }
  {
    // Retire the job eagerly so an idle pool holds no stale entries
    // (set_threads asserts the queue is empty).
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.erase(std::remove(jobs_.begin(), jobs_.end(), job), jobs_.end());
  }
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(job->error_mutex);
    error = job->error;
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::run_locked(const std::function<void()>& fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  fn();
}

void ThreadPool::child_after_fork() {
  // The forking thread held mutex_ across the fork (run_locked), so no
  // worker was mid-bookkeeping in the snapshot — but the mutex itself was
  // inherited locked and the worker threads are gone. Joining (or even
  // destroying) their std::thread handles would terminate, so the handles
  // and any queued jobs are deliberately leaked; the primitives are
  // reconstructed in place and the pool is forced serial.
  auto* orphaned_workers = new std::vector<std::thread>();
  orphaned_workers->swap(workers_);
  auto* orphaned_jobs = new std::vector<std::shared_ptr<Job>>();
  orphaned_jobs->swap(jobs_);
  new (&mutex_) std::mutex();
  new (&cv_) std::condition_variable();
  configured_ = 1;
  stop_ = false;
}

ScopedKernelThreads::ScopedKernelThreads(int cap) : previous_(t_kernel_cap) {
  t_kernel_cap = cap > 0 ? cap : 0;
}

ScopedKernelThreads::~ScopedKernelThreads() { t_kernel_cap = previous_; }

int kernel_thread_cap() { return t_kernel_cap; }

}  // namespace slim::util
