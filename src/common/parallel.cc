#include "common/parallel.h"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"

namespace randrecon {
namespace parallel_internal {

/// One parallel call's tasks. `next_task` and `pending` are guarded by
/// the pool mutex; a job leaves the pool's queue once its last task is
/// claimed, and nothing in the pool touches it after `pending` reaches 0.
struct PoolJob {
  /// Background jobs own their task; ordinary ones point at the caller's.
  std::function<void(size_t)> owned_task;
  const std::function<void(size_t)>* task = nullptr;
  size_t num_tasks = 0;
  size_t next_task = 0;
  size_t pending = 0;
};

}  // namespace parallel_internal

namespace {

using parallel_internal::PoolJob;

/// True while this thread is executing a pool task: a nested parallel
/// call from inside a task runs inline instead of re-entering the pool
/// (a worker blocked on a nested job could starve the pool).
thread_local bool t_inside_pool_task = false;

/// Persistent pool of workers executing indexed tasks. A parallel call
/// queues one job (a function over task indices) and wakes the workers;
/// an ordinary call then takes part in its own job and waits for it, a
/// background call (StartParallelFor) returns at once. Several jobs may
/// be queued at a time; workers serve them first in, first out. Workers
/// are spawned lazily up to the largest count any call has asked for.
///
/// Tasks are coarse (one per contiguous chunk, at most a few dozen per
/// job), so indices are claimed under the mutex; the lock cost is
/// invisible next to the chunk work, and a job leaves the queue under
/// that same lock when its last index is claimed, so no worker can reach
/// a finished job.
class ThreadPool {
 public:
  static ThreadPool& Instance() {
    static ThreadPool* pool = new ThreadPool();  // Leaked deliberately:
    return *pool;  // workers must never race static destruction order.
  }

  /// Runs task(t) for every t in [0, num_tasks), using up to
  /// `num_workers` threads (including the caller). Blocks until done.
  void Run(size_t num_tasks, size_t num_workers,
           const std::function<void(size_t)>& task) {
    if (num_tasks == 0) return;
    if (num_workers <= 1 || num_tasks == 1 || t_inside_pool_task) {
      for (size_t t = 0; t < num_tasks; ++t) task(t);
      return;
    }
    PoolJob job;
    job.task = &task;
    Submit(&job, num_tasks, num_workers - 1);
    // The caller works only on its own job, so it finishes even while
    // every worker is busy with a background job queued before it.
    size_t t;
    while (Claim(&job, &t)) Execute(&job, t);
    Join(&job);
  }

  /// Queues `job`'s `num_tasks` tasks, starting workers up to
  /// `workers_needed` (a background job needs at least one).
  void Submit(PoolJob* job, size_t num_tasks, size_t workers_needed) {
    EnsureWorkers(workers_needed);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job->num_tasks = num_tasks;
      job->next_task = 0;
      job->pending = num_tasks;
      queue_.push_back(job);
    }
    work_cv_.notify_all();
  }

  /// Blocks until every task of `job` has finished.
  void Join(PoolJob* job) {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return job->pending == 0; });
  }

 private:
  ThreadPool() = default;

  void EnsureWorkers(size_t count) {
    std::lock_guard<std::mutex> lock(mutex_);
    while (workers_.size() < count) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void WorkerLoop() {
    for (;;) {
      PoolJob* job;
      size_t t;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_cv_.wait(lock, [&] { return !queue_.empty(); });
        job = queue_.front();
        t = ClaimLocked(job);
      }
      Execute(job, t);
    }
  }

  /// Claims the next task index of `job`; false once none is left.
  bool Claim(PoolJob* job, size_t* t) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (job->next_task >= job->num_tasks) return false;
    *t = ClaimLocked(job);
    return true;
  }

  /// Claims an index of a queued job, dequeuing it with its last index.
  size_t ClaimLocked(PoolJob* job) {
    const size_t t = job->next_task++;
    if (job->next_task == job->num_tasks) {
      queue_.erase(std::find(queue_.begin(), queue_.end(), job));
    }
    return t;
  }

  void Execute(PoolJob* job, size_t t) {
    t_inside_pool_task = true;
    try {
      (*job->task)(t);
    } catch (...) {
      // A task that throws (e.g. bad_alloc in a kernel's pack buffer)
      // would otherwise leave pending stuck and its waiter blocked
      // forever. This library treats failures as fatal (see
      // common/check.h), so fail fast instead of unwinding.
      std::abort();
    }
    t_inside_pool_task = false;
    std::lock_guard<std::mutex> lock(mutex_);
    if (--job->pending == 0) done_cv_.notify_all();
  }

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  /// Jobs with unclaimed tasks, oldest first.
  std::deque<PoolJob*> queue_;
};

size_t AutoThreadCount() {
  if (const char* env = std::getenv("RANDRECON_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) return static_cast<size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

/// Runs chunk `t` of `threads` even contiguous chunks of [begin, begin +
/// items). Each chunk's work is self-contained and writes to disjoint
/// data, so any assignment of chunks to workers (and any chunk count)
/// produces identical results.
void RunChunk(size_t t, size_t begin, size_t items, size_t threads,
              const std::function<void(size_t, size_t)>& body) {
  const size_t base = items / threads;
  const size_t extra = items % threads;
  const size_t chunk_begin = begin + t * base + (t < extra ? t : extra);
  const size_t chunk_size = base + (t < extra ? 1 : 0);
  if (chunk_size > 0) body(chunk_begin, chunk_begin + chunk_size);
}

}  // namespace

size_t EffectiveThreadCount(const ParallelOptions& options, size_t items) {
  if (items <= 1) return 1;
  size_t threads = options.num_threads > 0
                       ? static_cast<size_t>(options.num_threads)
                       : AutoThreadCount();
  if (items < options.min_parallel_items) threads = 1;
  return threads < items ? (threads == 0 ? 1 : threads) : items;
}

bool InsideParallelTask() { return t_inside_pool_task; }

void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t, size_t)>& body,
                 const ParallelOptions& options) {
  RR_CHECK_LE(begin, end);
  const size_t items = end - begin;
  if (items == 0) return;
  const size_t threads = EffectiveThreadCount(options, items);
  if (threads == 1) {
    body(begin, end);
    return;
  }
  ThreadPool::Instance().Run(threads, threads, [&](size_t t) {
    RunChunk(t, begin, items, threads, body);
  });
}

void ParallelForEach(size_t begin, size_t end,
                     const std::function<void(size_t)>& body,
                     const ParallelOptions& options) {
  RR_CHECK_LE(begin, end);
  const size_t items = end - begin;
  if (items == 0) return;
  const size_t threads = EffectiveThreadCount(options, items);
  ThreadPool::Instance().Run(items, threads,
                             [&](size_t t) { body(begin + t); });
}

ParallelTask::ParallelTask() = default;
ParallelTask::ParallelTask(std::unique_ptr<PoolJob> job)
    : job_(std::move(job)) {}
ParallelTask::ParallelTask(ParallelTask&& other) noexcept = default;

ParallelTask& ParallelTask::operator=(ParallelTask&& other) noexcept {
  if (this != &other) {
    Wait();
    job_ = std::move(other.job_);
  }
  return *this;
}

ParallelTask::~ParallelTask() { Wait(); }

void ParallelTask::Wait() {
  if (job_ == nullptr) return;
  ThreadPool::Instance().Join(job_.get());
  job_.reset();
}

ParallelTask StartParallelFor(size_t begin, size_t end,
                              std::function<void(size_t, size_t)> body,
                              const ParallelOptions& options) {
  RR_CHECK_LE(begin, end);
  const size_t items = end - begin;
  const size_t threads = EffectiveThreadCount(options, items);
  if (threads == 1 || t_inside_pool_task) {
    ParallelFor(begin, end, body, options);
    return ParallelTask();
  }
  auto job = std::make_unique<PoolJob>();
  job->owned_task = [begin, items, threads, body = std::move(body)](size_t t) {
    RunChunk(t, begin, items, threads, body);
  };
  job->task = &job->owned_task;
  ThreadPool::Instance().Submit(job.get(), threads, threads - 1);
  return ParallelTask(std::move(job));
}

}  // namespace randrecon
