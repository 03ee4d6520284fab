#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <stdexcept>

#include "common/failpoint.h"
#include "obs/metrics.h"

namespace gola {

namespace {

/// Pre-looked-up handles into the global registry (one lookup per process;
/// recording is lock-free).
struct PoolMetrics {
  obs::Gauge* queue_depth;
  obs::Counter* tasks_total;
  obs::Counter* parallel_for_total;
  obs::Counter* parallel_for_inline_total;
  obs::Histogram* task_wait_us;
  obs::Histogram* task_run_us;
  obs::Histogram* idle_us;

  static const PoolMetrics& Get() {
    static PoolMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      auto* pm = new PoolMetrics();
      pm->queue_depth = reg.GetGauge("gola_threadpool_queue_depth");
      pm->tasks_total = reg.GetCounter("gola_threadpool_tasks_total");
      pm->parallel_for_total = reg.GetCounter("gola_threadpool_parallel_for_total");
      pm->parallel_for_inline_total =
          reg.GetCounter("gola_threadpool_parallel_for_inline_total");
      pm->task_wait_us = reg.GetHistogram("gola_threadpool_task_wait_us");
      pm->task_run_us = reg.GetHistogram("gola_threadpool_task_run_us");
      pm->idle_us = reg.GetHistogram("gola_threadpool_idle_us");
      return pm;
    }();
    return *m;
  }
};

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  const bool instrumented = obs::MetricsEnabled();
  Task entry{std::move(task), instrumented ? NowUs() : 0};
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(entry));
  }
  if (instrumented) {
    const PoolMetrics& m = PoolMetrics::Get();
    m.queue_depth->Add(1);
    m.tasks_total->Increment();
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      int64_t wait_start = obs::MetricsEnabled() ? NowUs() : 0;
      cv_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (wait_start != 0) {
        PoolMetrics::Get().idle_us->Record(NowUs() - wait_start);
      }
      if (shutdown_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    if (task.enqueue_us != 0 && obs::MetricsEnabled()) {
      const PoolMetrics& m = PoolMetrics::Get();
      m.queue_depth->Add(-1);
      int64_t start = NowUs();
      m.task_wait_us->Record(start - task.enqueue_us);
      task.fn();
      m.task_run_us->Record(NowUs() - start);
    } else {
      if (task.enqueue_us != 0) PoolMetrics::Get().queue_depth->Add(-1);
      task.fn();
    }
  }
}

namespace {

thread_local bool tls_in_pool = false;

/// Shared by the caller and all helper tasks of one ParallelFor; the caller
/// blocks until every helper task has *exited* (not merely until all
/// iterations completed), so helpers can never touch freed state.
struct ParallelForState {
  explicit ParallelForState(size_t n_in, const std::function<void(size_t)>& fn_in)
      : n(n_in), fn(fn_in) {}

  const size_t n;
  const std::function<void(size_t)>& fn;  // caller outlives all tasks
  std::atomic<size_t> next{0};
  std::atomic<bool> cancelled{false};
  std::mutex mu;
  std::condition_variable cv;
  size_t tasks_remaining = 0;
  std::exception_ptr first_error;  // guarded by mu

  void RunBody() {
    tls_in_pool = true;
    for (;;) {
      if (cancelled.load(std::memory_order_relaxed)) break;
      size_t i = next.fetch_add(1);
      if (i >= n) break;
      try {
        if (GOLA_FAILPOINT("threadpool.task")) {
          // Simulates a worker dying mid-dispatch: the iteration is lost and
          // the whole ParallelFor aborts through the normal exception path,
          // exercising the caller's batch-level recovery.
          throw std::runtime_error("failpoint threadpool.task: injected task fault");
        }
        fn(i);
      } catch (...) {
        // First exception wins; the rest of the iteration space is
        // abandoned and the caller rethrows after the barrier.
        std::lock_guard<std::mutex> lock(mu);
        if (!first_error) first_error = std::current_exception();
        cancelled.store(true, std::memory_order_relaxed);
      }
    }
    tls_in_pool = false;
  }

  void TaskDone() {
    std::lock_guard<std::mutex> lock(mu);
    if (--tasks_remaining == 0) cv.notify_all();
  }
};

}  // namespace

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || tls_in_pool) {
    // Inline (also avoids deadlock on reentrant use from a worker thread).
    if (obs::MetricsEnabled()) {
      PoolMetrics::Get().parallel_for_inline_total->Increment();
    }
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  if (obs::MetricsEnabled()) PoolMetrics::Get().parallel_for_total->Increment();
  auto state = std::make_shared<ParallelForState>(n, fn);
  const size_t helpers = std::min(n, workers_.size());
  state->tasks_remaining = helpers;
  for (size_t t = 0; t < helpers; ++t) {
    Submit([state] {
      state->RunBody();
      state->TaskDone();
    });
  }
  // The calling thread participates too, then waits for every helper task
  // to exit before the shared state (and `fn`) can go away.
  state->RunBody();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] { return state->tasks_remaining == 0; });
    // Take the exception out of the shared state: a helper task may still
    // hold the last reference to the state, and must not be the thread that
    // drops the exception while the caller handles it.
    error = std::move(state->first_error);
  }
  if (error) std::rethrow_exception(error);
}

ThreadPool& ThreadPool::Default() {
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

}  // namespace gola
