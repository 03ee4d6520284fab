// The concurrent-query dispatcher (ROADMAP item 1): admission control and
// a shared mini-batch sweep over all running sessions.
//
// Architecture (DESIGN.md §12):
//
//   client → Submit(sql) ──► [admission queue] ──► QuerySession (kQueued)
//                                   │ promote (run slot free)
//                                   ▼
//                         executor + shared scan (ScanShare)
//                                   │
//        scheduler thread: rounds of "step every running session once",
//        fanned across the step pool — sessions on the same table walk the
//        same shared batch stream, so batch i's chunk is resident while
//        every attached query folds it; each session keeps its own
//        replicate/uncertain-set state and its own GolaOptions copy.
//                                   │
//                                   ▼
//                      per-session cursor of OnlineUpdates
//
// Admission control: at most `max_active_sessions` run concurrently;
// `max_queued_sessions` more wait in FIFO order; beyond that Submit
// returns Unavailable — the backpressure signal a fleet front-end needs
// (HTTP maps it to 503).
//
// Determinism: a session's batches are processed in stream order by
// exactly one step worker at a time (QuerySession::step_mu_), and nothing
// a concurrent session does feeds into another session's fold — so every
// session's answer is bit-identical to a solo run of the same SQL with the
// same options, shared scan or not (server_session_test, Release + TSan).
#ifndef GOLA_SERVER_DISPATCHER_H_
#define GOLA_SERVER_DISPATCHER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "obs/timeseries.h"
#include "plan/binder.h"
#include "server/scan_share.h"
#include "server/session.h"

namespace gola {
namespace server {

struct DispatcherOptions {
  /// Sessions stepping concurrently; more wait in the admission queue.
  int max_active_sessions = 64;
  /// Queued sessions beyond the active cap; past this Submit returns
  /// Unavailable (the client should back off and retry).
  int max_queued_sessions = 256;
  /// Worker threads stepping sessions within a round (0 → hardware
  /// concurrency). Independent of GolaOptions::pool, which parallelizes
  /// morsels *within* one session's batch.
  int step_threads = 0;
};

class Dispatcher {
 public:
  explicit Dispatcher(const Catalog* catalog, DispatcherOptions options = {});
  ~Dispatcher();
  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Parses, binds and admits `sql` as a new session. Synchronous errors
  /// (parse/bind failures, non-online-executable shapes, admission
  /// overflow) come back here; runtime errors surface through the
  /// session's state()/status().
  Result<SessionPtr> Submit(const std::string& sql, SessionOptions options = {});

  /// Session by id — live or recently finished; null when unknown.
  SessionPtr Find(uint64_t id) const;
  /// Queued + running + recently finished sessions, oldest first.
  std::vector<SessionPtr> Sessions() const;

  int active_sessions() const;
  int queued_sessions() const;
  ScanShareStats scan_stats() const;
  /// The shared-scan cache sessions attach through. GetOrCreate on it
  /// builds a table's scan ahead of a fleet and pins it while the returned
  /// pointer lives, so sessions submitted one by one all attach to it even
  /// when an early one drains before the next arrives.
  ScanShare& scan_share() { return scan_share_; }
  const DispatcherOptions& options() const { return options_; }

  /// Cancels every queued and running session and joins the scheduler.
  /// Idempotent; the destructor calls it.
  void Shutdown();

 private:
  void SchedulerLoop();
  /// Moves queued sessions into the running set while slots are free,
  /// creating executors (and resolving shared scans) outside the lock.
  void Promote(std::unique_lock<std::mutex>& lock);

  const Catalog* catalog_;
  const DispatcherOptions options_;
  ScanShare scan_share_;
  std::unique_ptr<ThreadPool> pool_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool shutdown_ = false;
  uint64_t next_id_ = 1;
  std::deque<SessionPtr> queued_;
  std::vector<SessionPtr> running_;
  std::deque<SessionPtr> recent_;  // terminal sessions, most recent last

  std::thread scheduler_;

  // Pull-based /timez series (queue depth, active sessions), fed by the
  // store's sampler thread; retired in Shutdown before members go away.
  obs::TimeSeriesStore::SeriesId ts_queue_depth_ =
      obs::TimeSeriesStore::kInvalidSeries;
  obs::TimeSeriesStore::SeriesId ts_active_ =
      obs::TimeSeriesStore::kInvalidSeries;
};

}  // namespace server
}  // namespace gola

#endif  // GOLA_SERVER_DISPATCHER_H_
