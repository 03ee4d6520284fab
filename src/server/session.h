// One client's online query inside the concurrent session layer: a handle
// with a cursor of OnlineUpdates, driven by the Dispatcher's shared
// mini-batch sweep (server/dispatcher.h).
//
// Lifecycle: Submit → kQueued (admission) → kRunning (the dispatcher
// created the executor, attaching it to the table's shared scan) →
// kDone | kFailed | kCancelled. The cursor (Next / Latest / Await) is the
// only surface a client thread touches; all engine state stays confined to
// the dispatcher's step workers, serialized per session by step_mu_.
//
// Everything that can degrade a query — deadline ladder, reduced
// replicates, checkpoint destination — lives in this session's private
// GolaOptions copy. One session hitting its deadline never changes a
// concurrent session's behavior (server_chaos_test pins this down).
#ifndef GOLA_SERVER_SESSION_H_
#define GOLA_SERVER_SESSION_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include <vector>

#include "gola/controller.h"
#include "obs/query_log.h"

namespace gola {
namespace server {

enum class SessionState : uint8_t {
  kQueued = 0,   // admitted, waiting for a run slot
  kRunning = 1,  // executor live, batches streaming
  kDone = 2,     // all batches drained (or stopped early by deadline)
  kFailed = 3,   // error — status() carries it
  kCancelled = 4,
};

const char* SessionStateName(SessionState s);

/// Per-session knobs on top of the engine options.
struct SessionOptions {
  GolaOptions gola;
  /// Attach to the table's shared mini-batch scan (one partitioner for all
  /// concurrent queries with the same partition key) instead of building a
  /// private one. Results are bit-identical either way.
  bool share_scan = true;
  /// Cursor depth. When a slow consumer falls behind, the oldest pending
  /// *intermediate* update is dropped (dashboards want the freshest
  /// estimate, not a backlog); the final update is never dropped.
  int max_pending_updates = 16;
  /// Free-form label shown in /statusz ("" → the SQL text, truncated).
  std::string label;
};

class QuerySession {
 public:
  ~QuerySession();
  QuerySession(const QuerySession&) = delete;
  QuerySession& operator=(const QuerySession&) = delete;

  uint64_t id() const { return id_; }
  const std::string& sql() const { return sql_; }
  const std::string& table() const { return table_; }
  const std::string& label() const { return label_; }
  const SessionOptions& options() const { return options_; }

  SessionState state() const;
  /// The terminal error when state() == kFailed; OK otherwise.
  Status status() const;
  /// True once the executor attached to a shared scan (false while queued,
  /// or when the session opted out / was the one that built the scan — the
  /// builder also shares it with later arrivals).
  bool scan_shared() const;

  // --- cursor -----------------------------------------------------------
  /// Pops the next update, waiting up to `timeout`. Returns false on
  /// timeout or when the stream is exhausted (terminal state and nothing
  /// pending) — distinguish via state().
  bool Next(OnlineUpdate* out, std::chrono::milliseconds timeout);
  /// The most recent update (copy), if any was produced yet.
  std::optional<OnlineUpdate> Latest() const;
  /// Blocks until the session is terminal; returns the final update
  /// (result table always materialized) or the failure status.
  Result<OnlineUpdate> Await();
  /// Requests cancellation; the dispatcher detaches the session before its
  /// next batch. Idempotent; no-op on terminal sessions.
  void Cancel();

  /// Serializes the query's full resumable state (gola/checkpoint.h),
  /// mutually excluded against the dispatcher stepping this session — safe
  /// to call from any thread mid-sweep. Per-session by construction: the
  /// path and the state both belong to this session alone.
  Status Checkpoint(const std::string& path);

  // --- statistics -------------------------------------------------------
  int batches_done() const;
  int total_batches() const;
  int64_t updates_dropped() const;
  /// Seconds from Submit to the first estimate reaching the cursor
  /// (time-to-first-estimate, the p99 axis of bench_server); <0 before.
  double seconds_to_first_update() const;
  /// Seconds from Submit to reaching a terminal state; <0 before.
  double seconds_to_done() const;
  Degradation degradation() const;
  /// Updates currently waiting in the cursor.
  int pending_updates() const;
  /// Accuracy-SLO crossings harvested from the executor (wall time to
  /// RSD ≤ 5/2/1%); empty while queued.
  std::vector<obs::SloCrossing> slo_crossings() const;
  /// Timestamped lifecycle events (scan_attach, degrade:<rung>,
  /// cancel_requested, checkpoint, and watchdog alerts by kind — stall,
  /// ci_regression, uncertain_growth) in submit order.
  std::vector<obs::QueryLogEvent> events() const;
  /// Per-group convergence summary of the most recent update carrying one
  /// (top-K worst cells by RSD, churn counts); empty while queued or when
  /// telemetry is disabled.
  obs::GroupConvergenceSummary group_summary() const;

 private:
  friend class Dispatcher;

  QuerySession(uint64_t id, std::string sql, std::string table,
               CompiledQuery query, SessionOptions options);

  /// Dispatcher-side: create the executor (kQueued → kRunning).
  void Start(const Catalog* catalog,
             std::shared_ptr<const MiniBatchPartitioner> shared_scan);
  /// Dispatcher-side: process one mini-batch and publish the update.
  /// Returns true while the session wants more batches.
  bool StepOnce();
  /// Push an update into the cursor (drop-oldest on overflow).
  void Publish(OnlineUpdate update, bool final);
  /// Terminal transition (idempotent: the first caller wins). Also emits
  /// the wide-event query-log record and flushes the per-session counters,
  /// so every outcome — done, failed, cancelled — leaves exactly one
  /// record.
  void Finish(SessionState terminal, Status status);
  /// Appends a lifecycle event stamped with seconds-since-submit. Caller
  /// must hold mu_.
  void NoteEventLocked(std::string name);
  /// Copies telemetry that lives inside the executor (SLO crossings) into
  /// session state. Caller must hold step_mu_; called before every
  /// exec_.reset() so the wide event survives executor teardown.
  void HarvestExecutorTelemetry();
  /// Builds and appends the wide-event record (no locks held on entry).
  void EmitWideEvent();

  const uint64_t id_;
  const std::string sql_;
  const std::string table_;  // lower-cased streamed table
  std::string label_;
  SessionOptions options_;
  CompiledQuery query_;  // bound at Submit; moved into the executor at Start

  /// Serializes engine access: the dispatcher's StepOnce vs. Checkpoint.
  std::mutex step_mu_;
  std::unique_ptr<OnlineQueryExecutor> exec_;

  mutable std::mutex mu_;  // guards everything below
  std::condition_variable cv_;
  SessionState state_ = SessionState::kQueued;
  Status error_ = Status::OK();
  bool cancel_requested_ = false;
  std::deque<OnlineUpdate> pending_;
  std::optional<OnlineUpdate> latest_;
  std::optional<OnlineUpdate> final_;
  bool scan_shared_ = false;
  int batches_done_ = 0;
  int total_batches_ = 0;
  int64_t dropped_ = 0;
  Degradation degradation_ = Degradation::kNone;
  std::chrono::steady_clock::time_point submit_time_;
  double first_update_seconds_ = -1;
  double done_seconds_ = -1;

  // Wide-event accumulation (guarded by mu_): cumulative QueryStats over
  // every published batch, the latest headline cell with an estimate, SLO
  // crossings harvested from the executor, and timestamped lifecycle
  // events.
  obs::QueryStats stats_total_;
  obs::GroupCell headline_;
  int recomputes_ = 0;
  std::vector<obs::SloCrossing> slo_crossings_;
  std::vector<obs::QueryLogEvent> events_;
  obs::GroupConvergenceSummary group_summary_;
};

using SessionPtr = std::shared_ptr<QuerySession>;

}  // namespace server
}  // namespace gola

#endif  // GOLA_SERVER_SESSION_H_
