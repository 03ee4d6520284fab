// Wide-event query log: one structured JSONL record per finished query
// session — everything about the query in a single line, in the
// "canonical log line" style. Metrics answer "how is the fleet doing";
// the query log answers "what exactly happened to session 17": the
// submitted SQL, admission and scan-share decisions, every degradation
// rung the controller climbed, cumulative QueryStats, accuracy-SLO
// crossing times, and the final estimate with its CI. CI's concurrency
// smoke uploads these records as artifacts, and the BlinkDB-style tuner
// of ROADMAP item 2 gets its training data from them.
//
// Emission is append-only JSONL to the file named by GOLA_QUERY_LOG_PATH
// (unset → disabled, zero cost beyond one branch). A record is written
// exactly once, by the session's terminal transition, whatever the
// outcome — done, failed, or cancelled.
#ifndef GOLA_OBS_QUERY_LOG_H_
#define GOLA_OBS_QUERY_LOG_H_

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "obs/group_telemetry.h"
#include "obs/query_stats.h"
#include "obs/slo.h"

namespace gola {
namespace obs {

/// One timestamped lifecycle event inside a session (seconds since
/// submit): "scan_attach", "degrade:reduced_replicates", "checkpoint",
/// "cancel_requested", ...
struct QueryLogEvent {
  double seconds = 0;
  std::string name;
};

/// The wide event. Field groups mirror the session lifecycle: identity,
/// options, execution volume, timing, accuracy, outcome.
struct QueryLogRecord {
  // Identity.
  std::string session_id;
  std::string label;
  std::string table;
  std::string sql;

  // Outcome: "done", "failed", "cancelled" (mirrors SessionState).
  std::string state;
  std::string error;        // status message when state == "failed"
  std::string degradation;  // final degradation rung, "none" when clean

  // Effective options.
  int num_batches = 0;
  int bootstrap_replicates = 0;
  uint64_t seed = 0;
  int64_t deadline_ms = 0;
  bool share_scan_requested = false;
  bool scan_shared = false;

  // Execution volume.
  int batches_done = 0;
  int total_batches = 0;
  int recomputes = 0;
  int64_t updates_dropped = 0;

  // Timing.
  double seconds_to_first_update = -1;
  double seconds_to_done = -1;

  // Accuracy-SLO crossings (wall time to RSD <= target; -1 unmet).
  std::vector<SloCrossing> slo;

  // Cumulative QueryStats over every published batch.
  QueryStats stats;

  // Lifecycle events in submit order. Watchdog alerts appear here by kind
  // ("stall", "ci_regression", "uncertain_growth").
  std::vector<QueryLogEvent> events;

  // Per-group convergence state at the last published update: top-K worst
  // cells by RSD plus churn counts (DESIGN.md §14).
  GroupConvergenceSummary groups;

  // Headline cell of the latest update that had an estimate, and the
  // latest update's max_rsd (-1 before any update).
  GroupCell headline;
  double max_rsd = -1;

  /// The record as one JSON object (no trailing newline).
  std::string ToJson() const;
};

/// Append-only JSONL sink. Append serializes the whole line under one
/// mutex and writes it with a single fwrite + flush, so concurrent
/// sessions never interleave records.
class QueryLog {
 public:
  QueryLog() = default;
  ~QueryLog();
  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// Opens (appending) the given path; closes any previous sink. An empty
  /// path disables the log. Returns false when the file cannot be opened.
  bool Open(const std::string& path);
  void Close();

  bool enabled() const;
  const std::string& path() const { return path_; }

  /// Writes one record as a single JSONL line. No-op when disabled.
  void Append(const QueryLogRecord& record);

  /// Process-wide sink, lazily opened from GOLA_QUERY_LOG_PATH.
  static QueryLog& Global();

 private:
  mutable std::mutex mu_;
  std::FILE* file_ = nullptr;
  std::string path_;
};

}  // namespace obs
}  // namespace gola

#endif  // GOLA_OBS_QUERY_LOG_H_
