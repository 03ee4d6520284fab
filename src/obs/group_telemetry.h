// Per-group convergence telemetry: the estimator-quality signal /statusz
// and /timez were missing. The root emission records a typed cell —
// estimate, bootstrap CI bounds, RSD — for every aggregate cell every
// batch, but the scalar max_rsd alone cannot tell a skewed group-by whose
// rare groups never converge (the classic BlinkDB failure mode) from a
// healthy query. This module keeps the export *bounded* regardless of
// group count: a top-K-worst-cells-by-RSD summary plus group-churn counts
// (keys appearing/disappearing between updates), computed once per
// OnlineUpdate and fanned out to /timez, /statusz, /sessions/<id>, the
// convergence JSONL and the wide-event query log.
//
// Plain data only: the tracker consumes the emission's cells, so this
// layer has no dependency on the engine or storage.
#ifndef GOLA_OBS_GROUP_TELEMETRY_H_
#define GOLA_OBS_GROUP_TELEMETRY_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

namespace gola {
namespace obs {

/// One aggregate cell of a running answer: (group key, output column) with
/// its estimate, bootstrap CI bounds and RSD — the typed twin of a result
/// row's `<col>`, `<col>_lo`, `<col>_hi` and `<col>_rsd` values. Absence is
/// first-class: a cell whose error bars could not be computed (null
/// estimate) reports has_rsd=false rather than a fake rsd of 0 — "unknown
/// error" must never read as "converged".
struct GroupCell {
  std::string group_key;  // group-by values joined with '|' ("*" for scalar)
  std::string column;     // aggregate output column name
  bool has_estimate = false;
  double estimate = 0;
  double ci_lo = 0;
  double ci_hi = 0;
  bool has_rsd = false;
  double rsd = 0;

  /// CI half-width (hi − lo)/2; 0 without an estimate.
  double half_width() const { return has_estimate ? (ci_hi - ci_lo) / 2 : 0; }
};

/// Bounded summary of one update's per-group convergence state. `top` holds
/// at most K cells ranked worst-first: cells with *no* RSD outrank every
/// numeric RSD (a cell we cannot bound is the least converged thing on the
/// board), then numeric RSDs descend.
struct GroupConvergenceSummary {
  int64_t cells_total = 0;     // aggregate cells observed this update
  int64_t groups_total = 0;    // distinct group keys this update
  int64_t groups_appeared = 0;     // churn: keys new since the last update
  int64_t groups_disappeared = 0;  // churn: keys gone since the last update
  int64_t cells_without_rsd = 0;   // cells with absent error bars
  double worst_rsd = 0;         // max over cells with has_rsd (0 when none)
  double worst_half_width = 0;  // max CI half-width over estimating cells
  std::vector<GroupCell> top;   // worst cells, rank order

  bool empty() const { return cells_total == 0; }

  /// The `groups` JSON block shared by /statusz, /sessions/<id>, the
  /// convergence JSONL and the wide-event query log:
  /// {"cells_total": N, ..., "top": [{"key": ..., "rsd": ...}, ...]}.
  std::string ToJson() const;
};

/// Per-query tracker: feed it the cells of each update, read the bounded
/// summary back. Not thread-safe — one tracker per executor, called from
/// the query's own Step path (like AccuracySloTracker).
class GroupTelemetryTracker {
 public:
  explicit GroupTelemetryTracker(int top_k = 8);

  /// Consumes one update's cells: ranks the top-K worst (copying only
  /// those), computes churn against the previous Observe, and retains the
  /// key set for the next one. Returns the refreshed summary (also
  /// available via summary()).
  const GroupConvergenceSummary& Observe(const std::vector<GroupCell>& cells);

  const GroupConvergenceSummary& summary() const { return summary_; }
  int top_k() const { return top_k_; }

 private:
  int top_k_;
  GroupConvergenceSummary summary_;
  std::unordered_set<std::string> prev_keys_;
};

/// Worst-first cell order: absent RSD outranks any numeric RSD, numeric
/// RSDs descend, ties break on the wider CI then lexicographic key (stable
/// output for tests and diffs).
bool WorseCell(const GroupCell& a, const GroupCell& b);

}  // namespace obs
}  // namespace gola

#endif  // GOLA_OBS_GROUP_TELEMETRY_H_
