// Structured per-batch cost breakdown attached to every OnlineUpdate — the
// numbers a §5-style dashboard plots next to the error bars, and the
// vocabulary the BENCH_*.json trajectories report in.
#ifndef GOLA_OBS_QUERY_STATS_H_
#define GOLA_OBS_QUERY_STATS_H_

#include <cstdint>

namespace gola {
namespace obs {

/// Where one mini-batch's wall time went, across all lineage blocks.
/// Phase seconds are disjoint; their sum is ≤ OnlineUpdate::batch_seconds
/// (the remainder is controller bookkeeping).
struct QueryStats {
  /// Envelope / decision-validity monitoring before the delta run (§3.2).
  double envelope_check_seconds = 0;
  /// Morsel-parallel delta pipeline: DimJoin → Filter → Classify → Fold.
  double delta_exec_seconds = 0;
  /// Finalization, bootstrap CI estimation, and broadcast/root emission:
  /// the sum of the four emit parts below.
  double emit_seconds = 0;
  /// Emit, part 1: folding the passing uncertain rows onto the overlay.
  double emit_overlay_seconds = 0;
  /// Emit, part 2: finalizing point values (and replicates, for scalar and
  /// membership blocks) of every group.
  double emit_finalize_seconds = 0;
  /// Emit, part 3: scalar broadcasts and membership answers.
  double emit_broadcast_seconds = 0;
  /// Emit, part 4: the root's selection, error bars and typed cells.
  double emit_root_seconds = 0;
  /// Query-wide recompute after a range failure (0 when none fired).
  double rebuild_seconds = 0;
  /// Building the OnlineUpdate the caller sees (result-table copy) — kept
  /// apart so overhead experiments don't misattribute reporting cost to
  /// delta maintenance.
  double materialize_seconds = 0;

  // Delta-pipeline volume for this batch (summed over blocks).
  int64_t morsels = 0;
  int64_t rows_in = 0;
  int64_t rows_folded = 0;
  int64_t rows_uncertain = 0;

  /// Cause of the range failure that forced this batch's recompute
  /// (string literal; nullptr when no failure fired).
  const char* failure_cause = nullptr;

  /// Sums another batch's seconds and volumes into this one (a running
  /// total over updates); failure_cause is left as it is.
  QueryStats& operator+=(const QueryStats& o) {
    envelope_check_seconds += o.envelope_check_seconds;
    delta_exec_seconds += o.delta_exec_seconds;
    emit_seconds += o.emit_seconds;
    emit_overlay_seconds += o.emit_overlay_seconds;
    emit_finalize_seconds += o.emit_finalize_seconds;
    emit_broadcast_seconds += o.emit_broadcast_seconds;
    emit_root_seconds += o.emit_root_seconds;
    rebuild_seconds += o.rebuild_seconds;
    materialize_seconds += o.materialize_seconds;
    morsels += o.morsels;
    rows_in += o.rows_in;
    rows_folded += o.rows_folded;
    rows_uncertain += o.rows_uncertain;
    return *this;
  }
};

}  // namespace obs
}  // namespace gola

#endif  // GOLA_OBS_QUERY_STATS_H_
