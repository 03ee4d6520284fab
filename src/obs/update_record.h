// The per-update record: what one mini-batch of an online query reports —
// progress, accuracy, cost, the typed headline cell and the bounded
// per-group summary. Declared once and read by every consumer:
// OnlineUpdate derives from it, /statusz's QueryStatus carries it, and the
// convergence recorder serializes it.
#ifndef GOLA_OBS_UPDATE_RECORD_H_
#define GOLA_OBS_UPDATE_RECORD_H_

#include <cstdint>

#include "obs/group_telemetry.h"
#include "obs/query_stats.h"

namespace gola {
namespace obs {

struct UpdateRecord {
  int batch_index = 0;  // 1-based
  int total_batches = 0;
  double fraction_processed = 0;
  /// Worst relative standard deviation across the answer's cells. +inf
  /// while any cell has no RSD (an absent RSD ranks worst: unknown error
  /// must never read as converged); 0 for an answer with no cells.
  double max_rsd = 0;
  int64_t uncertain_tuples = 0;  // Σ |U_i| over all blocks
  int64_t uncertain_groups = 0;  // HAVING outcomes still undecided
  int recomputes_so_far = 0;     // range failures repaired so far
  /// Wall time of this whole Step, result materialization included.
  double batch_seconds = 0;
  /// Wall time since the executor was created (carried across a resume).
  /// The deadline ladder reads the same clock.
  double elapsed_seconds = 0;
  /// Per-phase cost breakdown and pipeline volume of this batch.
  QueryStats stats;
  /// The answer's first cell (first row, first aggregate-bearing column);
  /// has_estimate is false while the answer has none.
  GroupCell headline;
  /// Bounded per-group convergence summary (top-K worst cells by RSD,
  /// churn counts); empty when group_top_k is 0 or telemetry is disabled.
  GroupConvergenceSummary groups;
};

}  // namespace obs
}  // namespace gola

#endif  // GOLA_OBS_UPDATE_RECORD_H_
