// Zone-map-pruned scan of a streamed (segment-backed) table for the batch
// executor. Whole chunks whose per-column min/max metadata proves that no
// row can satisfy a scan predicate are skipped before any payload byte is
// touched or decoded. Pruning is at chunk granularity only: morsels never
// span chunks and an aggregation merges empty partials as a no-op, so
// dropping a zero-contribution chunk leaves every downstream result —
// including floating-point merge order — bit-identical to the unpruned run.
#ifndef GOLA_EXEC_SEGMENT_SCAN_H_
#define GOLA_EXEC_SEGMENT_SCAN_H_

#include <vector>

#include "common/status.h"
#include "expr/expr.h"
#include "storage/table.h"

namespace gola {

struct SegmentScanResult {
  /// Decoded chunks in source order (pruned ones absent), each carrying its
  /// encoded sidecar for downstream encoded-execution fast paths.
  std::vector<Chunk> chunks;
  size_t chunks_pruned = 0;
};

/// Decodes `columns` (ascending table indices, a block's scan columns) of
/// every chunk of `table` (which must be streamed) that the zone maps
/// cannot rule out under the conjunction of `preds`. The predicates
/// address the block's input layout, whose first positions hold
/// `columns`. Only top-level `column <op> literal` conjuncts over the
/// streamed table's own columns participate in pruning; every other
/// predicate shape is simply ignored here (the filter stage re-applies the
/// full predicate set to the decoded rows, so pruning is an optimization,
/// never a correctness dependency).
Result<SegmentScanResult> ScanStreamedTable(const Table& table,
                                            const std::vector<ExprPtr>& preds,
                                            const std::vector<int>& columns);

}  // namespace gola

#endif  // GOLA_EXEC_SEGMENT_SCAN_H_
