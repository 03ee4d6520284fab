// The online engine's per-batch view of a block's aggregate state.
//
// The deterministic set lives in a GroupAggregate (exec/group_arena.h):
// tuples folded there were classified deterministic and are never revisited
// (paper §3.2). Each batch, an AggOverlay copies in only the groups touched
// by currently passing uncertain tuples, folds those tuples and finalizes
// the merged view, so the per-batch fold scales with the passing set, not
// with the number of groups.
#ifndef GOLA_GOLA_ONLINE_AGG_H_
#define GOLA_GOLA_ONLINE_AGG_H_

#include <cstdint>
#include <vector>

#include "exec/group_arena.h"
#include "exec/pipeline.h"
#include "storage/chunk.h"

namespace gola {

class AggOverlay;

/// Point estimates of one aggregation, row-aligned with the states behind
/// each row and (optionally) the rows' finalized bootstrap replicates.
struct PostAggChunk {
  Chunk point;  // [group columns..., main aggregate slots...]
  /// Raw observation count per emitted group row.
  std::vector<int64_t> support;
  /// The overlay the rows were finalized from, and each row's id in its
  /// merged view (AggOverlay::Resolve); kNoRow for the synthetic row of a
  /// global aggregation over no rows. Valid while the overlay lives.
  const AggOverlay* states = nullptr;
  std::vector<uint32_t> ids;
  static constexpr uint32_t kNoRow = GroupArena::kNone;
  /// Replicate outputs (Finalize with replicates): replicates[a] holds
  /// num_replicates values per row, row g's at [g * B, (g + 1) * B) — one
  /// flat buffer per aggregate. Undefined replicates are NaN.
  std::vector<std::vector<double>> replicates;
  size_t num_replicates = 0;
  /// The multiplicity scale the rows were finalized under.
  double scale = 1.0;
};

/// Copy-on-write overlay over a GroupAggregate for per-batch emission:
/// its own arena holds the touched groups, each starting as an exact copy
/// of its base row (or at zero when new), and the base is never written.
class AggOverlay {
 public:
  explicit AggOverlay(const GroupAggregate* base)
      : base_(base), delta_(&base->layout()) {}

  /// Folds rows `rows` of `input` (the passing uncertain tuples; the chunk
  /// must carry serials). Touched groups are looked up or copied in on the
  /// calling thread; the kernel fold then folds each group's rows, in row
  /// order, with groups split into row-balanced pieces across ctx.pool.
  Status Update(const Chunk& input, const SelectionVector& rows, const ExecContext& ctx);

  /// Finalizes the merged view into a post-aggregation chunk, groups in key
  /// order (FinalizeGroups, the exact engine's emission too). When
  /// `with_replicates` is set, every group's replicate outputs are finalized
  /// too (needed to evaluate value/having expressions per bootstrap world),
  /// split by key range across ctx.pool.
  Result<PostAggChunk> Finalize(double scale, bool with_replicates,
                                const ExecContext& ctx) const;

  /// The arena and id behind row `row` of the merged view: base ids come
  /// first, overlay ids follow at base size + overlay id.
  const GroupArena& Resolve(uint32_t row, uint32_t* id) const;

 private:
  const GroupAggregate* base_;
  GroupArena delta_;
  std::vector<uint32_t> base_id_;  // per overlay id: its base id, or kNone
};

}  // namespace gola

#endif  // GOLA_GOLA_ONLINE_AGG_H_
