// Incremental group-by aggregation with poissonized bootstrap replicates —
// the per-block state of the online engine.
//
// OnlineAggregate holds the *deterministic-set* states: tuples folded here
// were classified deterministic and are never revisited (paper §3.2).
// AggOverlay is a copy-on-write view used at emission time each mini-batch:
// the block clones only the groups touched by currently-passing uncertain
// tuples, folds those tuples in, and finalizes — so the per-batch fold
// scales with the passing set, not with the number of groups.
#ifndef GOLA_GOLA_ONLINE_AGG_H_
#define GOLA_GOLA_ONLINE_AGG_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "bootstrap/replicated_agg.h"
#include "exec/hash_aggregate.h"
#include "exec/pipeline.h"
#include "expr/evaluator.h"
#include "plan/logical_plan.h"

namespace gola {

class BinaryReader;
class BinaryWriter;

/// One group's aggregate states plus its raw observation count. The count
/// gates deterministic classification: variation ranges estimated from a
/// handful of rows are too unstable to hang an envelope on (the bootstrap
/// needs moderate sample sizes to approximate the sampling distribution).
struct GroupEntry {
  std::vector<ReplicatedAgg> aggs;
  int64_t rows = 0;
};
using GroupStates = GroupEntry;
using GroupMap = std::unordered_map<GroupKey, GroupEntry, GroupKeyHash>;

/// Point estimates of one aggregation, row-aligned with the states behind
/// each row and (optionally) the rows' finalized bootstrap replicates.
struct PostAggChunk {
  Chunk point;  // [group columns..., main aggregate slots...]
  /// Raw observation count per emitted group row.
  std::vector<int64_t> support;
  /// The states behind each row, valid while the finalized overlay lives;
  /// nullptr for the synthetic row of a global aggregation over no rows.
  std::vector<const GroupStates*> states;
  /// Replicate outputs (Finalize with replicates): replicates[a] holds
  /// num_replicates values per row, row g's at [g * B, (g + 1) * B) — one
  /// flat buffer per aggregate. Undefined replicates are NaN.
  std::vector<std::vector<double>> replicates;
  size_t num_replicates = 0;
  /// The multiplicity scale the rows were finalized under.
  double scale = 1.0;
};

/// Main-state accumulators of one flat (COUNT/SUM/AVG) aggregate: the
/// fields its AggState::SimpleSlots expose.
struct FlatMain {
  double sum = 0;
  double count = 0;
  bool any = false;
};

/// One morsel's partial state from the kernel fold, laid out densely
/// over the morsel's local group ids (first-occurrence order). Flat
/// aggregates keep their main slots and B replicate sums/counts in flat
/// arrays; only the others keep a ReplicatedAgg per local group. No heap
/// node per group: the barrier adds tiles into the OnlineAggregate.
struct FoldTile {
  std::vector<GroupKey> keys;  // per local group
  std::vector<int64_t> rows;   // raw observations per local group
  std::vector<FlatMain> main;  // [group * num_flat + f]
  /// B values per (group, flat aggregate): [(group * num_flat + f) * B + j].
  std::vector<double> rep_sum;
  std::vector<double> rep_count;
  std::vector<ReplicatedAgg> generic;  // [group * num_generic + k]
};

class OnlineAggregate {
 public:
  OnlineAggregate(const BlockDef* block, const PoissonWeights* weights);

  /// Folds one morsel (must carry serials) into a fresh tile, a chunk at a
  /// time (thread-safe: reads only the block definition). `env` supplies
  /// point broadcast values for group/agg exprs.
  Status FoldTileOf(const Chunk& input, const BroadcastEnv* env, FoldTile* tile) const;

  /// Adds a tile built over a disjoint morsel into the deterministic states.
  /// Callers merge tiles in morsel order so the floating-point accumulation
  /// order — and hence every downstream result — is independent of which
  /// thread ran which morsel.
  void MergeTile(FoldTile&& tile);

  /// Clears all state (used by range-failure recompute).
  void Reset();

  const GroupMap& groups() const { return groups_; }
  const BlockDef* block() const { return block_; }
  const PoissonWeights* weights() const { return weights_; }
  size_t num_groups() const { return groups_.size(); }

  GroupStates NewStates() const;

  /// Checkpoint round-trip of the deterministic states. LoadFrom replaces
  /// the current contents; entries are validated against the block's
  /// aggregate list.
  Status SaveTo(BinaryWriter* w) const;
  Status LoadFrom(BinaryReader* r);

 private:
  friend class AggOverlay;
  const BlockDef* block_;
  const PoissonWeights* weights_;
  GroupMap groups_;
  /// Tile layout: flat_slot_[a] (or generic_slot_[a]) is aggregate a's index
  /// among the flat (or other) aggregates, -1 when it is of the other kind;
  /// flat_proto_[f] says which SimpleSlots fields the flat aggregate uses.
  std::vector<int> flat_slot_;
  std::vector<int> generic_slot_;
  std::vector<AggState::SimpleSlots> flat_proto_;
};

/// Copy-on-write overlay over an OnlineAggregate for per-batch emission.
class AggOverlay {
 public:
  explicit AggOverlay(const OnlineAggregate* base) : base_(base) {}

  /// Folds rows `rows` of `input` (the passing uncertain tuples; the chunk
  /// must carry serials). Touched base groups are cloned on first touch, on
  /// the calling thread; the kernel fold then folds each group's rows, in
  /// row order, with groups split into row-balanced pieces across ctx.pool.
  Status Update(const Chunk& input, const SelectionVector& rows, const ExecContext& ctx);

  /// Finalizes the merged view into a post-aggregation chunk, groups in key
  /// order. When `with_replicates` is set, every group's replicate outputs
  /// are finalized too (needed to evaluate value/having expressions per
  /// bootstrap world), split by key range across ctx.pool.
  Result<PostAggChunk> Finalize(double scale, bool with_replicates,
                                const ExecContext& ctx) const;

 private:
  const OnlineAggregate* base_;
  GroupMap delta_;
};

}  // namespace gola

#endif  // GOLA_GOLA_ONLINE_AGG_H_
