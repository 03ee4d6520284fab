// Incremental group-by aggregation with poissonized bootstrap replicates —
// the per-block state of the online engine.
//
// OnlineAggregate holds the *deterministic-set* states: tuples folded here
// were classified deterministic and are never revisited (paper §3.2).
// AggOverlay is a copy-on-write view used at emission time each mini-batch:
// the block clones only the groups touched by currently-passing uncertain
// tuples, folds those tuples in, and finalizes — so per-batch emission cost
// scales with |U_i|, not with the number of groups.
#ifndef GOLA_GOLA_ONLINE_AGG_H_
#define GOLA_GOLA_ONLINE_AGG_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "bootstrap/replicated_agg.h"
#include "exec/hash_aggregate.h"
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

/// Point estimates plus (optionally) per-replicate aggregate columns of one
/// aggregation, aligned row-by-row.
struct PostAggChunk {
  Chunk point;  // [group columns..., main aggregate slots...]
  /// replicate_cols[j][a] = replicate j's finalized column for agg slot a.
  std::vector<std::vector<Column>> replicate_cols;
  /// Raw observation count per emitted group row.
  std::vector<int64_t> support;

  /// Chunk for replicate j: group columns + replicate agg columns.
  Chunk ReplicateChunk(size_t j, size_t num_group_cols) const;
};

class OnlineAggregate {
 public:
  OnlineAggregate(const BlockDef* block, const PoissonWeights* weights);

  /// Folds an input chunk (must carry serials) into the deterministic
  /// states. `env` supplies point broadcast values for group/agg exprs.
  /// `vectorized` selects the chunk-at-a-time kernel fold; results are
  /// bit-identical either way (the row path is the reference oracle).
  Status Update(const Chunk& input, const BroadcastEnv* env, bool vectorized = true);

  /// Merges a partial GroupMap built over a disjoint morsel into the
  /// deterministic states. Callers merge partials in morsel order so the
  /// floating-point accumulation order — and hence every downstream result —
  /// is independent of which thread ran which morsel.
  void MergePartial(GroupMap&& partial);

  /// Clears all state (used by range-failure recompute).
  void Reset();

  const GroupMap& groups() const { return groups_; }
  const BlockDef* block() const { return block_; }
  const PoissonWeights* weights() const { return weights_; }
  size_t num_groups() const { return groups_.size(); }

  /// Finds the states for a key tuple (nullptr when absent).
  const GroupStates* Find(const GroupKey& key) const;

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
};

/// Copy-on-write overlay over an OnlineAggregate for per-batch emission.
class AggOverlay {
 public:
  explicit AggOverlay(const OnlineAggregate* base) : base_(base) {}

  /// Folds currently-passing uncertain tuples (chunk must carry serials);
  /// touched base groups are cloned on first touch.
  Status Update(const Chunk& input, const BroadcastEnv* env, bool vectorized = true);

  /// Group states as visible through the overlay.
  const GroupStates* Find(const GroupKey& key) const;

  /// Finalizes the merged view into a post-aggregation chunk. When
  /// `with_replicates` is set, per-replicate aggregate columns are emitted
  /// too (needed to evaluate value/having expressions per bootstrap world).
  Result<PostAggChunk> Finalize(double scale, bool with_replicates) const;

  size_t delta_size() const { return delta_.size(); }

 private:
  const OnlineAggregate* base_;
  GroupMap delta_;
};

/// Shared row-at-a-time fold used by both classes — the bit-identity
/// reference for the vectorized kernel fold below.
Status UpdateGroupMap(const BlockDef& block, const PoissonWeights* weights,
                      const Chunk& input, const BroadcastEnv* env, GroupMap* map,
                      const GroupMap* clone_source);

/// Chunk-at-a-time kernel fold: dense group ids, one map probe per (group,
/// chunk), a whole-chunk Poisson weight matrix, and tiled flat-replicate
/// sweeps for the SimpleAggKind states. Bit-identical to UpdateGroupMap.
Status UpdateGroupMapVectorized(const BlockDef& block, const PoissonWeights* weights,
                                const Chunk& input, const BroadcastEnv* env,
                                GroupMap* map, const GroupMap* clone_source);

}  // namespace gola

#endif  // GOLA_GOLA_ONLINE_AGG_H_
