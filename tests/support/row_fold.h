// The row-at-a-time fold: the oracle the chunk-at-a-time kernels are checked
// against. It folds one row at a time, in row order, into a hash map of
// per-group ReplicatedAgg states through their per-row Update*Weighted
// calls. With `weights == nullptr` it makes exactly the per-row AggState
// calls an exact aggregation over the same rows makes, so one oracle serves
// the GroupArena fold (FoldTileOf, MergeTile and AggOverlay) with
// replicates, as the online engine runs it, and without, as the exact
// engine and CDM run it.
//
// The engine never runs it: tests and bench_kernels link this target.
#ifndef GOLA_TESTS_SUPPORT_ROW_FOLD_H_
#define GOLA_TESTS_SUPPORT_ROW_FOLD_H_

#include <unordered_map>
#include <vector>

#include "exec/kernels/group_ids.h"
#include "expr/evaluator.h"
#include "plan/logical_plan.h"
#include "support/replicated_agg.h"

namespace gola {
namespace oracle {

/// One group's aggregate states, in block order, plus its raw row count.
struct GroupEntry {
  std::vector<ReplicatedAgg> aggs;
  int64_t rows = 0;
};
using GroupMap = std::unordered_map<GroupKey, GroupEntry, GroupKeyHash>;

/// Folds every row of `input` into `map`. A group missing from `map` is
/// cloned from `clone_source` when it is there (an overlay over a base),
/// else created fresh. `input` must carry serials when `weights` is set.
Status UpdateGroupMap(const BlockDef& block, const PoissonWeights* weights,
                      const Chunk& input, const BroadcastEnv* env, GroupMap* map,
                      const GroupMap* clone_source = nullptr);

/// Adds `partial`, folded over a disjoint morsel, into `map`: a group new to
/// `map` moves in as it is, and an existing one adds the row count and
/// merges each aggregate with ReplicatedAgg::Merge.
void MergeGroupMap(GroupMap&& partial, GroupMap* map);

}  // namespace oracle
}  // namespace gola

#endif  // GOLA_TESTS_SUPPORT_ROW_FOLD_H_
