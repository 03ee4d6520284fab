// Group-by hash aggregation for the batch engine. States are plain
// AggStates (no bootstrap replicates — the batch engine produces exact
// answers); partial instances built per partition merge associatively,
// which is how the partition-parallel driver scales out.
#ifndef GOLA_EXEC_HASH_AGGREGATE_H_
#define GOLA_EXEC_HASH_AGGREGATE_H_

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "expr/evaluator.h"
#include "plan/logical_plan.h"
#include "storage/chunk.h"

namespace gola {

/// A group key: the tuple of group-by values for one group.
struct GroupKey {
  std::vector<Value> values;

  bool operator==(const GroupKey& other) const { return values == other.values; }
  /// Lexicographic over Value's total ordering (NULL first) — gives group
  /// emission a canonical order independent of hash-map layout.
  bool operator<(const GroupKey& other) const {
    return std::lexicographical_compare(values.begin(), values.end(),
                                        other.values.begin(), other.values.end());
  }
};

struct GroupKeyHash {
  size_t operator()(const GroupKey& k) const {
    size_t h = 0x9e3779b97f4a7c15ULL;
    for (const auto& v : k.values) h = h * 1099511628211ULL ^ v.Hash();
    return h;
  }
};

class HashAggregate {
 public:
  /// `block` must outlive this object and must be an aggregate block.
  explicit HashAggregate(const BlockDef* block);

  /// Accumulates one (already filtered) input chunk, a chunk at a time:
  /// dense group ids via the flat group-by kernel, one map probe per
  /// (group, chunk), and slot-based accumulation for the SimpleAggKind
  /// states. `env` supplies broadcast values when aggregate arguments
  /// reference subqueries.
  Status Update(const Chunk& input, const BroadcastEnv* env);

  /// Merges a partial aggregation built over a disjoint partition.
  Status Merge(HashAggregate&& other);

  /// Produces the post-aggregation chunk: group columns followed by
  /// finalized aggregate slots, using the multiplicity scale for COUNT/SUM.
  /// Global aggregations (no GROUP BY) always emit exactly one row.
  Result<Chunk> Finalize(double scale) const;

  size_t num_groups() const { return groups_.size(); }

  using StateVec = std::vector<std::unique_ptr<AggState>>;
  using GroupStateMap = std::unordered_map<GroupKey, StateVec, GroupKeyHash>;
  /// Per-group states, one per aggregate in block order.
  const GroupStateMap& groups() const { return groups_; }

 private:
  StateVec NewStates() const;

  const BlockDef* block_;
  GroupStateMap groups_;
};

}  // namespace gola

#endif  // GOLA_EXEC_HASH_AGGREGATE_H_
