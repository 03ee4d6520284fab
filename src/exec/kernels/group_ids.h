// Chunk-at-a-time group-id computation — the front half of every vectorized
// aggregation. Instead of boxing each row's key values and probing an
// unordered_map per tuple, the key columns are hashed once per morsel
// through a flat open-addressing table into dense uint32 group ids.
// Downstream kernels then address flat SoA accumulator arrays by id and only
// touch the GroupArena's key dictionary once per (group, morsel).
//
// Equality is Value::operator== elementwise, so the grouping is exactly what
// the row-at-a-time maps produce: NULLs form a single group per key column,
// -0.0 and 0.0 coincide, and each NaN row founds its own group (NaN != NaN,
// matching the reference map's behavior of never finding a NaN key).
#ifndef GOLA_EXEC_KERNELS_GROUP_IDS_H_
#define GOLA_EXEC_KERNELS_GROUP_IDS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "storage/column.h"

namespace gola {

/// A boxed group key: the tuple of group-by values for one group. The
/// generic group-id path and the tests' row-at-a-time oracle key their maps
/// on it.
struct GroupKey {
  std::vector<Value> values;

  bool operator==(const GroupKey& other) const { return values == other.values; }
  /// Lexicographic over Value's total ordering (NULL first), the key order
  /// aggregate emission uses.
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

namespace kernels {

struct GroupIds {
  /// Per input row: dense group id, assigned in first-occurrence order —
  /// the same insertion order the row-at-a-time maps see.
  std::vector<uint32_t> ids;
  /// Per group: the first row bearing the group's key (canonical key source).
  std::vector<uint32_t> first_row;
  size_t num_groups = 0;

  /// CSR view of rows per group (BuildGroupRows): rows of group g are
  /// group_rows[group_offsets[g] .. group_offsets[g + 1]), ascending.
  std::vector<uint32_t> group_offsets;
  std::vector<uint32_t> group_rows;
};

/// Computes dense group ids over rows [0, n) of the key columns. Zero key
/// columns put every row in group 0 (global aggregation). Typed
/// bool/i64/f64/string paths hash raw column storage — no Value boxing;
/// `force_generic` (tests/benches) or an unrecognized column type falls back
/// to boxed GroupKeys in an unordered_map with identical results.
Status ComputeGroupIds(const std::vector<Column>& key_cols, size_t n,
                       bool force_generic, GroupIds* out);

/// Fills the CSR (group_offsets/group_rows) from ids — one counting pass and
/// one scatter pass, both in row order, so per-group row lists stay sorted.
void BuildGroupRows(GroupIds* g);

}  // namespace kernels
}  // namespace gola

#endif  // GOLA_EXEC_KERNELS_GROUP_IDS_H_
