#include "exec/kernels/group_ids.h"

#include <unordered_map>

#include "common/logging.h"
#include "exec/kernels/key_hash.h"
#include "obs/trace.h"

namespace gola {
namespace kernels {

namespace {

inline uint64_t HashRow(const std::vector<KeyColView>& cols, uint32_t row) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const auto& c : cols) {
    uint64_t ch;
    if (c.IsNull(row)) {
      ch = kNullHash;
    } else {
      switch (c.type) {
        case TypeId::kBool: ch = c.bools[row] ? 2 : 1; break;
        case TypeId::kInt64: ch = SplitMix64(static_cast<uint64_t>(c.ints[row])); break;
        case TypeId::kFloat64: ch = HashFloat(c.floats[row]); break;
        case TypeId::kString: ch = HashString(c.strings[row]); break;
        default: ch = kNullHash; break;
      }
    }
    h = h * 0x100000001b3ULL ^ ch;
  }
  return h;
}

// Value::operator== semantics per column: NULL == NULL, -0.0 == 0.0 (IEEE
// == gives that for free), NaN != NaN (IEEE == gives that too).
inline bool RowsEqual(const std::vector<KeyColView>& cols, uint32_t a, uint32_t b) {
  for (const auto& c : cols) {
    bool an = c.IsNull(a), bn = c.IsNull(b);
    if (an || bn) {
      if (an != bn) return false;
      continue;
    }
    switch (c.type) {
      case TypeId::kBool:
        if ((c.bools[a] != 0) != (c.bools[b] != 0)) return false;
        break;
      case TypeId::kInt64:
        if (c.ints[a] != c.ints[b]) return false;
        break;
      case TypeId::kFloat64:
        if (!(c.floats[a] == c.floats[b])) return false;
        break;
      case TypeId::kString:
        if (c.strings[a] != c.strings[b]) return false;
        break;
      default:
        return false;
    }
  }
  return true;
}

size_t NextPow2(size_t x) {
  size_t p = 16;
  while (p < x) p <<= 1;
  return p;
}

// The boxed key of row `row`.
GroupKey GroupKeyAt(const std::vector<Column>& key_cols, uint32_t row) {
  GroupKey key;
  key.values.reserve(key_cols.size());
  for (const auto& c : key_cols) key.values.push_back(c.GetValue(row));
  return key;
}

// Boxed fallback: identical ids/first-occurrence order via an unordered_map
// keyed on GroupKey. Used for exotic column types and as the test oracle for
// the typed table.
void ComputeGeneric(const std::vector<Column>& key_cols, size_t n, GroupIds* out) {
  std::unordered_map<GroupKey, uint32_t, GroupKeyHash> map;
  map.reserve(n / 4 + 8);
  for (uint32_t row = 0; row < n; ++row) {
    GroupKey key = GroupKeyAt(key_cols, row);
    // NaN keys never compare equal to a resident entry (Value::== follows
    // IEEE), so like the typed path every NaN row founds a fresh group.
    auto it = map.find(key);
    uint32_t gid;
    if (it == map.end()) {
      gid = static_cast<uint32_t>(out->first_row.size());
      map.emplace(std::move(key), gid);
      out->first_row.push_back(row);
    } else {
      gid = it->second;
    }
    out->ids.push_back(gid);
  }
  out->num_groups = out->first_row.size();
}

}  // namespace

Status ComputeGroupIds(const std::vector<Column>& key_cols, size_t n,
                       bool force_generic, GroupIds* out) {
  obs::TraceSpan span("kernel_group_ids", "rows", static_cast<int64_t>(n));
  out->ids.clear();
  out->first_row.clear();
  out->num_groups = 0;
  out->group_offsets.clear();
  out->group_rows.clear();
  if (n == 0) return Status::OK();

  if (key_cols.empty()) {
    // Global aggregation: every row in group 0.
    out->ids.assign(n, 0);
    out->first_row.assign(1, 0);
    out->num_groups = 1;
    return Status::OK();
  }

  std::vector<KeyColView> views;
  views.reserve(key_cols.size());
  bool typed_ok = !force_generic;
  for (const auto& c : key_cols) {
    if (c.size() < n) return Status::Internal("group-id kernel: short key column");
    KeyColView v;
    typed_ok = MakeKeyColView(c, &v) && typed_ok;
    views.push_back(v);
  }
  if (!typed_ok) {
    out->ids.reserve(n);
    ComputeGeneric(key_cols, n, out);
    return Status::OK();
  }

  // Flat open-addressing table, linear probing. Sized for load factor <= 0.5
  // even if every row is its own group, so no resize path is needed.
  size_t capacity = NextPow2(2 * n);
  size_t mask = capacity - 1;
  // slot -> group id + 1; 0 = empty.
  std::vector<uint32_t> table(capacity, 0);
  std::vector<uint64_t> group_hash;

  out->ids.resize(n);
  for (uint32_t row = 0; row < n; ++row) {
    uint64_t h = HashRow(views, row);
    size_t idx = static_cast<size_t>(h) & mask;
    uint32_t gid;
    for (;;) {
      uint32_t slot = table[idx];
      if (slot == 0) {
        gid = static_cast<uint32_t>(out->first_row.size());
        table[idx] = gid + 1;
        out->first_row.push_back(row);
        group_hash.push_back(h);
        break;
      }
      uint32_t cand = slot - 1;
      if (group_hash[cand] == h && RowsEqual(views, row, out->first_row[cand])) {
        gid = cand;
        break;
      }
      idx = (idx + 1) & mask;
    }
    out->ids[row] = gid;
  }
  out->num_groups = out->first_row.size();
  return Status::OK();
}

void BuildGroupRows(GroupIds* g) {
  size_t n = g->ids.size();
  g->group_offsets.assign(g->num_groups + 1, 0);
  g->group_rows.resize(n);
  for (size_t i = 0; i < n; ++i) ++g->group_offsets[g->ids[i] + 1];
  for (size_t gi = 0; gi < g->num_groups; ++gi) {
    g->group_offsets[gi + 1] += g->group_offsets[gi];
  }
  std::vector<uint32_t> cursor(g->group_offsets.begin(), g->group_offsets.end() - 1);
  for (uint32_t i = 0; i < n; ++i) {
    g->group_rows[cursor[g->ids[i]]++] = i;
  }
}

}  // namespace kernels
}  // namespace gola
