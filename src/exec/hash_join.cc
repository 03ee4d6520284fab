#include "exec/hash_join.h"

#include "expr/evaluator.h"

namespace gola {

Result<DimHashTable> DimHashTable::Build(const Table& dim, const Expr& build_key) {
  DimHashTable table;
  table.build_rows_ = dim.Combined();
  GOLA_ASSIGN_OR_RETURN(Column keys, Evaluate(build_key, table.build_rows_));
  std::vector<uint32_t> ids;
  table.index_.Insert(keys, nullptr, &ids);
  // Counting pass, then a scatter in row order: each key's rows ascend.
  table.key_offsets_.assign(table.index_.size() + 1, 0);
  for (uint32_t id : ids) {
    if (id != KeyIndex::kNone) ++table.key_offsets_[id + 1];
  }
  for (size_t k = 0; k < table.index_.size(); ++k) {
    table.key_offsets_[k + 1] += table.key_offsets_[k];
  }
  table.key_rows_.resize(table.key_offsets_.back());
  std::vector<uint32_t> cursor(table.key_offsets_.begin(), table.key_offsets_.end() - 1);
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] != KeyIndex::kNone) table.key_rows_[cursor[ids[i]]++] = static_cast<int64_t>(i);
  }
  return table;
}

Result<Chunk> DimHashTable::Probe(const Chunk& probe, const Expr& probe_key,
                                  const SchemaPtr& output_schema) const {
  GOLA_ASSIGN_OR_RETURN(Column keys, Evaluate(probe_key, probe));
  std::vector<uint32_t> ids;
  index_.Probe(keys, nullptr, &ids);
  std::vector<int64_t> probe_rows;
  std::vector<int64_t> build_rows;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == KeyIndex::kNone) continue;
    for (uint32_t r = key_offsets_[ids[i]]; r < key_offsets_[ids[i] + 1]; ++r) {
      probe_rows.push_back(static_cast<int64_t>(i));
      build_rows.push_back(key_rows_[r]);
    }
  }
  Chunk left = probe.Take(probe_rows);
  Chunk right = build_rows_.Take(build_rows);
  std::vector<Column> cols;
  cols.reserve(left.num_columns() + right.num_columns());
  for (size_t c = 0; c < left.num_columns(); ++c) cols.push_back(left.column(c));
  for (size_t c = 0; c < right.num_columns(); ++c) cols.push_back(right.column(c));
  Chunk out(output_schema, std::move(cols));
  if (left.has_serials()) {
    out.set_serials(left.serials());
  }
  return out;
}

}  // namespace gola
