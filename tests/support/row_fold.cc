#include "support/row_fold.h"

#include <optional>

namespace gola {
namespace oracle {

namespace {

GroupEntry& FindOrCreateGroup(const BlockDef& block, const PoissonWeights* weights,
                              const GroupKey& key, const GroupMap* clone_source,
                              GroupMap* map) {
  auto it = map->find(key);
  if (it != map->end()) return it->second;
  const GroupEntry* src = nullptr;
  if (clone_source != nullptr) {
    auto found = clone_source->find(key);
    if (found != clone_source->end()) src = &found->second;
  }
  GroupEntry entry;
  if (src != nullptr) {
    entry.rows = src->rows;
    for (const auto& s : src->aggs) entry.aggs.push_back(s.Clone());
  } else {
    for (const auto& agg : block.aggs) entry.aggs.emplace_back(agg.fn, weights);
  }
  return map->emplace(key, std::move(entry)).first->second;
}

}  // namespace

Status UpdateGroupMap(const BlockDef& block, const PoissonWeights* weights,
                      const Chunk& input, const BroadcastEnv* env, GroupMap* map,
                      const GroupMap* clone_source) {
  const size_t n = input.num_rows();
  if (n == 0) return Status::OK();
  if (weights != nullptr && !input.has_serials()) {
    return Status::Internal("the replicate fold requires row serials");
  }
  std::vector<Column> key_cols;
  for (const auto& g : block.group_by) {
    GOLA_ASSIGN_OR_RETURN(Column c, Evaluate(*g, input, env));
    key_cols.push_back(std::move(c));
  }
  // Argument column per aggregate; nullopt for COUNT(*).
  std::vector<std::optional<Column>> arg_cols;
  for (const auto& agg : block.aggs) {
    if (agg.call->children.empty()) {
      arg_cols.emplace_back();
      continue;
    }
    GOLA_ASSIGN_OR_RETURN(Column c, Evaluate(*agg.call->children[0], input, env));
    arg_cols.emplace_back(std::move(c));
  }

  GroupKey key;
  key.values.resize(key_cols.size());
  std::vector<int32_t> row_weights;  // one replicate-weight vector per row
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < key_cols.size(); ++k) key.values[k] = key_cols[k].GetValue(i);
    GroupEntry& entry = FindOrCreateGroup(block, weights, key, clone_source, map);
    ++entry.rows;
    if (weights != nullptr) weights->WeightsFor(input.serials()[i], &row_weights);
    for (size_t a = 0; a < entry.aggs.size(); ++a) {
      if (!arg_cols[a].has_value()) {
        entry.aggs[a].UpdateValueWeighted(Value::Int(1), row_weights);  // COUNT(*)
        continue;
      }
      const Column& arg = *arg_cols[a];
      if (arg.IsNull(i)) continue;  // SQL aggregates skip NULLs
      if (IsNumeric(arg.type()) || arg.type() == TypeId::kBool) {
        entry.aggs[a].UpdateNumericWeighted(arg.NumericAt(i), row_weights);
      } else {
        entry.aggs[a].UpdateValueWeighted(arg.GetValue(i), row_weights);
      }
    }
  }
  return Status::OK();
}

void MergeGroupMap(GroupMap&& partial, GroupMap* map) {
  while (!partial.empty()) {
    auto node = partial.extract(partial.begin());
    auto it = map->find(node.key());
    if (it == map->end()) {
      map->insert(std::move(node));
      continue;
    }
    GroupEntry& dst = it->second;
    const GroupEntry& src = node.mapped();
    dst.rows += src.rows;
    for (size_t a = 0; a < dst.aggs.size(); ++a) dst.aggs[a].Merge(src.aggs[a]);
  }
}

}  // namespace oracle
}  // namespace gola
