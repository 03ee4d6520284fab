#include "gola/online_agg.h"

#include <algorithm>

#include "common/logging.h"
#include "exec/kernels/agg_kernels.h"
#include "exec/kernels/group_ids.h"
#include "obs/trace.h"
#include "storage/serde.h"

namespace gola {

namespace {

// Group-key and aggregate-argument columns for one fold input; shared by the
// row-at-a-time and vectorized folds so both see identical values.
Status EvalFoldInputs(const BlockDef& block, const Chunk& input, const BroadcastEnv* env,
                      std::vector<Column>* key_cols, std::vector<Column>* arg_cols,
                      std::vector<bool>* has_arg) {
  key_cols->reserve(block.group_by.size());
  for (const auto& g : block.group_by) {
    GOLA_ASSIGN_OR_RETURN(Column c, Evaluate(*g, input, env));
    key_cols->push_back(std::move(c));
  }
  for (const auto& agg : block.aggs) {
    if (agg.call->children.empty()) {
      arg_cols->emplace_back(TypeId::kFloat64);
      has_arg->push_back(false);
    } else {
      GOLA_ASSIGN_OR_RETURN(Column c, Evaluate(*agg.call->children[0], input, env));
      arg_cols->push_back(std::move(c));
      has_arg->push_back(true);
    }
  }
  return Status::OK();
}

GroupEntry NewGroupEntry(const BlockDef& block, const PoissonWeights* weights) {
  GroupEntry entry;
  entry.aggs.reserve(block.aggs.size());
  for (const auto& agg : block.aggs) entry.aggs.emplace_back(agg.fn, weights);
  return entry;
}

// Copy-on-write find-or-create shared by both folds: probe `map`, else clone
// the group from `clone_source` if present there, else create fresh states.
GroupMap::iterator FindOrCreateGroup(GroupMap* map, const GroupMap* clone_source,
                                     const GroupKey& key, const BlockDef& block,
                                     const PoissonWeights* weights) {
  auto it = map->find(key);
  if (it != map->end()) return it;
  if (clone_source != nullptr) {
    auto src = clone_source->find(key);
    if (src != clone_source->end()) {
      GroupEntry cloned;
      cloned.rows = src->second.rows;
      cloned.aggs.reserve(src->second.aggs.size());
      for (const auto& s : src->second.aggs) cloned.aggs.push_back(s.Clone());
      return map->emplace(key, std::move(cloned)).first;
    }
  }
  return map->emplace(key, NewGroupEntry(block, weights)).first;
}

}  // namespace

Chunk PostAggChunk::ReplicateChunk(size_t j, size_t num_group_cols) const {
  std::vector<Column> cols;
  cols.reserve(point.num_columns());
  for (size_t c = 0; c < num_group_cols; ++c) cols.push_back(point.column(c));
  for (const auto& agg_col : replicate_cols[j]) cols.push_back(agg_col);
  // Replicate agg columns are float64; reuse the point schema only when the
  // agg slots are float64 there too (they are: all replicate-capable
  // aggregates finalize numerically). Build a parallel schema otherwise.
  SchemaPtr schema = point.schema();
  bool same = true;
  for (size_t a = 0; a < replicate_cols[j].size(); ++a) {
    if (schema->field(num_group_cols + a).type != replicate_cols[j][a].type()) {
      same = false;
      break;
    }
  }
  if (!same) {
    std::vector<Field> fields;
    for (size_t c = 0; c < num_group_cols; ++c) fields.push_back(schema->field(c));
    for (size_t a = 0; a < replicate_cols[j].size(); ++a) {
      fields.push_back({schema->field(num_group_cols + a).name,
                        replicate_cols[j][a].type()});
    }
    schema = std::make_shared<Schema>(fields);
  }
  return Chunk(schema, std::move(cols));
}

Status UpdateGroupMap(const BlockDef& block, const PoissonWeights* weights,
                      const Chunk& input, const BroadcastEnv* env, GroupMap* map,
                      const GroupMap* clone_source) {
  size_t n = input.num_rows();
  if (n == 0) return Status::OK();
  if (!input.has_serials()) {
    return Status::Internal("online aggregation requires row serials");
  }

  std::vector<Column> key_cols;
  std::vector<Column> arg_cols;
  std::vector<bool> has_arg;
  GOLA_RETURN_NOT_OK(EvalFoldInputs(block, input, env, &key_cols, &arg_cols, &has_arg));

  const auto& serials = input.serials();
  GroupKey key;
  key.values.resize(key_cols.size());
  std::vector<int32_t> row_weights;  // one replicate-weight vector per row
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < key_cols.size(); ++k) key.values[k] = key_cols[k].GetValue(i);
    auto it = FindOrCreateGroup(map, clone_source, key, block, weights);
    GroupEntry& entry = it->second;
    ++entry.rows;
    if (weights != nullptr) weights->WeightsFor(serials[i], &row_weights);
    for (size_t a = 0; a < entry.aggs.size(); ++a) {
      if (!has_arg[a]) {
        entry.aggs[a].UpdateValueWeighted(Value::Int(1), row_weights);  // COUNT(*)
        continue;
      }
      if (arg_cols[a].IsNull(i)) continue;
      if (IsNumeric(arg_cols[a].type()) || arg_cols[a].type() == TypeId::kBool) {
        entry.aggs[a].UpdateNumericWeighted(arg_cols[a].NumericAt(i), row_weights);
      } else {
        entry.aggs[a].UpdateValueWeighted(arg_cols[a].GetValue(i), row_weights);
      }
    }
  }
  return Status::OK();
}

Status UpdateGroupMapVectorized(const BlockDef& block, const PoissonWeights* weights,
                                const Chunk& input, const BroadcastEnv* env,
                                GroupMap* map, const GroupMap* clone_source) {
  size_t n = input.num_rows();
  if (n == 0) return Status::OK();
  if (!input.has_serials()) {
    return Status::Internal("online aggregation requires row serials");
  }
  obs::TraceSpan span("kernel_fold", "rows", static_cast<int64_t>(n));

  std::vector<Column> key_cols;
  std::vector<Column> arg_cols;
  std::vector<bool> has_arg;
  GOLA_RETURN_NOT_OK(EvalFoldInputs(block, input, env, &key_cols, &arg_cols, &has_arg));

  kernels::GroupIds gids;
  GOLA_RETURN_NOT_OK(kernels::ComputeGroupIds(key_cols, n, /*force_generic=*/false, &gids));
  kernels::BuildGroupRows(&gids);

  // Widen numeric argument columns once per chunk (same doubles the reference
  // path produces per row via NumericAt).
  std::vector<std::vector<double>> widened(arg_cols.size());
  std::vector<std::vector<uint8_t>> valid(arg_cols.size());
  std::vector<bool> numeric(arg_cols.size(), false);
  for (size_t a = 0; a < arg_cols.size(); ++a) {
    if (!has_arg[a]) continue;
    if (IsNumeric(arg_cols[a].type()) || arg_cols[a].type() == TypeId::kBool) {
      numeric[a] = true;
      GOLA_ASSIGN_OR_RETURN(
          widened[a],
          arg_cols[a].ToFloat64(arg_cols[a].has_nulls() ? &valid[a] : nullptr));
    }
  }

  // Poisson weights are generated per row TILE, not for the whole chunk: a
  // kRowTile x b matrix (<= ~100 KiB at B = 200) stays cache-resident across
  // the fused replicate sweep, where a chunk-wide matrix would stream from
  // memory. Tile row i equals WeightsFor(serial of the i-th selected row)
  // element-for-element.
  size_t b = weights != nullptr ? static_cast<size_t>(weights->num_replicates()) : 0;
  constexpr size_t kRowTile = 128;
  std::vector<int64_t> tile_serials;
  std::vector<int32_t> wtile;
  std::vector<int32_t> wcol_sums;  // per-tile weight column sums (int-exact)
  if (b > 0) {
    tile_serials.resize(kRowTile);
    wtile.resize(kRowTile * b);
    wcol_sums.resize(b);
  }
  const int64_t* serials = input.serials().data();

  std::vector<uint32_t> nn_rows;   // scratch: null-filtered row list (chunk row ids)
  std::vector<uint32_t> nn_wrows;  // parallel: their weight-tile row indices
  std::vector<kernels::ReplicateTarget> fused;  // unfiltered flat targets per tile
  std::vector<AggState::SimpleSlots> slots_vec;
  std::vector<uint8_t> flat_vec;
  for (size_t g = 0; g < gids.num_groups; ++g) {
    const uint32_t* rows = gids.group_rows.data() + gids.group_offsets[g];
    size_t cnt = gids.group_offsets[g + 1] - gids.group_offsets[g];
    GroupKey key = kernels::GroupKeyAt(key_cols, gids.first_row[g]);
    auto it = FindOrCreateGroup(map, clone_source, key, block, weights);
    GroupEntry& entry = it->second;
    entry.rows += static_cast<int64_t>(cnt);

    const size_t num_aggs = entry.aggs.size();
    slots_vec.assign(num_aggs, AggState::SimpleSlots{});
    flat_vec.assign(num_aggs, 0);
    for (size_t a = 0; a < num_aggs; ++a) {
      if (entry.aggs[a].has_flat_replicates()) {
        flat_vec[a] = 1;
        slots_vec[a] = entry.aggs[a].main_state()->simple_slots();
      }
    }

    for (size_t t0 = 0; t0 < cnt; t0 += kRowTile) {
      const size_t tn = std::min(cnt - t0, kRowTile);
      const uint32_t* trows = rows + t0;
      if (b > 0) {
        for (size_t i = 0; i < tn; ++i) tile_serials[i] = serials[trows[i]];
        weights->FillMatrix(tile_serials.data(), tn, wtile.data(),
                            wcol_sums.data());
      }
      auto weight_row = [&](size_t tile_i) -> const int32_t* {
        return b > 0 ? wtile.data() + tile_i * b : nullptr;
      };
      // Fast-path aggregates whose row set is the whole tile are collected
      // into one fused sweep over the weight tile; null-filtered ones sweep
      // individually with their own selection. Interleavings across
      // aggregates touch disjoint accumulators, so both stay bit-identical
      // to the reference's per-row order.
      fused.clear();
      for (size_t a = 0; a < num_aggs; ++a) {
        ReplicatedAgg& agg = entry.aggs[a];
        const bool flat = flat_vec[a] != 0;
        const AggState::SimpleSlots& slots = slots_vec[a];
        if (!has_arg[a]) {
          // COUNT(*): every row contributes v = 1.0.
          if (flat && slots.usable()) {
            kernels::AccumulateSimpleMain(slots, nullptr, 1.0, trows, tn);
            fused.push_back({nullptr, 1.0, agg.flat_sum_data(), agg.flat_count_data()});
          } else {
            for (size_t i = 0; i < tn; ++i) {
              agg.UpdateValueWeighted(Value::Int(1), weight_row(i), b);
            }
          }
          continue;
        }
        const Column& col = arg_cols[a];
        if (numeric[a]) {
          const uint32_t* sel = trows;
          const uint32_t* wsel = nullptr;  // identity: tile row i
          size_t sel_n = tn;
          if (!valid[a].empty()) {
            nn_rows.clear();
            nn_wrows.clear();
            for (size_t i = 0; i < tn; ++i) {
              if (valid[a][trows[i]]) {
                nn_rows.push_back(trows[i]);
                nn_wrows.push_back(static_cast<uint32_t>(i));
              }
            }
            sel = nn_rows.data();
            wsel = nn_wrows.data();
            sel_n = nn_rows.size();
          }
          if (flat && slots.usable()) {
            kernels::AccumulateSimpleMain(slots, widened[a].data(), 0.0, sel, sel_n);
            if (wsel == nullptr) {
              fused.push_back(
                  {widened[a].data(), 0.0, agg.flat_sum_data(), agg.flat_count_data()});
            } else {
              kernels::ReplicateTarget one{widened[a].data(), 0.0, agg.flat_sum_data(),
                                           agg.flat_count_data()};
              kernels::TiledReplicateUpdate(&one, 1, sel, wsel, sel_n, wtile.data(), b);
            }
          } else {
            for (size_t i = 0; i < sel_n; ++i) {
              size_t tile_i = wsel != nullptr ? wsel[i] : i;
              agg.UpdateNumericWeighted(widened[a][sel[i]], weight_row(tile_i), b);
            }
          }
        } else if (flat) {
          // Simple aggregate over a string argument: every non-null value
          // fails to widen, so the fold is a no-op (matches the reference).
        } else {
          for (size_t i = 0; i < tn; ++i) {
            uint32_t r = trows[i];
            if (col.IsNull(r)) continue;
            agg.UpdateValueWeighted(col.GetValue(r), weight_row(i), b);
          }
        }
      }
      if (!fused.empty() && b > 0) {
        kernels::TiledReplicateUpdate(fused.data(), fused.size(), trows,
                                      /*wrows=*/nullptr, tn, wtile.data(), b,
                                      wcol_sums.data());
      }
    }
  }
  return Status::OK();
}

OnlineAggregate::OnlineAggregate(const BlockDef* block, const PoissonWeights* weights)
    : block_(block), weights_(weights) {
  GOLA_CHECK(block_->is_aggregate);
}

Status OnlineAggregate::Update(const Chunk& input, const BroadcastEnv* env,
                               bool vectorized) {
  if (vectorized) {
    return UpdateGroupMapVectorized(*block_, weights_, input, env, &groups_, nullptr);
  }
  return UpdateGroupMap(*block_, weights_, input, env, &groups_, nullptr);
}

void OnlineAggregate::MergePartial(GroupMap&& partial) {
  if (groups_.empty()) {
    groups_ = std::move(partial);
    return;
  }
  while (!partial.empty()) {
    auto node = partial.extract(partial.begin());
    auto it = groups_.find(node.key());
    if (it == groups_.end()) {
      groups_.insert(std::move(node));
      continue;
    }
    GroupEntry& dst = it->second;
    GroupEntry& src = node.mapped();
    dst.rows += src.rows;
    for (size_t a = 0; a < dst.aggs.size(); ++a) dst.aggs[a].Merge(src.aggs[a]);
  }
}

void OnlineAggregate::Reset() { groups_.clear(); }

Status OnlineAggregate::SaveTo(BinaryWriter* w) const {
  w->U64(groups_.size());
  for (const auto& [key, entry] : groups_) {
    w->U32(static_cast<uint32_t>(key.values.size()));
    for (const Value& v : key.values) WriteValue(w, v);
    w->I64(entry.rows);
    w->U32(static_cast<uint32_t>(entry.aggs.size()));
    for (const ReplicatedAgg& agg : entry.aggs) {
      GOLA_RETURN_NOT_OK(agg.SaveTo(w));
    }
  }
  return Status::OK();
}

Status OnlineAggregate::LoadFrom(BinaryReader* r) {
  groups_.clear();
  GOLA_ASSIGN_OR_RETURN(uint64_t n, r->U64());
  for (uint64_t g = 0; g < n; ++g) {
    GOLA_ASSIGN_OR_RETURN(uint32_t key_size, r->U32());
    if (key_size != block_->group_by.size()) {
      return Status::IoError("checkpointed group key arity mismatch");
    }
    GroupKey key;
    key.values.reserve(key_size);
    for (uint32_t k = 0; k < key_size; ++k) {
      GOLA_ASSIGN_OR_RETURN(Value v, ReadValue(r));
      key.values.push_back(std::move(v));
    }
    GroupEntry entry = NewStates();
    GOLA_ASSIGN_OR_RETURN(entry.rows, r->I64());
    GOLA_ASSIGN_OR_RETURN(uint32_t num_aggs, r->U32());
    if (num_aggs != entry.aggs.size()) {
      return Status::IoError("checkpointed aggregate count mismatch");
    }
    for (ReplicatedAgg& agg : entry.aggs) {
      GOLA_RETURN_NOT_OK(agg.LoadFrom(r));
    }
    groups_.emplace(std::move(key), std::move(entry));
  }
  return Status::OK();
}

const GroupStates* OnlineAggregate::Find(const GroupKey& key) const {
  auto it = groups_.find(key);
  return it == groups_.end() ? nullptr : &it->second;
}

GroupStates OnlineAggregate::NewStates() const {
  GroupEntry entry;
  entry.aggs.reserve(block_->aggs.size());
  for (const auto& agg : block_->aggs) entry.aggs.emplace_back(agg.fn, weights_);
  return entry;
}

Status AggOverlay::Update(const Chunk& input, const BroadcastEnv* env,
                          bool vectorized) {
  if (vectorized) {
    return UpdateGroupMapVectorized(*base_->block_, base_->weights_, input, env,
                                    &delta_, &base_->groups_);
  }
  return UpdateGroupMap(*base_->block_, base_->weights_, input, env, &delta_,
                        &base_->groups_);
}

const GroupStates* AggOverlay::Find(const GroupKey& key) const {
  auto it = delta_.find(key);
  if (it != delta_.end()) return &it->second;
  return base_->Find(key);
}

Result<PostAggChunk> AggOverlay::Finalize(double scale, bool with_replicates) const {
  const BlockDef& block = *base_->block_;
  size_t num_keys = block.group_by.size();
  size_t num_aggs = block.aggs.size();
  int num_reps = with_replicates && base_->weights_ ? base_->weights_->num_replicates() : 0;

  PostAggChunk out;
  std::vector<Column> cols;
  cols.reserve(num_keys + num_aggs);
  for (size_t c = 0; c < num_keys + num_aggs; ++c) {
    cols.emplace_back(block.post_agg_schema->field(c).type);
  }
  out.replicate_cols.resize(static_cast<size_t>(num_reps));
  for (auto& rep : out.replicate_cols) {
    rep.reserve(num_aggs);
    for (size_t a = 0; a < num_aggs; ++a) rep.emplace_back(TypeId::kFloat64);
  }

  auto emit = [&](const GroupKey& key, const GroupStates& states) {
    for (size_t k = 0; k < num_keys; ++k) cols[k].Append(key.values[k]);
    out.support.push_back(states.rows);
    for (size_t a = 0; a < num_aggs; ++a) {
      double s = block.aggs[a].fn->ScalesWithMultiplicity() ? scale : 1.0;
      cols[num_keys + a].Append(states.aggs[a].Finalize(s));
      if (num_reps > 0) {
        std::vector<double> reps = states.aggs[a].FinalizeReplicates(s);
        for (int j = 0; j < num_reps; ++j) {
          if (j < static_cast<int>(reps.size())) {
            out.replicate_cols[static_cast<size_t>(j)][a].AppendFloat(
                reps[static_cast<size_t>(j)]);
          } else {
            out.replicate_cols[static_cast<size_t>(j)][a].AppendNull();
          }
        }
      }
    }
  };

  // Emit groups in sorted key order, not hash-map order: the map's layout
  // depends on its insertion history (morsel merges, rebuilds, checkpoint
  // reloads), and emission order feeds downstream classification caches and
  // user-visible intermediate results. Sorting makes every one of those
  // paths produce bit-identical output regardless of how the map was built.
  std::vector<std::pair<const GroupKey*, const GroupStates*>> ordered;
  ordered.reserve(base_->groups_.size() + delta_.size());
  for (const auto& [key, states] : base_->groups_) {
    auto it = delta_.find(key);
    ordered.emplace_back(&key, it != delta_.end() ? &it->second : &states);
  }
  for (const auto& [key, states] : delta_) {
    if (base_->groups_.count(key)) continue;  // already covered via base pass
    ordered.emplace_back(&key, &states);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  bool any = !ordered.empty();
  for (const auto& [key, states] : ordered) emit(*key, *states);
  if (!any && num_keys == 0) {
    // Global aggregation over an empty prefix still yields one row.
    GroupKey empty;
    GroupStates states = base_->NewStates();
    emit(empty, states);
  }
  out.point = Chunk(block.post_agg_schema, std::move(cols));
  return out;
}

}  // namespace gola
