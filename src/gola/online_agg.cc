#include "gola/online_agg.h"

#include <algorithm>

#include "common/logging.h"
#include "exec/kernels/agg_kernels.h"
#include "exec/kernels/group_ids.h"
#include "obs/trace.h"
#include "storage/serde.h"

namespace gola {

namespace {

// Group-key and aggregate-argument columns for one fold input. With a
// selection, only the selected rows' key and argument columns are built: a
// bare column is gathered straight from the input, anything else is
// evaluated (row by row, so per-row values are unchanged) and then gathered.
Status EvalFoldInputs(const BlockDef& block, const Chunk& input,
                      const SelectionVector* sel, const BroadcastEnv* env,
                      std::vector<Column>* key_cols, std::vector<Column>* arg_cols,
                      std::vector<bool>* has_arg) {
  auto eval = [&](const Expr& e) -> Result<Column> {
    if (sel == nullptr) return Evaluate(e, input, env);
    if (e.kind == ExprKind::kColumnRef && !e.from_outer_scope && e.column_index >= 0 &&
        static_cast<size_t>(e.column_index) < input.num_columns()) {
      return input.column(static_cast<size_t>(e.column_index))
          .Gather(sel->data(), sel->size());
    }
    GOLA_ASSIGN_OR_RETURN(Column all, Evaluate(e, input, env));
    return all.Gather(sel->data(), sel->size());
  };
  key_cols->reserve(block.group_by.size());
  for (const auto& g : block.group_by) {
    GOLA_ASSIGN_OR_RETURN(Column c, eval(*g));
    key_cols->push_back(std::move(c));
  }
  for (const auto& agg : block.aggs) {
    if (agg.call->children.empty()) {
      arg_cols->emplace_back(TypeId::kFloat64);
      has_arg->push_back(false);
    } else {
      GOLA_ASSIGN_OR_RETURN(Column c, eval(*agg.call->children[0]));
      arg_cols->push_back(std::move(c));
      has_arg->push_back(true);
    }
  }
  return Status::OK();
}

// Fold inputs of one chunk (or of its selected rows), computed once and
// read by every group's fold: key and argument columns, dense group ids with
// per-group row lists, numeric arguments widened to double, and serials.
struct FoldBatch {
  std::vector<Column> key_cols;
  std::vector<Column> arg_cols;
  std::vector<bool> has_arg;
  std::vector<std::vector<double>> widened;
  std::vector<bool> numeric;
  std::vector<int64_t> gathered_serials;
  const int64_t* serials = nullptr;
  kernels::GroupIds gids;

  size_t group_rows(size_t g) const {
    return gids.group_offsets[g + 1] - gids.group_offsets[g];
  }
  const uint32_t* rows_of(size_t g) const {
    return gids.group_rows.data() + gids.group_offsets[g];
  }
};

Status PrepareFoldBatch(const BlockDef& block, const Chunk& input,
                        const SelectionVector* sel, const BroadcastEnv* env,
                        FoldBatch* in) {
  if (!input.has_serials()) {
    return Status::Internal("online aggregation requires row serials");
  }
  const size_t n = sel != nullptr ? sel->size() : input.num_rows();
  GOLA_RETURN_NOT_OK(
      EvalFoldInputs(block, input, sel, env, &in->key_cols, &in->arg_cols, &in->has_arg));
  if (sel != nullptr) {
    in->gathered_serials.resize(n);
    for (size_t i = 0; i < n; ++i) in->gathered_serials[i] = input.serials()[(*sel)[i]];
    in->serials = in->gathered_serials.data();
  } else {
    in->serials = input.serials().data();
  }
  GOLA_RETURN_NOT_OK(
      kernels::ComputeGroupIds(in->key_cols, n, /*force_generic=*/false, &in->gids));
  kernels::BuildGroupRows(&in->gids);

  // Widen numeric argument columns once per chunk (the same doubles a
  // per-row NumericAt gives).
  const size_t num_args = in->arg_cols.size();
  in->widened.resize(num_args);
  in->numeric.assign(num_args, false);
  for (size_t a = 0; a < num_args; ++a) {
    if (!in->has_arg[a]) continue;
    const Column& col = in->arg_cols[a];
    if (IsNumeric(col.type()) || col.type() == TypeId::kBool) {
      in->numeric[a] = true;
      GOLA_ASSIGN_OR_RETURN(in->widened[a], col.ToFloat64(nullptr));
    }
  }
  return Status::OK();
}

// Where one (group, aggregate) fold lands. Flat aggregates whose main state
// exposes usable slots accumulate through `slots` and the B-length replicate
// arrays; everything else goes row by row through `agg`.
struct FoldTarget {
  bool flat = false;  // the aggregate keeps flat replicates
  SimpleAggKind kind = SimpleAggKind::kNone;
  AggState::SimpleSlots slots;
  double* rep_sum = nullptr;
  double* rep_count = nullptr;
  ReplicatedAgg* agg = nullptr;
};

FoldTarget TargetOf(ReplicatedAgg* agg) {
  FoldTarget t;
  t.agg = agg;
  if (agg->has_flat_replicates()) {
    t.flat = true;
    t.kind = agg->function()->simple_kind();
    t.slots = agg->main_state()->simple_slots();
    t.rep_sum = agg->flat_sum_data();
    t.rep_count = agg->flat_count_data();
  }
  return t;
}

// Per-thread scratch of the group fold.
struct FoldScratch {
  std::vector<int64_t> tile_serials;
  std::vector<int32_t> wtile;
  std::vector<int32_t> wcol_sums;  // per-tile weight column sums (int-exact)
  std::vector<uint32_t> nn_rows;   // null-filtered row list (chunk row ids)
  std::vector<uint32_t> nn_wrows;  // parallel: their weight-tile row indices
  std::vector<kernels::ReplicateTarget> fused;  // unfiltered flat targets per tile
};

// Poisson weights are generated per row TILE, not for the whole chunk: a
// kRowTile x b matrix (<= ~100 KiB at B = 200) stays cache-resident across
// the fused replicate sweep, where a chunk-wide matrix would stream from
// memory. Tile row i equals WeightsFor(serial of the i-th selected row)
// element-for-element.
constexpr size_t kRowTile = 128;

// Folds one group's rows (ascending) into its targets, one per aggregate.
// Touches only the group's own states, so distinct groups fold concurrently.
void FoldGroup(const FoldBatch& in, const PoissonWeights* weights, size_t g,
               FoldTarget* targets, FoldScratch* scratch) {
  const size_t b =
      weights != nullptr ? static_cast<size_t>(weights->num_replicates()) : 0;
  if (b > 0 && scratch->wtile.size() != kRowTile * b) {
    scratch->tile_serials.resize(kRowTile);
    scratch->wtile.resize(kRowTile * b);
    scratch->wcol_sums.resize(b);
  }
  const uint32_t* rows = in.rows_of(g);
  const size_t cnt = in.group_rows(g);
  const size_t num_aggs = in.arg_cols.size();
  int32_t* wtile = scratch->wtile.data();
  for (size_t t0 = 0; t0 < cnt; t0 += kRowTile) {
    const size_t tn = std::min(cnt - t0, kRowTile);
    const uint32_t* trows = rows + t0;
    if (b > 0) {
      for (size_t i = 0; i < tn; ++i) scratch->tile_serials[i] = in.serials[trows[i]];
      weights->FillMatrix(scratch->tile_serials.data(), tn, wtile,
                          scratch->wcol_sums.data());
    }
    auto weight_row = [&](size_t tile_i) -> const int32_t* {
      return b > 0 ? wtile + tile_i * b : nullptr;
    };
    // Fast-path aggregates whose row set is the whole tile are collected
    // into one fused sweep over the weight tile; null-filtered ones sweep
    // individually with their own selection. Interleavings across
    // aggregates touch disjoint accumulators, so both keep each
    // accumulator's per-row add order.
    std::vector<kernels::ReplicateTarget>& fused = scratch->fused;
    fused.clear();
    for (size_t a = 0; a < num_aggs; ++a) {
      const FoldTarget& t = targets[a];
      const bool fast = t.flat && t.slots.usable();
      if (!in.has_arg[a]) {
        // COUNT(*): every row contributes v = 1.0.
        if (fast) {
          kernels::AccumulateSimpleMain(t.slots, nullptr, 1.0, trows, tn);
          fused.push_back({nullptr, 1.0, t.rep_sum, t.rep_count});
        } else {
          for (size_t i = 0; i < tn; ++i) {
            t.agg->UpdateValueWeighted(Value::Int(1), weight_row(i), b);
          }
        }
        continue;
      }
      const Column& col = in.arg_cols[a];
      if (!in.numeric[a] && !t.flat) {
        for (size_t i = 0; i < tn; ++i) {
          uint32_t r = trows[i];
          if (col.IsNull(r)) continue;
          t.agg->UpdateValueWeighted(col.GetValue(r), weight_row(i), b);
        }
        continue;
      }
      // A string argument does not widen: COUNT counts each non-null value
      // as 1.0, as COUNT(*) counts a row, and SUM/AVG skip it.
      if (!in.numeric[a] && t.kind != SimpleAggKind::kCount) continue;
      const double* values = in.numeric[a] ? in.widened[a].data() : nullptr;
      const uint32_t* sel = trows;
      const uint32_t* wsel = nullptr;  // identity: tile row i
      size_t sel_n = tn;
      if (col.has_nulls()) {
        scratch->nn_rows.clear();
        scratch->nn_wrows.clear();
        for (size_t i = 0; i < tn; ++i) {
          if (!col.IsNull(trows[i])) {
            scratch->nn_rows.push_back(trows[i]);
            scratch->nn_wrows.push_back(static_cast<uint32_t>(i));
          }
        }
        sel = scratch->nn_rows.data();
        wsel = scratch->nn_wrows.data();
        sel_n = scratch->nn_rows.size();
      }
      if (fast) {
        kernels::AccumulateSimpleMain(t.slots, values, 1.0, sel, sel_n);
        if (wsel == nullptr) {
          fused.push_back({values, 1.0, t.rep_sum, t.rep_count});
        } else {
          kernels::ReplicateTarget one{values, 1.0, t.rep_sum, t.rep_count};
          kernels::TiledReplicateUpdate(&one, 1, sel, wsel, sel_n, wtile, b);
        }
      } else {
        for (size_t i = 0; i < sel_n; ++i) {
          size_t tile_i = wsel != nullptr ? wsel[i] : i;
          t.agg->UpdateNumericWeighted(values != nullptr ? values[sel[i]] : 1.0,
                                       weight_row(tile_i), b);
        }
      }
    }
    if (!fused.empty() && b > 0) {
      kernels::TiledReplicateUpdate(fused.data(), fused.size(), trows,
                                    /*wrows=*/nullptr, tn, wtile, b,
                                    scratch->wcol_sums.data());
    }
  }
}

}  // namespace

OnlineAggregate::OnlineAggregate(const BlockDef* block, const PoissonWeights* weights)
    : block_(block), weights_(weights) {
  GOLA_CHECK(block_->is_aggregate);
  int flat = 0;
  int generic = 0;
  for (const auto& agg : block_->aggs) {
    std::unique_ptr<AggState> proto = agg.fn->CreateState();
    AggState::SimpleSlots slots = proto->simple_slots();
    if (agg.fn->simple_kind() != SimpleAggKind::kNone && slots.usable()) {
      flat_slot_.push_back(flat++);
      generic_slot_.push_back(-1);
      flat_proto_.push_back(slots);
    } else {
      flat_slot_.push_back(-1);
      generic_slot_.push_back(generic++);
    }
  }
}

Status OnlineAggregate::FoldTileOf(const Chunk& input, const BroadcastEnv* env,
                                   FoldTile* tile) const {
  *tile = FoldTile();
  if (input.num_rows() == 0) return Status::OK();
  obs::TraceSpan span("kernel_fold", "rows", static_cast<int64_t>(input.num_rows()));
  FoldBatch in;
  GOLA_RETURN_NOT_OK(PrepareFoldBatch(*block_, input, nullptr, env, &in));
  const size_t num_groups = in.gids.num_groups;
  const size_t num_aggs = block_->aggs.size();
  const size_t num_flat = flat_proto_.size();
  const size_t num_generic = num_aggs - num_flat;
  const size_t b =
      weights_ != nullptr ? static_cast<size_t>(weights_->num_replicates()) : 0;
  tile->keys.reserve(num_groups);
  tile->rows.resize(num_groups);
  tile->main.assign(num_groups * num_flat, FlatMain{});
  tile->rep_sum.assign(num_groups * num_flat * b, 0.0);
  tile->rep_count.assign(num_groups * num_flat * b, 0.0);
  tile->generic.reserve(num_groups * num_generic);
  std::vector<FoldTarget> targets(num_aggs);
  FoldScratch scratch;
  for (size_t g = 0; g < num_groups; ++g) {
    tile->keys.push_back(kernels::GroupKeyAt(in.key_cols, in.gids.first_row[g]));
    tile->rows[g] = static_cast<int64_t>(in.group_rows(g));
    for (size_t a = 0; a < num_aggs; ++a) {
      FoldTarget& t = targets[a];
      if (flat_slot_[a] < 0) {
        tile->generic.emplace_back(block_->aggs[a].fn, weights_);
        t = TargetOf(&tile->generic.back());
        continue;
      }
      const size_t f = g * num_flat + static_cast<size_t>(flat_slot_[a]);
      const AggState::SimpleSlots& proto =
          flat_proto_[static_cast<size_t>(flat_slot_[a])];
      FlatMain& m = tile->main[f];
      t = FoldTarget();
      t.flat = true;
      t.kind = block_->aggs[a].fn->simple_kind();
      t.slots = {proto.sum != nullptr ? &m.sum : nullptr,
                 proto.count != nullptr ? &m.count : nullptr,
                 proto.any != nullptr ? &m.any : nullptr};
      t.rep_sum = tile->rep_sum.data() + f * b;
      t.rep_count = tile->rep_count.data() + f * b;
    }
    FoldGroup(in, weights_, g, targets.data(), &scratch);
  }
  return Status::OK();
}

void OnlineAggregate::MergeTile(FoldTile&& tile) {
  const size_t num_aggs = block_->aggs.size();
  const size_t num_flat = flat_proto_.size();
  const size_t num_generic = num_aggs - num_flat;
  const size_t b =
      weights_ != nullptr ? static_cast<size_t>(weights_->num_replicates()) : 0;
  for (size_t g = 0; g < tile.keys.size(); ++g) {
    auto it = groups_.find(tile.keys[g]);
    const bool fresh = it == groups_.end();
    if (fresh) it = groups_.emplace(std::move(tile.keys[g]), NewStates()).first;
    GroupEntry& dst = it->second;
    dst.rows += tile.rows[g];
    for (size_t a = 0; a < num_aggs; ++a) {
      ReplicatedAgg& agg = dst.aggs[a];
      if (flat_slot_[a] < 0) {
        ReplicatedAgg& src = tile.generic[g * num_generic +
                                         static_cast<size_t>(generic_slot_[a])];
        if (fresh) agg = std::move(src);
        else agg.Merge(src);
        continue;
      }
      // ReplicatedAgg::Merge on the flat fields: the main state's Merge
      // (sum +=, count +=, any ||=) and elementwise replicate adds. A fresh
      // group takes the tile's values as they are, as a moved partial did.
      const size_t f = g * num_flat + static_cast<size_t>(flat_slot_[a]);
      const FlatMain& m = tile.main[f];
      const AggState::SimpleSlots slots = agg.main_state()->simple_slots();
      const double* rs = tile.rep_sum.data() + f * b;
      const double* rc = tile.rep_count.data() + f * b;
      double* ds = agg.flat_sum_data();
      double* dc = agg.flat_count_data();
      if (fresh) {
        if (slots.sum != nullptr) *slots.sum = m.sum;
        if (slots.count != nullptr) *slots.count = m.count;
        if (slots.any != nullptr) *slots.any = m.any;
        std::copy(rs, rs + b, ds);
        std::copy(rc, rc + b, dc);
        continue;
      }
      if (slots.sum != nullptr) *slots.sum += m.sum;
      if (slots.count != nullptr) *slots.count += m.count;
      if (slots.any != nullptr) *slots.any = *slots.any || m.any;
      for (size_t j = 0; j < b; ++j) {
        ds[j] += rs[j];
        dc[j] += rc[j];
      }
    }
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

GroupStates OnlineAggregate::NewStates() const {
  GroupEntry entry;
  entry.aggs.reserve(block_->aggs.size());
  for (const auto& agg : block_->aggs) entry.aggs.emplace_back(agg.fn, weights_);
  return entry;
}

Status AggOverlay::Update(const Chunk& input, const SelectionVector& rows,
                          const ExecContext& ctx) {
  if (rows.empty()) return Status::OK();
  const BlockDef& block = *base_->block_;
  FoldBatch in;
  GOLA_RETURN_NOT_OK(PrepareFoldBatch(block, input, &rows, ctx.env, &in));
  // Every touched group is found, cloned from the base or created on the
  // calling thread, in first-occurrence order; then groups fold in
  // row-balanced pieces, on ctx.pool when there are several.
  const size_t num_groups = in.gids.num_groups;
  const size_t num_aggs = block.aggs.size();
  std::vector<FoldTarget> targets(num_groups * num_aggs);
  for (size_t g = 0; g < num_groups; ++g) {
    GroupKey key = kernels::GroupKeyAt(in.key_cols, in.gids.first_row[g]);
    auto it = delta_.find(key);
    if (it == delta_.end()) {
      auto src = base_->groups_.find(key);
      GroupEntry entry;
      if (src == base_->groups_.end()) {
        entry = base_->NewStates();
      } else {
        entry.rows = src->second.rows;
        entry.aggs.reserve(num_aggs);
        for (const auto& s : src->second.aggs) entry.aggs.push_back(s.Clone());
      }
      it = delta_.emplace(std::move(key), std::move(entry)).first;
    }
    GroupEntry& entry = it->second;
    entry.rows += static_cast<int64_t>(in.group_rows(g));
    for (size_t a = 0; a < num_aggs; ++a) {
      targets[g * num_aggs + a] = TargetOf(&entry.aggs[a]);
    }
  }
  std::vector<PieceRange> pieces =
      PlanPieces(num_groups, [&](size_t g) { return in.group_rows(g); }, ctx);
  return RunPieces(ctx, pieces.size(), [&](size_t p) -> Status {
    obs::TraceSpan span("kernel_fold", "groups",
                        static_cast<int64_t>(pieces[p].end - pieces[p].begin));
    FoldScratch scratch;
    for (size_t g = pieces[p].begin; g < pieces[p].end; ++g) {
      FoldGroup(in, base_->weights_, g, &targets[g * num_aggs], &scratch);
    }
    return Status::OK();
  });
}

Result<PostAggChunk> AggOverlay::Finalize(double scale, bool with_replicates,
                                          const ExecContext& ctx) const {
  const BlockDef& block = *base_->block_;
  size_t num_keys = block.group_by.size();
  size_t num_aggs = block.aggs.size();
  const size_t b = with_replicates && base_->weights_
                       ? static_cast<size_t>(base_->weights_->num_replicates())
                       : 0;

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
            [](const auto& x, const auto& y) { return *x.first < *y.first; });
  // Global aggregation over an empty prefix still yields one row, finalized
  // from fresh states but backed by none.
  const GroupKey empty_key;
  const GroupStates empty_states = base_->NewStates();
  const bool synthetic = ordered.empty() && num_keys == 0;
  if (synthetic) ordered.emplace_back(&empty_key, &empty_states);
  const size_t rows = ordered.size();

  PostAggChunk out;
  out.scale = scale;
  std::vector<Column> cols;
  cols.reserve(num_keys + num_aggs);
  for (size_t c = 0; c < num_keys + num_aggs; ++c) {
    cols.emplace_back(block.post_agg_schema->field(c).type);
    cols.back().Reserve(rows);
  }
  std::vector<double> agg_scale(num_aggs);
  for (size_t a = 0; a < num_aggs; ++a) {
    agg_scale[a] = block.aggs[a].fn->ScalesWithMultiplicity() ? scale : 1.0;
  }
  out.support.reserve(rows);
  out.states.reserve(rows);
  for (const auto& [key, states] : ordered) {
    for (size_t k = 0; k < num_keys; ++k) cols[k].Append(key->values[k]);
    out.support.push_back(states->rows);
    out.states.push_back(synthetic ? nullptr : states);
    for (size_t a = 0; a < num_aggs; ++a) {
      cols[num_keys + a].Append(states->aggs[a].Finalize(agg_scale[a]));
    }
  }
  out.point = Chunk(block.post_agg_schema, std::move(cols));

  out.num_replicates = b;
  if (b > 0) {
    out.replicates.assign(num_aggs, std::vector<double>(rows * b));
    // Each group weighs its b replicate rows under the morsel policy.
    std::vector<PieceRange> pieces = PlanPieces(rows, [b](size_t) { return b; }, ctx);
    GOLA_RETURN_NOT_OK(RunPieces(ctx, pieces.size(), [&](size_t p) -> Status {
      for (size_t g = pieces[p].begin; g < pieces[p].end; ++g) {
        const GroupStates& states = *ordered[g].second;
        for (size_t a = 0; a < num_aggs; ++a) {
          GOLA_CHECK(states.aggs[a].num_replicates() == b);
          states.aggs[a].FinalizeReplicatesInto(agg_scale[a],
                                                out.replicates[a].data() + g * b);
        }
      }
      return Status::OK();
    }));
  }
  return out;
}

}  // namespace gola
