#include "gola/online_agg.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>

#include "common/logging.h"
#include "common/random.h"
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

// Where one (group, aggregate) fold lands in an arena row. Flat aggregates
// accumulate through `slots` and the B-length replicate rows; generic ones go
// row by row through their main state and B replicate states.
struct FoldTarget {
  bool flat = false;
  SimpleAggKind kind = SimpleAggKind::kNone;
  AggState::SimpleSlots slots;
  double* rep_sum = nullptr;
  double* rep_count = nullptr;
  std::unique_ptr<AggState>* states = nullptr;  // generic: main, then B replicates
};

// The fold targets of row `id`, one per aggregate in block order.
void TargetsOf(GroupArena* arena, uint32_t id, FoldTarget* out) {
  const ArenaLayout& layout = *arena->layout();
  for (size_t a = 0; a < layout.flat_slot.size(); ++a) {
    FoldTarget& t = out[a];
    t = FoldTarget();
    if (layout.flat_slot[a] < 0) {
      t.states = arena->generic_states(id, static_cast<size_t>(layout.generic_slot[a]));
      continue;
    }
    const size_t f = static_cast<size_t>(layout.flat_slot[a]);
    const ArenaLayout::Flat& fields = layout.flat[f];
    FlatMain& m = arena->flat_main(id, f);
    t.flat = true;
    t.kind = fields.kind;
    t.slots = {fields.sum ? &m.sum : nullptr, fields.count ? &m.count : nullptr,
               fields.any ? &m.any : nullptr};
    t.rep_sum = arena->rep_sums(id, f);
    t.rep_count = arena->rep_counts(id, f);
  }
}

// The key values of fold-batch group g (read at its first row).
void KeyOf(const FoldBatch& in, size_t g, std::vector<Value>* key) {
  for (size_t k = 0; k < key->size(); ++k) {
    (*key)[k] = in.key_cols[k].GetValue(in.gids.first_row[g]);
  }
}

// Per-thread scratch of the group fold.
struct FoldScratch {
  std::vector<uint32_t> nn_rows;  // null-filtered row list (chunk row ids)
  std::vector<kernels::ReplicateTarget> reps;
};

// Folds one group's rows (ascending) into its targets, one per aggregate:
// the main states here, every replicate in one FoldReplicates call. Touches
// only the group's own states, so distinct groups fold concurrently.
void FoldGroup(const FoldBatch& in, const PoissonWeights* weights, size_t g,
               const FoldTarget* targets, FoldScratch* scratch) {
  const uint32_t* rows = in.rows_of(g);
  const size_t cnt = in.group_rows(g);
  scratch->reps.clear();
  for (size_t a = 0; a < in.arg_cols.size(); ++a) {
    const FoldTarget& t = targets[a];
    kernels::ReplicateTarget rep;
    rep.sums = t.rep_sum;
    rep.counts = t.rep_count;
    rep.states = t.flat ? nullptr : t.states + 1;
    if (!in.has_arg[a]) {
      // COUNT(*): every row contributes v = 1.0.
      if (t.flat) {
        kernels::AccumulateSimpleMain(t.slots, nullptr, 1.0, rows, cnt);
      } else {
        for (size_t i = 0; i < cnt; ++i) t.states[0]->UpdateValue(Value::Int(1), 1.0);
      }
      scratch->reps.push_back(rep);
      continue;
    }
    const Column& col = in.arg_cols[a];
    if (col.has_nulls()) rep.nulls = col.nulls().data();
    if (in.numeric[a]) {
      rep.values = in.widened[a].data();
    } else if (!t.flat) {
      rep.column = &col;
    } else if (t.kind != SimpleAggKind::kCount) {
      // A string argument does not widen: COUNT counts each non-null value
      // as 1.0, as COUNT(*) counts a row, and SUM/AVG skip it.
      continue;
    }
    const uint32_t* sel = rows;
    size_t sel_n = cnt;
    if (rep.nulls != nullptr) {
      scratch->nn_rows.clear();
      for (size_t i = 0; i < cnt; ++i) {
        if (rep.nulls[rows[i]] == 0) scratch->nn_rows.push_back(rows[i]);
      }
      sel = scratch->nn_rows.data();
      sel_n = scratch->nn_rows.size();
    }
    if (t.flat) {
      kernels::AccumulateSimpleMain(t.slots, rep.values, 1.0, sel, sel_n);
    } else if (rep.values != nullptr) {
      for (size_t i = 0; i < sel_n; ++i) t.states[0]->UpdateNumeric(rep.values[sel[i]], 1.0);
    } else {
      for (size_t i = 0; i < sel_n; ++i) t.states[0]->UpdateValue(col.GetValue(sel[i]), 1.0);
    }
    scratch->reps.push_back(rep);
  }
  if (weights != nullptr) {
    kernels::FoldReplicates(*weights, in.serials, rows, cnt, scratch->reps.data(),
                            scratch->reps.size());
  }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Status SaveAggState(BinaryWriter* w, const AggState& state) {
  std::vector<Value> vals;
  GOLA_RETURN_NOT_OK(state.SaveState(&vals));
  w->U32(static_cast<uint32_t>(vals.size()));
  for (const Value& v : vals) WriteValue(w, v);
  return Status::OK();
}

Status LoadAggState(BinaryReader* r, AggState* state) {
  GOLA_ASSIGN_OR_RETURN(uint32_t n, r->U32());
  if (n > (1u << 24)) return Status::IoError("aggregate state field count implausible");
  std::vector<Value> vals;
  vals.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    GOLA_ASSIGN_OR_RETURN(Value v, ReadValue(r));
    vals.push_back(std::move(v));
  }
  return state->LoadState(vals);
}

// What a dump's reader must agree on: key arity, B, and which aggregates
// are flat (f) or generic (g).
std::string LayoutTag(const ArenaLayout& layout) {
  std::string tag = std::to_string(layout.num_keys) + "/" + std::to_string(layout.b) + "/";
  for (int slot : layout.flat_slot) tag += slot < 0 ? 'g' : 'f';
  return tag;
}

}  // namespace

uint64_t GroupKeyValuesHash(const Value* key, size_t n) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t k = 0; k < n; ++k) h = h * 1099511628211ULL ^ key[k].Hash();
  return SplitMix64(h);  // the dictionary masks the low bits
}

// ---------------------------------------------------------- ArenaLayout --

ArenaLayout::ArenaLayout(const BlockDef* block_def, const PoissonWeights* w)
    : block(block_def),
      weights(w),
      num_keys(block_def->group_by.size()),
      b(w != nullptr ? static_cast<size_t>(w->num_replicates()) : 0) {
  int num_flat = 0;
  int num_generic = 0;
  for (const auto& agg : block->aggs) {
    std::unique_ptr<AggState> proto = agg.fn->CreateState();
    const AggState::SimpleSlots slots = proto->simple_slots();
    if (agg.fn->simple_kind() != SimpleAggKind::kNone && slots.usable()) {
      flat_slot.push_back(num_flat++);
      generic_slot.push_back(-1);
      flat.push_back({agg.fn->simple_kind(), slots.sum != nullptr, slots.count != nullptr,
                      slots.any != nullptr});
    } else {
      flat_slot.push_back(-1);
      generic_slot.push_back(num_generic++);
    }
  }
}

// ----------------------------------------------------------- GroupArena --

void GroupArena::Place(uint32_t id) {
  const size_t mask = slots_.size() - 1;
  size_t s = hashes_[id] & mask;
  while (slots_[s] != 0) s = (s + 1) & mask;
  slots_[s] = id + 1;
}

void GroupArena::Rehash(size_t min_slots) {
  size_t cap = std::max<size_t>(16, slots_.size());
  while (cap < min_slots) cap *= 2;
  slots_.assign(cap, 0);
  for (uint32_t id = 0; id < size(); ++id) Place(id);
}

uint32_t GroupArena::Find(const Value* key, uint64_t hash) const {
  if (slots_.empty()) return kNone;
  const size_t mask = slots_.size() - 1;
  for (size_t s = hash & mask;; s = (s + 1) & mask) {
    const uint32_t slot = slots_[s];
    if (slot == 0) return kNone;
    const uint32_t id = slot - 1;
    if (hashes_[id] == hash && std::equal(key, key + layout_->num_keys, this->key(id))) {
      return id;
    }
  }
}

uint32_t GroupArena::AppendKey(const Value* key, uint64_t hash, int64_t rows) {
  const auto id = static_cast<uint32_t>(size());
  GOLA_CHECK(id != kNone);
  key_values_.insert(key_values_.end(), key, key + layout_->num_keys);
  hashes_.push_back(hash);
  rows_.push_back(rows);
  // At most half full: grow (reinserting every id) before placing.
  if (slots_.size() < 2 * size()) {
    Rehash(2 * size());
  } else {
    Place(id);
  }
  return id;
}

uint32_t GroupArena::Add(const Value* key, uint64_t hash) {
  const uint32_t id = AppendKey(key, hash, 0);
  const size_t nf = layout_->num_flat();
  main_.resize(main_.size() + nf);
  rep_sum_.resize(rep_sum_.size() + nf * layout_->b, 0.0);
  rep_count_.resize(rep_count_.size() + nf * layout_->b, 0.0);
  for (size_t a = 0; a < layout_->generic_slot.size(); ++a) {
    if (layout_->generic_slot[a] < 0) continue;
    for (size_t j = 0; j <= layout_->b; ++j) {
      generic_.push_back(layout_->block->aggs[a].fn->CreateState());
    }
  }
  return id;
}

uint32_t GroupArena::AddCopy(const GroupArena& src, uint32_t sid) {
  const uint32_t id = AppendKey(src.key(sid), src.hashes_[sid], src.rows_[sid]);
  const size_t nf = layout_->num_flat();
  const size_t nr = nf * layout_->b;
  const auto main = src.main_.begin() + static_cast<std::ptrdiff_t>(sid * nf);
  main_.insert(main_.end(), main, main + static_cast<std::ptrdiff_t>(nf));
  const double* sums = src.rep_sum_.data() + sid * nr;
  const double* counts = src.rep_count_.data() + sid * nr;
  rep_sum_.insert(rep_sum_.end(), sums, sums + nr);
  rep_count_.insert(rep_count_.end(), counts, counts + nr);
  const size_t ng = layout_->num_generic() * (layout_->b + 1);
  for (size_t i = 0; i < ng; ++i) generic_.push_back(src.generic_[sid * ng + i]->Clone());
  return id;
}

void GroupArena::MergeRow(uint32_t id, const GroupArena& src, uint32_t sid) {
  rows_[id] += src.rows_[sid];
  // The main states' Merge on the flat fields (sum +=, count +=, any ||=;
  // a field the state does not use stays 0) and elementwise replicate adds.
  const size_t nf = layout_->num_flat();
  for (size_t f = 0; f < nf; ++f) {
    FlatMain& d = main_[id * nf + f];
    const FlatMain& s = src.main_[sid * nf + f];
    d.sum += s.sum;
    d.count += s.count;
    d.any = d.any || s.any;
  }
  const size_t nr = nf * layout_->b;
  double* ds = rep_sum_.data() + id * nr;
  double* dc = rep_count_.data() + id * nr;
  const double* ss = src.rep_sum_.data() + sid * nr;
  const double* sc = src.rep_count_.data() + sid * nr;
  for (size_t j = 0; j < nr; ++j) {
    ds[j] += ss[j];
    dc[j] += sc[j];
  }
  const size_t ng = layout_->num_generic() * (layout_->b + 1);
  for (size_t i = 0; i < ng; ++i) {
    generic_[id * ng + i]->Merge(*src.generic_[sid * ng + i]);
  }
}

void GroupArena::Reserve(size_t n) {
  const size_t nf = layout_->num_flat();
  key_values_.reserve(n * layout_->num_keys);
  hashes_.reserve(n);
  rows_.reserve(n);
  main_.reserve(n * nf);
  rep_sum_.reserve(n * nf * layout_->b);
  rep_count_.reserve(n * nf * layout_->b);
  generic_.reserve(n * layout_->num_generic() * (layout_->b + 1));
  if (slots_.size() < 2 * n) Rehash(2 * n);
}

Value GroupArena::Finalize(uint32_t id, size_t a, double scale) const {
  if (layout_->flat_slot[a] < 0) {
    return generic_states(id, static_cast<size_t>(layout_->generic_slot[a]))[0]->Finalize(
        scale);
  }
  // What the COUNT/SUM/AVG states' Finalize makes of the same slots.
  const size_t f = static_cast<size_t>(layout_->flat_slot[a]);
  const FlatMain& m = flat_main(id, f);
  switch (layout_->flat[f].kind) {
    case SimpleAggKind::kCount:
      return Value::Float(m.count * scale);
    case SimpleAggKind::kSum:
      return m.any ? Value::Float(m.sum * scale) : Value::Null();
    case SimpleAggKind::kAvg:
      return m.count > 0 ? Value::Float(m.sum / m.count) : Value::Null();
    case SimpleAggKind::kNone:
      break;
  }
  return Value::Null();
}

void GroupArena::FinalizeReplicatesInto(uint32_t id, size_t a, double scale,
                                        double* out) const {
  const size_t b = layout_->b;
  if (layout_->flat_slot[a] < 0) {
    const std::unique_ptr<AggState>* reps =
        generic_states(id, static_cast<size_t>(layout_->generic_slot[a])) + 1;
    for (size_t j = 0; j < b; ++j) {
      Value v = reps[j]->Finalize(scale);
      double d = kNaN;
      if (!v.is_null()) {
        auto converted = v.ToDouble();
        if (converted.ok()) d = *converted;
      }
      out[j] = d;
    }
    return;
  }
  const size_t f = static_cast<size_t>(layout_->flat_slot[a]);
  const SimpleAggKind kind = layout_->flat[f].kind;
  const double* sums = rep_sums(id, f);
  const double* counts = rep_counts(id, f);
  for (size_t j = 0; j < b; ++j) {
    double v = kNaN;
    switch (kind) {
      case SimpleAggKind::kCount:
        v = counts[j] * scale;
        break;
      case SimpleAggKind::kSum:
        if (counts[j] > 0) v = sums[j] * scale;
        break;
      case SimpleAggKind::kAvg:
        if (counts[j] > 0) v = sums[j] / counts[j];
        break;
      case SimpleAggKind::kNone:
        break;
    }
    out[j] = v;
  }
}

Status GroupArena::SaveTo(BinaryWriter* w) const {
  w->Str(LayoutTag(*layout_));
  w->U64(size());
  for (const Value& v : key_values_) WriteValue(w, v);
  w->Raw(rows_.data(), rows_.size() * sizeof(int64_t));
  for (const FlatMain& m : main_) {
    w->F64(m.sum);
    w->F64(m.count);
    w->U8(m.any ? 1 : 0);
  }
  w->Raw(rep_sum_.data(), rep_sum_.size() * sizeof(double));
  w->Raw(rep_count_.data(), rep_count_.size() * sizeof(double));
  for (const auto& state : generic_) GOLA_RETURN_NOT_OK(SaveAggState(w, *state));
  return Status::OK();
}

Status GroupArena::LoadFrom(BinaryReader* r) {
  Clear();
  GOLA_ASSIGN_OR_RETURN(std::string tag, r->Str());
  if (tag != LayoutTag(*layout_)) {
    return Status::IoError("checkpointed aggregate layout mismatch");
  }
  GOLA_ASSIGN_OR_RETURN(uint64_t n, r->U64());
  // Groups are added as their keys are read, so a corrupt count runs out of
  // input first; a global aggregation has at most one group.
  const size_t num_keys = layout_->num_keys;
  if (n >= kNone || (num_keys == 0 && n > 1)) {
    return Status::IoError("checkpointed group count implausible");
  }
  std::vector<Value> key(num_keys);
  for (uint64_t id = 0; id < n; ++id) {
    for (Value& v : key) {
      GOLA_ASSIGN_OR_RETURN(v, ReadValue(r));
    }
    Add(key.data(), GroupKeyValuesHash(key.data(), num_keys));
  }
  GOLA_RETURN_NOT_OK(r->Raw(rows_.data(), rows_.size() * sizeof(int64_t)));
  for (FlatMain& m : main_) {
    GOLA_ASSIGN_OR_RETURN(m.sum, r->F64());
    GOLA_ASSIGN_OR_RETURN(m.count, r->F64());
    GOLA_ASSIGN_OR_RETURN(uint8_t any, r->U8());
    m.any = any != 0;
  }
  GOLA_RETURN_NOT_OK(r->Raw(rep_sum_.data(), rep_sum_.size() * sizeof(double)));
  GOLA_RETURN_NOT_OK(r->Raw(rep_count_.data(), rep_count_.size() * sizeof(double)));
  for (auto& state : generic_) GOLA_RETURN_NOT_OK(LoadAggState(r, state.get()));
  return Status::OK();
}

// ------------------------------------------------------ OnlineAggregate --

OnlineAggregate::OnlineAggregate(const BlockDef* block, const PoissonWeights* weights)
    : layout_(block, weights), arena_(&layout_) {
  GOLA_CHECK(block->is_aggregate);
}

Status OnlineAggregate::FoldTileOf(const Chunk& input, const BroadcastEnv* env,
                                   GroupArena* tile) const {
  *tile = GroupArena(&layout_);
  if (input.num_rows() == 0) return Status::OK();
  obs::TraceSpan span("kernel_fold", "rows", static_cast<int64_t>(input.num_rows()));
  FoldBatch in;
  GOLA_RETURN_NOT_OK(PrepareFoldBatch(*layout_.block, input, nullptr, env, &in));
  // The morsel's groups are distinct: tile id g is local group g.
  const size_t num_groups = in.gids.num_groups;
  tile->Reserve(num_groups);
  std::vector<Value> key(layout_.num_keys);
  for (size_t g = 0; g < num_groups; ++g) {
    KeyOf(in, g, &key);
    const uint32_t id = tile->Add(key.data(), GroupKeyValuesHash(key.data(), key.size()));
    tile->rows(id) = static_cast<int64_t>(in.group_rows(g));
  }
  std::vector<FoldTarget> targets(layout_.flat_slot.size());
  FoldScratch scratch;
  for (size_t g = 0; g < num_groups; ++g) {
    TargetsOf(tile, static_cast<uint32_t>(g), targets.data());
    FoldGroup(in, layout_.weights, g, targets.data(), &scratch);
  }
  return Status::OK();
}

void OnlineAggregate::MergeTile(const GroupArena& tile) {
  for (uint32_t t = 0; t < tile.size(); ++t) {
    const uint32_t id = arena_.Find(tile.key(t), tile.key_hash(t));
    if (id == GroupArena::kNone) {
      arena_.AddCopy(tile, t);
    } else {
      arena_.MergeRow(id, tile, t);
    }
  }
}

// ----------------------------------------------------------- AggOverlay --

Status AggOverlay::Update(const Chunk& input, const SelectionVector& rows,
                          const ExecContext& ctx) {
  if (rows.empty()) return Status::OK();
  const ArenaLayout& layout = base_->layout();
  const GroupArena& base = base_->arena();
  FoldBatch in;
  GOLA_RETURN_NOT_OK(PrepareFoldBatch(*layout.block, input, &rows, ctx.env, &in));
  // Every touched group is found in the overlay, or copied in from the base,
  // or added at zero, on the calling thread in first-occurrence order; then
  // groups fold in row-balanced pieces, on ctx.pool when there are several.
  const size_t num_groups = in.gids.num_groups;
  const size_t num_aggs = layout.flat_slot.size();
  delta_.Reserve(delta_.size() + num_groups);
  base_id_.reserve(delta_.size() + num_groups);
  std::vector<uint32_t> ids(num_groups);
  std::vector<Value> key(layout.num_keys);
  for (size_t g = 0; g < num_groups; ++g) {
    KeyOf(in, g, &key);
    const uint64_t hash = GroupKeyValuesHash(key.data(), key.size());
    uint32_t id = delta_.Find(key.data(), hash);
    if (id == GroupArena::kNone) {
      const uint32_t src = base.Find(key.data(), hash);
      id = src == GroupArena::kNone ? delta_.Add(key.data(), hash)
                                    : delta_.AddCopy(base, src);
      base_id_.push_back(src);
    }
    delta_.rows(id) += static_cast<int64_t>(in.group_rows(g));
    ids[g] = id;
  }
  std::vector<FoldTarget> targets(num_groups * num_aggs);
  for (size_t g = 0; g < num_groups; ++g) {
    TargetsOf(&delta_, ids[g], &targets[g * num_aggs]);
  }
  std::vector<PieceRange> pieces =
      PlanPieces(num_groups, [&](size_t g) { return in.group_rows(g); }, ctx);
  return RunPieces(ctx, pieces.size(), [&](size_t p) -> Status {
    obs::TraceSpan span("kernel_fold", "groups",
                        static_cast<int64_t>(pieces[p].end - pieces[p].begin));
    FoldScratch scratch;
    for (size_t g = pieces[p].begin; g < pieces[p].end; ++g) {
      FoldGroup(in, layout.weights, g, &targets[g * num_aggs], &scratch);
    }
    return Status::OK();
  });
}

const GroupArena& AggOverlay::Resolve(uint32_t row, uint32_t* id) const {
  const size_t base_size = base_->arena().size();
  if (row < base_size) {
    *id = row;
    return base_->arena();
  }
  *id = static_cast<uint32_t>(row - base_size);
  return delta_;
}

Result<PostAggChunk> AggOverlay::Finalize(double scale, bool with_replicates,
                                          const ExecContext& ctx) const {
  const ArenaLayout& layout = base_->layout();
  const BlockDef& block = *layout.block;
  const size_t num_keys = layout.num_keys;
  const size_t num_aggs = block.aggs.size();
  const size_t b = with_replicates ? layout.b : 0;

  // The merged view: every base row, replaced by its overlay row when
  // touched, then the overlay's new groups.
  const auto base_size = static_cast<uint32_t>(base_->arena().size());
  std::vector<uint32_t> view(base_size);
  std::iota(view.begin(), view.end(), 0u);
  for (uint32_t d = 0; d < delta_.size(); ++d) {
    if (base_id_[d] != GroupArena::kNone) {
      view[base_id_[d]] = base_size + d;
    } else {
      view.push_back(base_size + d);
    }
  }
  // Emit groups in sorted key order, not id order: ids follow insertion
  // history (morsel merges, rebuilds, checkpoint reloads), and emission
  // order feeds downstream classification caches and user-visible
  // intermediate results. Sorting makes every one of those paths produce
  // bit-identical output regardless of how the arena was built.
  auto key_of = [this](uint32_t row) {
    uint32_t id;
    return Resolve(row, &id).key(id);
  };
  std::sort(view.begin(), view.end(), [&](uint32_t x, uint32_t y) {
    const Value* kx = key_of(x);
    const Value* ky = key_of(y);
    return std::lexicographical_compare(kx, kx + num_keys, ky, ky + num_keys);
  });
  // Global aggregation over an empty prefix still yields one row, finalized
  // from fresh states but backed by none.
  GroupArena fresh(&layout);
  if (view.empty() && num_keys == 0) {
    fresh.Add(nullptr, GroupKeyValuesHash(nullptr, 0));
    view.push_back(PostAggChunk::kNoRow);
  }
  auto at = [&](uint32_t row, uint32_t* id) -> const GroupArena& {
    if (row != PostAggChunk::kNoRow) return Resolve(row, id);
    *id = 0;
    return fresh;
  };
  const size_t n = view.size();

  PostAggChunk out;
  out.scale = scale;
  out.states = this;
  std::vector<Column> cols;
  cols.reserve(num_keys + num_aggs);
  for (size_t c = 0; c < num_keys + num_aggs; ++c) {
    cols.emplace_back(block.post_agg_schema->field(c).type);
    cols.back().Reserve(n);
  }
  std::vector<double> agg_scale(num_aggs);
  for (size_t a = 0; a < num_aggs; ++a) {
    agg_scale[a] = block.aggs[a].fn->ScalesWithMultiplicity() ? scale : 1.0;
  }
  out.support.reserve(n);
  out.ids = view;
  for (uint32_t row : view) {
    uint32_t id;
    const GroupArena& arena = at(row, &id);
    const Value* key = arena.key(id);
    for (size_t k = 0; k < num_keys; ++k) cols[k].Append(key[k]);
    out.support.push_back(arena.rows(id));
    for (size_t a = 0; a < num_aggs; ++a) {
      cols[num_keys + a].Append(arena.Finalize(id, a, agg_scale[a]));
    }
  }
  out.point = Chunk(block.post_agg_schema, std::move(cols));

  out.num_replicates = b;
  if (b > 0) {
    out.replicates.assign(num_aggs, std::vector<double>(n * b));
    // Each group weighs its b replicate rows under the morsel policy.
    std::vector<PieceRange> pieces = PlanPieces(n, [b](size_t) { return b; }, ctx);
    GOLA_RETURN_NOT_OK(RunPieces(ctx, pieces.size(), [&](size_t p) -> Status {
      for (size_t g = pieces[p].begin; g < pieces[p].end; ++g) {
        uint32_t id;
        const GroupArena& arena = at(view[g], &id);
        for (size_t a = 0; a < num_aggs; ++a) {
          arena.FinalizeReplicatesInto(id, a, agg_scale[a], out.replicates[a].data() + g * b);
        }
      }
      return Status::OK();
    }));
  }
  return out;
}

}  // namespace gola
