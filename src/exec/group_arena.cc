#include "exec/group_arena.h"

#include <algorithm>
#include <limits>
#include <string>

#include "common/logging.h"
#include "common/random.h"
#include "exec/kernels/encoded_kernels.h"
#include "obs/trace.h"
#include "storage/segment/encoding.h"
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

// The NULL-free int64 RLE view of `arg` when it is a plain column of the
// encoded chunk `enc`, else null.
const EncodedColumnView* RleViewOf(const Expr& arg, const EncodedChunk& enc) {
  if (arg.kind != ExprKind::kColumnRef || arg.from_outer_scope || arg.column_index < 0 ||
      static_cast<size_t>(arg.column_index) >= enc.columns.size()) {
    return nullptr;
  }
  const auto& view = enc.columns[static_cast<size_t>(arg.column_index)];
  if (view.has_value() && view->encoding == Encoding::kRle &&
      view->type == TypeId::kInt64 && view->null_count == 0) {
    return &*view;
  }
  return nullptr;
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

// ------------------------------------------------------------- the fold --

Status PrepareFoldBatch(const ArenaLayout& layout, const Chunk& input,
                        const SelectionVector* sel, const BroadcastEnv* env,
                        FoldBatch* in) {
  const bool replicates = layout.weights != nullptr;
  if (replicates && !input.has_serials()) {
    return Status::Internal("the replicate fold requires row serials");
  }
  const BlockDef& block = *layout.block;
  const size_t n = sel != nullptr ? sel->size() : input.num_rows();
  GOLA_RETURN_NOT_OK(
      EvalFoldInputs(block, input, sel, env, &in->key_cols, &in->arg_cols, &in->has_arg));
  if (!replicates) {
    in->serials = nullptr;
  } else if (sel != nullptr) {
    in->gathered_serials.resize(n);
    for (size_t i = 0; i < n; ++i) in->gathered_serials[i] = input.serials()[(*sel)[i]];
    in->serials = in->gathered_serials.data();
  } else {
    in->serials = input.serials().data();
  }
  GOLA_RETURN_NOT_OK(
      kernels::ComputeGroupIds(in->key_cols, n, /*force_generic=*/false, &in->gids));
  kernels::BuildGroupRows(&in->gids);

  // Without replicates, an encoded chunk whose one group covers every row
  // may fold a flat aggregate's plain int64 column run by run.
  const size_t num_args = in->arg_cols.size();
  in->rle.assign(num_args, nullptr);
  const EncodedChunk* enc = input.encoded();
  if (!replicates && sel == nullptr && enc != nullptr && in->gids.num_groups == 1) {
    in->rle_offset = enc->row_offset;
    for (size_t a = 0; a < num_args; ++a) {
      if (in->has_arg[a] && layout.flat_slot[a] >= 0) {
        in->rle[a] = RleViewOf(*block.aggs[a].call->children[0], *enc);
      }
    }
  }

  // Widen numeric argument columns once per chunk (the same doubles a
  // per-row NumericAt gives); an RLE candidate waits for its fold's verdict.
  in->widened.resize(num_args);
  in->numeric.assign(num_args, false);
  for (size_t a = 0; a < num_args; ++a) {
    if (!in->has_arg[a]) continue;
    const Column& col = in->arg_cols[a];
    if (IsNumeric(col.type()) || col.type() == TypeId::kBool) {
      in->numeric[a] = true;
      if (in->rle[a] != nullptr) continue;
      GOLA_ASSIGN_OR_RETURN(in->widened[a], col.ToFloat64(nullptr));
    }
  }
  return Status::OK();
}

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

void KeyOf(const FoldBatch& in, size_t g, std::vector<Value>* key) {
  for (size_t k = 0; k < key->size(); ++k) {
    (*key)[k] = in.key_cols[k].GetValue(in.gids.first_row[g]);
  }
}

Status FoldGroup(const FoldBatch& in, const PoissonWeights* weights, size_t g,
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
    if (in.rle[a] != nullptr) {
      // The group covers every row of the chunk: its rows are the view's
      // rows from rle_offset on. The run fold proves bit-identity per call
      // and rejects anything outside its exactness envelope; the rows then
      // fold like any other numeric argument's.
      if (kernels::TryEncodedRleSumFold(*in.rle[a], in.rle_offset, cnt, t.slots)) continue;
      GOLA_ASSIGN_OR_RETURN(scratch->widened, col.ToFloat64(nullptr));
      rep.values = scratch->widened.data();
    } else if (in.numeric[a]) {
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
  return Status::OK();
}

// -------------------------------------------------------------- emission --

Chunk FinalizeGroups(const ArenaLayout& layout, double scale, GroupArena* fresh,
                     std::vector<GroupRef>* groups, std::vector<int64_t>* support) {
  const BlockDef& block = *layout.block;
  const size_t num_keys = layout.num_keys;
  const size_t num_aggs = block.aggs.size();
  std::sort(groups->begin(), groups->end(), [num_keys](const GroupRef& x, const GroupRef& y) {
    const Value* kx = x.arena->key(x.id);
    const Value* ky = y.arena->key(y.id);
    return std::lexicographical_compare(kx, kx + num_keys, ky, ky + num_keys);
  });
  if (groups->empty() && num_keys == 0) {
    groups->push_back({fresh, fresh->Add(nullptr, GroupKeyValuesHash(nullptr, 0))});
  }
  const size_t n = groups->size();
  std::vector<Column> cols;
  cols.reserve(num_keys + num_aggs);
  for (size_t c = 0; c < num_keys + num_aggs; ++c) {
    cols.emplace_back(block.post_agg_schema->field(c).type);
    cols.back().Reserve(n);
  }
  if (support != nullptr) support->reserve(n);
  for (const GroupRef& ref : *groups) {
    const Value* key = ref.arena->key(ref.id);
    for (size_t k = 0; k < num_keys; ++k) cols[k].Append(key[k]);
    if (support != nullptr) support->push_back(ref.arena->rows(ref.id));
    for (size_t a = 0; a < num_aggs; ++a) {
      cols[num_keys + a].Append(ref.arena->Finalize(ref.id, a, AggScale(block, a, scale)));
    }
  }
  return Chunk(block.post_agg_schema, std::move(cols));
}

// ------------------------------------------------------- GroupAggregate --

GroupAggregate::GroupAggregate(const BlockDef* block, const PoissonWeights* weights)
    : layout_(block, weights), arena_(&layout_) {
  GOLA_CHECK(block->is_aggregate);
}

Status GroupAggregate::FoldTileOf(const Chunk& input, const BroadcastEnv* env,
                                  GroupArena* tile) const {
  *tile = GroupArena(&layout_);
  if (input.num_rows() == 0) return Status::OK();
  obs::TraceSpan span("kernel_fold", "rows", static_cast<int64_t>(input.num_rows()));
  FoldBatch in;
  GOLA_RETURN_NOT_OK(PrepareFoldBatch(layout_, input, nullptr, env, &in));
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
    GOLA_RETURN_NOT_OK(FoldGroup(in, layout_.weights, g, targets.data(), &scratch));
  }
  return Status::OK();
}

void GroupAggregate::MergeTile(const GroupArena& tile) {
  for (uint32_t t = 0; t < tile.size(); ++t) {
    const uint32_t id = arena_.Find(tile.key(t), tile.key_hash(t));
    if (id == GroupArena::kNone) {
      arena_.AddCopy(tile, t);
    } else {
      arena_.MergeRow(id, tile, t);
    }
  }
}

Chunk GroupAggregate::Finalize(double scale) const {
  std::vector<GroupRef> groups(arena_.size());
  for (uint32_t id = 0; id < groups.size(); ++id) groups[id] = {&arena_, id};
  GroupArena fresh(&layout_);
  return FinalizeGroups(layout_, scale, &fresh, &groups, nullptr);
}

}  // namespace gola
