#include "exec/hash_aggregate.h"

#include "common/logging.h"
#include "exec/kernels/agg_kernels.h"
#include "exec/kernels/encoded_kernels.h"
#include "exec/kernels/group_ids.h"
#include "storage/segment/encoding.h"
#include "obs/trace.h"

namespace gola {

HashAggregate::HashAggregate(const BlockDef* block) : block_(block) {
  GOLA_CHECK(block_->is_aggregate);
}

HashAggregate::StateVec HashAggregate::NewStates() const {
  StateVec states;
  states.reserve(block_->aggs.size());
  for (const auto& agg : block_->aggs) states.push_back(agg.fn->CreateState());
  return states;
}

Status HashAggregate::Update(const Chunk& input, const BroadcastEnv* env) {
  size_t n = input.num_rows();
  if (n == 0) return Status::OK();
  obs::TraceSpan span("kernel_agg", "rows", static_cast<int64_t>(n));

  std::vector<Column> key_cols;
  key_cols.reserve(block_->group_by.size());
  for (const auto& g : block_->group_by) {
    GOLA_ASSIGN_OR_RETURN(Column c, Evaluate(*g, input, env));
    key_cols.push_back(std::move(c));
  }
  std::vector<Column> arg_cols;
  std::vector<bool> has_arg;
  for (const auto& agg : block_->aggs) {
    has_arg.push_back(!agg.call->children.empty());
    if (!has_arg.back()) {
      arg_cols.emplace_back(TypeId::kFloat64);
      continue;
    }
    GOLA_ASSIGN_OR_RETURN(Column c, Evaluate(*agg.call->children[0], input, env));
    arg_cols.push_back(std::move(c));
  }

  kernels::GroupIds gids;
  GOLA_RETURN_NOT_OK(kernels::ComputeGroupIds(key_cols, n, /*force_generic=*/false, &gids));
  kernels::BuildGroupRows(&gids);

  // Encoded fast-path candidates: an ungrouped chunk (one group covering
  // all rows in order) whose aggregate argument is a plain column carrying
  // a NULL-free int64 RLE sidecar view can fold run-wise in O(runs) —
  // TryEncodedRleSumFold proves bit-identity per call and rejects anything
  // outside its exactness envelope, at which point we widen and take the
  // row loop like always.
  const EncodedChunk* enc = input.encoded();
  std::vector<const EncodedColumnView*> rle_view(arg_cols.size(), nullptr);
  if (enc != nullptr && gids.num_groups == 1) {
    for (size_t a = 0; a < arg_cols.size(); ++a) {
      if (!has_arg[a]) continue;
      const Expr* arg = block_->aggs[a].call->children[0].get();
      if (arg->kind != ExprKind::kColumnRef || arg->from_outer_scope ||
          arg->column_index < 0 ||
          static_cast<size_t>(arg->column_index) >= enc->columns.size()) {
        continue;
      }
      const auto& view = enc->columns[static_cast<size_t>(arg->column_index)];
      if (view.has_value() && view->encoding == Encoding::kRle &&
          view->type == TypeId::kInt64 && view->null_count == 0) {
        rle_view[a] = &*view;
      }
    }
  }

  // Widen numeric argument columns once per chunk (the same doubles a
  // per-row NumericAt gives). Fast-path candidates defer widening until the
  // run fold actually rejects them.
  std::vector<std::vector<double>> widened(arg_cols.size());
  std::vector<std::vector<uint8_t>> valid(arg_cols.size());
  std::vector<bool> numeric(arg_cols.size(), false);
  for (size_t a = 0; a < arg_cols.size(); ++a) {
    if (!has_arg[a]) continue;
    if (IsNumeric(arg_cols[a].type()) || arg_cols[a].type() == TypeId::kBool) {
      numeric[a] = true;
      if (rle_view[a] != nullptr) continue;
      GOLA_ASSIGN_OR_RETURN(
          widened[a],
          arg_cols[a].ToFloat64(arg_cols[a].has_nulls() ? &valid[a] : nullptr));
    }
  }

  std::vector<uint32_t> nn_rows;  // scratch: null-filtered row list
  for (size_t g = 0; g < gids.num_groups; ++g) {
    const uint32_t* rows = gids.group_rows.data() + gids.group_offsets[g];
    size_t cnt = gids.group_offsets[g + 1] - gids.group_offsets[g];
    GroupKey key = kernels::GroupKeyAt(key_cols, gids.first_row[g]);
    auto it = groups_.find(key);
    if (it == groups_.end()) {
      it = groups_.emplace(std::move(key), NewStates()).first;
    }
    StateVec& states = it->second;
    for (size_t a = 0; a < states.size(); ++a) {
      AggState::SimpleSlots slots = states[a]->simple_slots();
      if (!has_arg[a]) {
        // COUNT(*): every row counts.
        if (slots.usable()) {
          kernels::AccumulateSimpleMain(slots, nullptr, 1.0, rows, cnt);
        } else {
          for (size_t i = 0; i < cnt; ++i) states[a]->UpdateValue(Value::Int(1), 1.0);
        }
        continue;
      }
      const Column& col = arg_cols[a];
      if (numeric[a]) {
        if (rle_view[a] != nullptr) {
          if (slots.usable() &&
              kernels::TryEncodedRleSumFold(*rle_view[a], enc->row_offset, cnt,
                                            slots)) {
            continue;
          }
          // Fold rejected (non-simple state or exactness guard): widen now
          // and fall through to the row loop.
          if (widened[a].empty()) {
            GOLA_ASSIGN_OR_RETURN(widened[a], col.ToFloat64(nullptr));
          }
        }
        const uint32_t* sel = rows;
        size_t sel_n = cnt;
        if (!valid[a].empty()) {
          nn_rows.clear();
          for (size_t i = 0; i < cnt; ++i) {
            if (valid[a][rows[i]]) nn_rows.push_back(rows[i]);
          }
          sel = nn_rows.data();
          sel_n = nn_rows.size();
        }
        if (slots.usable()) {
          kernels::AccumulateSimpleMain(slots, widened[a].data(), 0.0, sel, sel_n);
        } else {
          for (size_t i = 0; i < sel_n; ++i) {
            states[a]->UpdateNumeric(widened[a][sel[i]], 1.0);
          }
        }
      } else {
        for (size_t i = 0; i < cnt; ++i) {
          uint32_t r = rows[i];
          if (col.IsNull(r)) continue;
          states[a]->UpdateValue(col.GetValue(r), 1.0);
        }
      }
    }
  }
  return Status::OK();
}

Status HashAggregate::Merge(HashAggregate&& other) {
  for (auto& [key, states] : other.groups_) {
    auto it = groups_.find(key);
    if (it == groups_.end()) {
      groups_.emplace(std::move(key), std::move(states));
    } else {
      for (size_t a = 0; a < states.size(); ++a) {
        it->second[a]->Merge(*states[a]);
      }
    }
  }
  other.groups_.clear();
  return Status::OK();
}

Result<Chunk> HashAggregate::Finalize(double scale) const {
  size_t num_keys = block_->group_by.size();
  size_t num_aggs = block_->aggs.size();
  std::vector<Column> cols;
  cols.reserve(num_keys + num_aggs);
  for (size_t k = 0; k < num_keys; ++k) {
    cols.emplace_back(block_->post_agg_schema->field(k).type);
  }
  for (size_t a = 0; a < num_aggs; ++a) {
    cols.emplace_back(block_->post_agg_schema->field(num_keys + a).type);
  }

  auto emit = [&](const GroupKey* key, const StateVec* states) {
    for (size_t k = 0; k < num_keys; ++k) cols[k].Append(key->values[k]);
    for (size_t a = 0; a < num_aggs; ++a) {
      double s = block_->aggs[a].fn->ScalesWithMultiplicity() ? scale : 1.0;
      cols[num_keys + a].Append((*states)[a]->Finalize(s));
    }
  };

  if (groups_.empty() && num_keys == 0) {
    // Global aggregation over an empty input still yields one row.
    GroupKey empty;
    StateVec states = NewStates();
    emit(&empty, &states);
  } else {
    for (const auto& [key, states] : groups_) emit(&key, &states);
  }
  return Chunk(block_->post_agg_schema, std::move(cols));
}

}  // namespace gola
