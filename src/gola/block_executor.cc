#include "gola/block_executor.h"

#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <thread>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "exec/sort.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/serde.h"

namespace gola {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

}  // namespace

// ------------------------------------------------------------ OnlineEnv --

void OnlineEnv::SetScalar(int id, ScalarBroadcast b) {
  if (b.keyed) {
    // The points share one type, the value expression's; all-NULL points
    // read as float64.
    TypeId type = TypeId::kFloat64;
    for (const ScalarEntry& e : b.entries) {
      if (!e.point.is_null()) {
        type = e.point.type();
        break;
      }
    }
    Column points(type);
    points.Reserve(b.entries.size());
    for (const ScalarEntry& e : b.entries) points.Append(e.point);
    point_.SetKeyed(id, b.keys, std::move(points));
  } else {
    point_.SetScalar(id, b.global.point);
  }
  scalars_[id] = std::move(b);
}

void OnlineEnv::SetMembership(int id, std::shared_ptr<const MembershipView> view) {
  point_.SetMembership(id, view);
  memberships_[id] = std::move(view);
}

const ScalarBroadcast* OnlineEnv::scalar(int id) const {
  auto it = scalars_.find(id);
  return it == scalars_.end() ? nullptr : &it->second;
}

const MembershipView* OnlineEnv::membership(int id) const {
  auto it = memberships_.find(id);
  return it == memberships_.end() ? nullptr : it->second.get();
}

// ------------------------------------------------------ OnlineBlockExec --

OnlineBlockExec::OnlineBlockExec(const BlockDef* block, const Catalog* catalog,
                                 const GolaOptions* options,
                                 const PoissonWeights* weights)
    : block_(block),
      catalog_(catalog),
      options_(options),
      weights_(weights),
      pipeline_(*block) {}

Chunk OnlineBlockExec::EmptyUncertain() const {
  Chunk chunk(block_->input_schema, [&] {
    std::vector<Column> cols;
    for (const auto& f : block_->input_schema->fields()) cols.emplace_back(f.type);
    return cols;
  }());
  chunk.set_serials({});
  return chunk;
}

ExecContext OnlineBlockExec::MakeContext(double scale, OnlineEnv* env) {
  ExecContext ctx;
  ctx.pool = options_->pool;
  ctx.scale = scale;
  ctx.seed = options_->seed;
  ctx.env = &env->point_env();
  ctx.metrics = &metrics_;
  ctx.max_morsel_retries = options_->max_morsel_retries;
  ctx.retry_backoff_ms = options_->retry_backoff_ms;
  return ctx;
}

Status OnlineBlockExec::RunPipelineWithRetry(const ExecContext& ctx,
                                             const std::vector<MorselSource>& sources,
                                             Chunk* uncertain_out,
                                             std::vector<uint8_t>* pass_out,
                                             const char* what) {
  Status st = pipeline_.Run(ctx, sources, uncertain_out, pass_out);
  for (int r = 1; !st.ok() && fail::Retryable(st) && r <= options_->max_morsel_retries;
       ++r) {
    // A failed Run left no merged state behind: the barrier only merges after
    // every morsel succeeded, and per-morsel slots are rebuilt by BeginBatch.
    // Resetting the uncertain sink and its flags is the only cleanup a rerun
    // needs.
    if (uncertain_out != nullptr) *uncertain_out = EmptyUncertain();
    if (pass_out != nullptr) pass_out->clear();
    if (obs::MetricsEnabled()) {
      obs::MetricsRegistry::Global()
          .GetCounter("gola_block_pipeline_retries_total")
          ->Increment();
    }
    obs::FlightRecorder::Global().Note("pipeline_retry", what, block_->id);
    int64_t backoff = static_cast<int64_t>(options_->retry_backoff_ms) << (r - 1);
    if (backoff > 0) std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    st = pipeline_.Run(ctx, sources, uncertain_out, pass_out);
  }
  return st;
}

Status OnlineBlockExec::Init() {
  if (initialized_) return Status::OK();
  if (!block_->is_aggregate) {
    return Status::NotImplemented(
        "online execution requires an aggregation in every block");
  }
  // Build this block's delta pipeline: DimJoin → Filter(certain) →
  // OnlineClassify → Fold.
  GOLA_ASSIGN_OR_RETURN(DimJoinSet dims, DimJoinSet::Build(*block_, *catalog_));
  join_stage_.emplace(block_, std::move(dims));
  filter_stage_.emplace(FilterStage::CertainOnly(*block_));
  agg_ = std::make_unique<GroupAggregate>(block_, weights_);
  classify_stage_ = std::make_unique<OnlineClassifyStage>(block_, options_);
  fold_stage_ = std::make_unique<FoldStage>(agg_.get());
  pipeline_ = DeltaPipeline(*block_);
  if (!join_stage_->empty()) pipeline_.Add(&*join_stage_);
  if (!filter_stage_->empty()) pipeline_.Add(&*filter_stage_);
  pipeline_.SetClassify(classify_stage_.get());
  pipeline_.SetSink(fold_stage_.get());

  uncertain_ = EmptyUncertain();
  uncertain_pass_.clear();

  // Membership classification conjunct (kMembership blocks): usable when
  // there is exactly one HAVING conjunct of comparison shape whose rhs is
  // group-free and whose aggregate side is numeric (a string has no
  // variation range).
  if (block_->kind == BlockKind::kMembership) {
    if (block_->group_by.size() != 1) {
      return Status::NotImplemented(
          "membership subqueries must group by exactly the emitted key");
    }
    size_t total = block_->having_certain.size() + block_->having_uncertain.size();
    if (total == 0) {
      membership_monotone_ = true;  // presence-only membership: monotone
    } else if (total == 1 && block_->having_certain.size() == 1) {
      const ExprPtr& h = block_->having_certain[0];
      if (h->kind == ExprKind::kComparison) {
        ExprPtr lhs = h->children[0];
        ExprPtr rhs = h->children[1];
        CmpOp cmp = h->cmp_op;
        if (!lhs->ContainsAggregate() && rhs->ContainsAggregate()) {
          std::swap(lhs, rhs);
          cmp = FlipCmp(cmp);
        }
        if (lhs->ContainsAggregate() && !rhs->ContainsAggregate() &&
            lhs->type != TypeId::kString) {
          ClsConjunct cls;
          cls.lhs = lhs;
          cls.cmp = cmp;
          cls.certain_rhs = rhs;
          cls_conjunct_ = std::move(cls);
        }
      }
    } else if (total == 1 && block_->having_uncertain.size() == 1) {
      const UncertainConjunct& uc = block_->having_uncertain[0];
      if (uc.form == UncertainConjunct::Form::kScalarCmp && !uc.outer_key &&
          uc.lhs->type != TypeId::kString) {
        ClsConjunct cls;
        cls.lhs = uc.lhs;
        cls.cmp = uc.cmp;
        cls.rhs_subquery_id = uc.subquery_id;
        cls_conjunct_ = std::move(cls);
      }
    }
    // Otherwise: no usable conjunct → every key classifies uncertain.
  }

  initialized_ = true;
  return Status::OK();
}

void OnlineBlockExec::Reset() {
  if (agg_) agg_->Reset();
  if (initialized_) uncertain_ = EmptyUncertain();
  uncertain_pass_.clear();
  if (classify_stage_) classify_stage_->ResetEnvelopes();
  rows_seen_ = 0;
}

Result<RangeFailure> OnlineBlockExec::ProcessBatch(const Chunk& batch, double scale,
                                                   OnlineEnv* env,
                                                   obs::QueryStats* stats) {
  GOLA_RETURN_NOT_OK(Init());
  obs::TraceSpan block_span("block", "id", block_->id);
  // Each phase's span adds its time to the phase's QueryStats field.
  auto phase = [stats](double obs::QueryStats::*field) {
    return stats != nullptr ? &(stats->*field) : nullptr;
  };
  RangeFailure violated;
  {
    obs::TraceSpan span("envelope_check", phase(&obs::QueryStats::envelope_check_seconds));
    GOLA_ASSIGN_OR_RETURN(violated, classify_stage_->CheckEnvelopes(env));
    if (violated == RangeFailure::kNone && GOLA_FAILPOINT("gola.check_envelopes")) {
      // Forced range failure: exercises the full recovery path (the caller
      // runs a query-wide Rebuild) without waiting for a real envelope
      // escape.
      violated = RangeFailure::kInjected;
    }
  }
  if (violated != RangeFailure::kNone) {
    if (obs::MetricsEnabled()) {
      obs::MetricsRegistry::Global()
          .GetCounter(Format("gola_online_range_failures_total{cause=\"%s\"}",
                             RangeFailureName(violated)))
          ->Increment();
    }
    return violated;
  }

  // Pipeline inputs: the cached uncertain set from batch i-1 (stored
  // post-join/post-filter in the block's layout, so it re-enters at the
  // classify stage) plus the new batch — the only tuples the delta update
  // must touch (§3.2).
  Chunk uncertain_prev = std::move(uncertain_);
  std::vector<uint8_t> pass_prev = std::move(uncertain_pass_);
  uncertain_ = EmptyUncertain();
  uncertain_pass_.clear();
  std::vector<MorselSource> sources;
  if (uncertain_prev.num_rows() > 0) {
    sources.push_back({&uncertain_prev, pipeline_.num_transforms()});
  }
  sources.push_back({&batch, 0});

  classify_stage_->SetEnv(env);
  ExecContext ctx = MakeContext(scale, env);
  {
    obs::TraceSpan span("delta_exec", phase(&obs::QueryStats::delta_exec_seconds));
    Status st =
        RunPipelineWithRetry(ctx, sources, &uncertain_, &uncertain_pass_, "batch");
    if (!st.ok()) {
      // Retries exhausted (or non-retryable): put the pre-batch lineage
      // cache back so the block stays at its batch-(i-1) state.
      uncertain_ = std::move(uncertain_prev);
      uncertain_pass_ = std::move(pass_prev);
      return st;
    }
  }

  rows_seen_ += static_cast<int64_t>(batch.num_rows());
  {
    obs::TraceSpan span("emit");
    GOLA_RETURN_NOT_OK(Emit(scale, env, stats));
  }
  if (stats) {
    stats->emit_seconds = stats->emit_overlay_seconds + stats->emit_finalize_seconds +
                          stats->emit_broadcast_seconds + stats->emit_root_seconds;
  }
  return RangeFailure::kNone;
}

Status OnlineBlockExec::Rebuild(const std::vector<const Chunk*>& seen, double scale,
                                OnlineEnv* env, obs::QueryStats* stats) {
  GOLA_RETURN_NOT_OK(Init());
  GOLA_FAILPOINT_RETURN("gola.rebuild");
  obs::TraceSpan block_span("rebuild_block", "id", block_->id,
                            stats != nullptr ? &stats->rebuild_seconds : nullptr);
  Reset();
  // One morsel-parallel pass over all seen data with the *current* upstream
  // broadcasts (frozen for the whole pass): the envelopes installed at the
  // barrier come from the fresh batch-i ranges.
  std::vector<MorselSource> sources;
  sources.reserve(seen.size());
  for (const Chunk* chunk : seen) {
    sources.push_back({chunk, 0});
    rows_seen_ += static_cast<int64_t>(chunk->num_rows());
  }
  classify_stage_->SetEnv(env);
  ExecContext ctx = MakeContext(scale, env);
  GOLA_RETURN_NOT_OK(
      RunPipelineWithRetry(ctx, sources, &uncertain_, &uncertain_pass_, "rebuild"));
  return Emit(scale, env, nullptr);
}

Status OnlineBlockExec::ReEmit(double scale, OnlineEnv* env) {
  GOLA_RETURN_NOT_OK(Init());
  // A restored uncertain set carries no pass flags; the upstream blocks have
  // re-emitted already, so the point environment is the one the flags were
  // first decided under.
  GOLA_ASSIGN_OR_RETURN(uncertain_pass_,
                        classify_stage_->PassFlags(uncertain_, &env->point_env()));
  return Emit(scale, env, nullptr);
}

Status OnlineBlockExec::SaveState(BinaryWriter* w) const {
  w->U8(initialized_ ? 1 : 0);
  if (!initialized_) return Status::OK();
  w->I64(rows_seen_);
  GOLA_RETURN_NOT_OK(agg_->SaveTo(w));
  GOLA_RETURN_NOT_OK(classify_stage_->SaveState(w));
  // Cached uncertain set: per-column payloads plus the serial numbers that
  // key the bootstrap weights.
  uint64_t rows = uncertain_.num_rows();
  w->U64(rows);
  w->U32(static_cast<uint32_t>(uncertain_.num_columns()));
  for (size_t c = 0; c < uncertain_.num_columns(); ++c) {
    GOLA_RETURN_NOT_OK(WriteColumnData(w, uncertain_.column(c)));
  }
  const std::vector<int64_t>& serials = uncertain_.serials();
  w->U64(serials.size());
  for (int64_t s : serials) w->I64(s);
  return Status::OK();
}

Status OnlineBlockExec::LoadState(BinaryReader* r) {
  GOLA_ASSIGN_OR_RETURN(uint8_t has_state, r->U8());
  if (has_state == 0) return Status::OK();
  GOLA_RETURN_NOT_OK(Init());
  GOLA_ASSIGN_OR_RETURN(rows_seen_, r->I64());
  GOLA_RETURN_NOT_OK(agg_->LoadFrom(r));
  GOLA_RETURN_NOT_OK(classify_stage_->LoadState(r));
  GOLA_ASSIGN_OR_RETURN(uint64_t rows, r->U64());
  GOLA_ASSIGN_OR_RETURN(uint32_t ncols, r->U32());
  if (ncols != block_->input_schema->num_fields()) {
    return Status::IoError(
        Format("checkpoint uncertain set has %u columns, block expects %zu",
               ncols, block_->input_schema->num_fields()));
  }
  std::vector<Column> cols;
  cols.reserve(ncols);
  for (uint32_t c = 0; c < ncols; ++c) {
    GOLA_ASSIGN_OR_RETURN(
        Column col, ReadColumnData(r, block_->input_schema->field(c).type, rows));
    cols.push_back(std::move(col));
  }
  GOLA_ASSIGN_OR_RETURN(uint64_t nserials, r->U64());
  if (nserials != rows) {
    return Status::IoError(Format(
        "checkpoint uncertain set has %llu serials for %llu rows",
        static_cast<unsigned long long>(nserials),
        static_cast<unsigned long long>(rows)));
  }
  std::vector<int64_t> serials;
  serials.reserve(nserials);
  for (uint64_t s = 0; s < nserials; ++s) {
    GOLA_ASSIGN_OR_RETURN(int64_t v, r->I64());
    serials.push_back(v);
  }
  uncertain_ = Chunk(block_->input_schema, std::move(cols));
  uncertain_.set_serials(std::move(serials));
  // Pass flags and the broadcasts (scalar entries, membership views) are
  // intentionally stale here; the caller ReEmits every block in dependency
  // order to rebuild them from the restored state.
  uncertain_pass_.clear();
  return Status::OK();
}

// ------------------------------------------------------------- emission --

namespace {

/// Layout of stacked replicate chunks: the group columns as they are, the
/// aggregate slots as float64 (replicate space). Reuses the point schema when
/// its aggregate slots are float64 already.
SchemaPtr ReplicateSchema(const SchemaPtr& point, size_t num_keys) {
  bool same = true;
  for (size_t c = num_keys; c < point->num_fields(); ++c) {
    same = same && point->field(c).type == TypeId::kFloat64;
  }
  if (same) return point;
  std::vector<Field> fields;
  for (size_t c = 0; c < point->num_fields(); ++c) {
    fields.push_back({point->field(c).name,
                      c < num_keys ? point->field(c).type : TypeId::kFloat64});
  }
  return std::make_shared<Schema>(fields);
}

/// Stacks `reps` replicates of rows [first, first + n) of a post-aggregation
/// chunk: stacked row i * reps + j is row first + i in bootstrap world j.
/// Key columns repeat each row's keys; aggregate slot a holds
/// values[a][i * reps + j]. A NaN replicate is NULL when `nan_is_null` is set
/// (the root's and the membership lhs's convention) and a float NaN
/// otherwise (the scalar broadcast's).
Chunk StackReplicates(const Chunk& point, const SchemaPtr& schema, size_t num_keys,
                      size_t first, size_t n, size_t reps,
                      std::vector<std::vector<double>> values, bool nan_is_null) {
  std::vector<uint32_t> idx(n * reps);
  for (size_t i = 0; i < n; ++i) {
    std::fill_n(idx.begin() + static_cast<std::ptrdiff_t>(i * reps), reps,
                static_cast<uint32_t>(first + i));
  }
  std::vector<Column> cols;
  cols.reserve(num_keys + values.size());
  for (size_t k = 0; k < num_keys; ++k) {
    cols.push_back(point.column(k).Gather(idx.data(), idx.size()));
  }
  for (auto& v : values) {
    std::vector<uint8_t> nulls;
    if (nan_is_null) {
      for (size_t r = 0; r < v.size(); ++r) {
        if (!std::isnan(v[r])) continue;
        if (nulls.empty()) nulls.assign(v.size(), 0);
        nulls[r] = 1;
        v[r] = 0;  // the value a NULL slot holds after AppendNull
      }
    }
    Column c = Column::MakeFloat(std::move(v));
    cols.push_back(nulls.empty() ? std::move(c)
                                 : Column::WithNulls(std::move(c), std::move(nulls)));
  }
  return Chunk(schema, std::move(cols));
}

/// Replicate j of a stacked evaluation, NaN where it is NULL.
inline double StackedValue(const Column& col, size_t r) {
  return col.IsNull(r) ? kNaN : col.NumericAt(r);
}

}  // namespace

Status OnlineBlockExec::Emit(double scale, OnlineEnv* env, obs::QueryStats* stats) {
  const ExecContext ctx = MakeContext(scale, env);
  // Each part's span adds its time to the part's QueryStats field.
  auto part = [stats](double obs::QueryStats::*field) {
    return stats != nullptr ? &(stats->*field) : nullptr;
  };

  // The passing set was decided per uncertain row at classification; fold
  // exactly those rows onto a copy-on-write overlay of the deterministic
  // state.
  AggOverlay overlay(agg_.get());
  {
    obs::TraceSpan span("emit_overlay", part(&obs::QueryStats::emit_overlay_seconds));
    if (uncertain_pass_.size() != uncertain_.num_rows()) {
      return Status::Internal("uncertain set has no pass flag per row");
    }
    SelectionVector passing;
    for (size_t i = 0; i < uncertain_pass_.size(); ++i) {
      if (uncertain_pass_[i]) passing.push_back(static_cast<uint32_t>(i));
    }
    GOLA_RETURN_NOT_OK(overlay.Update(uncertain_, passing, ctx));
  }

  // Scalar blocks finalize replicates for every group to broadcast per-key
  // ranges, and membership blocks with a classification conjunct to
  // classify every key. Root blocks compute error bars only for the rows
  // that survive HAVING/ORDER BY/LIMIT.
  PostAggChunk post;
  {
    obs::TraceSpan span("emit_finalize", part(&obs::QueryStats::emit_finalize_seconds));
    const bool with_replicates = block_->kind == BlockKind::kScalar ||
                                 (block_->kind == BlockKind::kMembership && cls_conjunct_);
    GOLA_ASSIGN_OR_RETURN(post, overlay.Finalize(scale, with_replicates, ctx));
  }

  switch (block_->kind) {
    case BlockKind::kScalar:
    case BlockKind::kMembership: {
      obs::TraceSpan span("emit_broadcast",
                          part(&obs::QueryStats::emit_broadcast_seconds));
      return block_->kind == BlockKind::kScalar ? EmitScalar(post, env, ctx)
                                                : EmitMembership(post, env, ctx);
    }
    case BlockKind::kRoot: {
      obs::TraceSpan span("emit_root", part(&obs::QueryStats::emit_root_seconds));
      return EmitRoot(post, scale, env);
    }
  }
  return Status::Internal("unreachable block kind");
}

Status OnlineBlockExec::EmitScalar(const PostAggChunk& post, OnlineEnv* env,
                                   const ExecContext& ctx) {
  const BroadcastEnv* point = &env->point_env();
  const size_t num_keys = block_->group_by.size();
  const size_t num_aggs = block_->aggs.size();
  const size_t rows = post.point.num_rows();
  const size_t b = post.num_replicates;

  // Optional HAVING (point form) masks rows out of the broadcast.
  GOLA_ASSIGN_OR_RETURN(std::vector<uint8_t> mask,
                        EvaluateHavingMask(*block_, post.point, point));
  GOLA_ASSIGN_OR_RETURN(Column point_vals, Evaluate(*block_->value_expr, post.point, point));

  // value_expr per bootstrap world: one evaluation per key range over the
  // range's stacked replicates, then one stddev pass per key shared by its
  // core and padded ranges.
  const SchemaPtr rep_schema = ReplicateSchema(post.point.schema(), num_keys);
  std::vector<ScalarEntry> entries(rows);
  // A key weighs its b stacked replicate rows under the morsel policy.
  std::vector<PieceRange> pieces =
      PlanPieces(rows, [b](size_t) { return std::max<size_t>(b, 1); }, ctx);
  GOLA_RETURN_NOT_OK(RunPieces(ctx, pieces.size(), [&](size_t p) -> Status {
    const size_t g0 = pieces[p].begin;
    const size_t g1 = pieces[p].end;
    Column rep_vals(TypeId::kFloat64);
    if (b > 0) {
      std::vector<std::vector<double>> values(num_aggs);
      for (size_t a = 0; a < num_aggs; ++a) {
        const double* first = post.replicates[a].data();
        values[a].assign(first + g0 * b, first + g1 * b);
      }
      Chunk stacked = StackReplicates(post.point, rep_schema, num_keys, g0, g1 - g0, b,
                                      std::move(values), /*nan_is_null=*/false);
      GOLA_ASSIGN_OR_RETURN(rep_vals, Evaluate(*block_->value_expr, stacked, point));
    }
    std::vector<double> reps(b);
    for (size_t g = g0; g < g1; ++g) {
      if (!mask[g]) continue;
      for (size_t j = 0; j < b; ++j) reps[j] = StackedValue(rep_vals, (g - g0) * b + j);
      ScalarEntry& entry = entries[g];
      entry.support = post.support[g];
      entry.point = point_vals.GetValue(g);
      double est = entry.point.is_null() ? kNaN : entry.point.ToDouble().ValueOr(kNaN);
      if (std::isnan(est)) est = ReplicateMean(reps.data(), b);
      const double sd = ReplicateStddev(reps.data(), b);
      entry.core = VariationRange::FromReplicates(reps.data(), b, est, 0.0, sd);
      entry.padded =
          VariationRange::FromReplicates(reps.data(), b, est, options_->epsilon_mult, sd);
    }
    return Status::OK();
  }));

  ScalarBroadcast broadcast;
  if (block_->corr_key) {
    // One key id per row passing HAVING, in row order.
    broadcast.keyed = true;
    SelectionVector passing;
    for (size_t i = 0; i < rows; ++i) {
      if (mask[i]) passing.push_back(static_cast<uint32_t>(i));
    }
    auto keys = std::make_shared<KeyIndex>();
    std::vector<uint32_t> ids;
    keys->Insert(post.point.column(0), &passing, &ids);
    broadcast.entries.reserve(keys->size());
    for (size_t k = 0; k < passing.size(); ++k) {
      if (ids[k] == broadcast.entries.size()) {
        broadcast.entries.push_back(std::move(entries[passing[k]]));
      }
    }
    broadcast.keys = std::move(keys);
  } else {
    if (rows != 1) {
      return Status::ExecutionError("scalar subquery did not produce one row");
    }
    if (mask[0]) {
      broadcast.global = std::move(entries[0]);
    } else {
      broadcast.global.point = Value::Null();
      broadcast.global.core = VariationRange::Point(kNaN);
      broadcast.global.padded = broadcast.global.core;
    }
  }
  env->SetScalar(block_->id, std::move(broadcast));
  return Status::OK();
}

Status OnlineBlockExec::EmitMembership(const PostAggChunk& post, OnlineEnv* env,
                                       const ExecContext& ctx) {
  const BroadcastEnv* point = &env->point_env();
  const size_t rows = post.point.num_rows();

  GOLA_ASSIGN_OR_RETURN(std::vector<uint8_t> mask,
                        EvaluateHavingMask(*block_, post.point, point));

  // One key id per group, in row order; a key failing HAVING is indexed too,
  // as a non-member, so downstream classification can still read its range.
  const Column& keys = post.point.column(static_cast<size_t>(block_->membership_key_index));
  auto view = std::make_shared<MembershipView>();
  std::vector<uint32_t> ids;
  view->keys.Insert(keys, nullptr, &ids);
  std::vector<uint32_t> first_rows;
  for (size_t i = 0; i < rows; ++i) {
    if (ids[i] == first_rows.size()) first_rows.push_back(static_cast<uint32_t>(i));
  }
  view->member.resize(first_rows.size());
  for (size_t k = 0; k < first_rows.size(); ++k) view->member[k] = mask[first_rows[k]];
  view->monotone = membership_monotone_;

  // Running classification values and the current threshold range, for
  // consumers' decision-validity monitoring — and, evaluated once here, the
  // threshold every key's range is classified against.
  if (cls_conjunct_) {
    const ClsConjunct& cls = *cls_conjunct_;
    view->cmp = cls.cmp;
    GOLA_ASSIGN_OR_RETURN(Column lhs_vals, Evaluate(*cls.lhs, post.point, point));
    view->point_lhs = lhs_vals.Gather(first_rows.data(), first_rows.size());
    if (cls.certain_rhs) {
      auto rhs = EvaluateScalar(*cls.certain_rhs, point);
      if (rhs.ok() && !rhs->is_null()) {
        double v = rhs->ToDouble().ValueOr(kNaN);
        if (!std::isnan(v)) {
          view->threshold = VariationRange::Point(v);
          view->decisive = true;
        }
      }
    } else if (cls.rhs_subquery_id >= 0) {
      const ScalarBroadcast* sb = env->scalar(cls.rhs_subquery_id);
      if (sb != nullptr && !sb->keyed && !std::isnan(sb->global.padded.lo)) {
        view->threshold = sb->global.padded;
        view->decisive = true;
      }
    }

    // Range classification of every key, once per batch (keys split by
    // range across the pool): deterministic only when the key's variation
    // range clears the threshold range. Without a threshold every key stays
    // uncertain.
    std::vector<TriState> answers(rows, TriState::kUncertain);
    const size_t b = post.num_replicates;
    const bool bare = cls.lhs->kind == ExprKind::kAggregateCall && cls.lhs->agg_slot >= 0;
    const size_t num_keys = block_->group_by.size();
    const SchemaPtr rep_schema = ReplicateSchema(post.point.schema(), num_keys);
    const VariationRange& threshold = view->threshold;
    std::vector<PieceRange> pieces = PlanPieces(
        view->decisive ? rows : 0, [b](size_t) { return std::max<size_t>(b, 1); }, ctx);
    GOLA_RETURN_NOT_OK(RunPieces(ctx, pieces.size(), [&](size_t p) -> Status {
      const size_t g0 = pieces[p].begin;
      const size_t g1 = pieces[p].end;
      std::vector<double> reps(b);
      Column rep_vals(TypeId::kFloat64);
      if (!bare && b > 0) {
        // The lhs per bootstrap world over the range's stacked replicates.
        std::vector<std::vector<double>> values(post.replicates.size());
        for (size_t a = 0; a < values.size(); ++a) {
          const double* first = post.replicates[a].data();
          values[a].assign(first + g0 * b, first + g1 * b);
        }
        Chunk stacked = StackReplicates(post.point, rep_schema, num_keys, g0, g1 - g0, b,
                                        std::move(values), /*nan_is_null=*/true);
        auto evaluated = Evaluate(*cls.lhs, stacked, point);
        if (evaluated.ok()) rep_vals = std::move(*evaluated);
      }
      for (size_t g = g0; g < g1; ++g) {
        double est = kNaN;
        if (bare) {
          // Bare aggregate slot: the group's own estimate and replicates.
          const size_t slot = static_cast<size_t>(cls.lhs->agg_slot);
          const double s = AggScale(*block_, slot, post.scale);
          uint32_t id;
          const GroupArena& arena = post.states->Resolve(post.ids[g], &id);
          Value v = arena.Finalize(id, slot, s);
          if (!v.is_null()) est = v.ToDouble().ValueOr(kNaN);
          if (b > 0) std::copy_n(post.replicates[slot].data() + g * b, b, reps.data());
        } else {
          if (!lhs_vals.IsNull(g)) est = lhs_vals.NumericAt(g);
          for (size_t j = 0; j < b; ++j) {
            reps[j] =
                rep_vals.size() > 0 ? StackedValue(rep_vals, (g - g0) * b + j) : kNaN;
          }
        }
        if (std::isnan(est)) continue;
        VariationRange lhs_range = VariationRange::FromReplicates(
            reps.data(), b, est, options_->epsilon_mult, ReplicateStddev(reps.data(), b));
        answers[g] = ClassifyRangeRange(cls.cmp, lhs_range, threshold);
      }
      return Status::OK();
    }));
    view->answers.resize(first_rows.size());
    for (size_t k = 0; k < first_rows.size(); ++k) view->answers[k] = answers[first_rows[k]];
  }

  env->SetMembership(block_->id, std::move(view));
  return Status::OK();
}

Status OnlineBlockExec::EmitRoot(const PostAggChunk& post_in, double scale,
                                 OnlineEnv* env) {
  const BroadcastEnv* point = &env->point_env();
  size_t num_groups = block_->group_by.size();
  size_t num_aggs = block_->aggs.size();

  // HAVING (point form) plus uncertain-group accounting: a cheap per-group
  // check comparing the point value with the subquery's padded range (the
  // group's own bootstrap spread is not folded in — this is a monitoring
  // statistic, not a correctness decision).
  Chunk post = post_in.point;
  size_t rows = post.num_rows();
  GOLA_ASSIGN_OR_RETURN(std::vector<uint8_t> mask,
                        EvaluateHavingMask(*block_, post, point));
  int64_t uncertain_groups = 0;
  for (const auto& h : block_->having_uncertain) {
    if (h.form == UncertainConjunct::Form::kScalarCmp && !h.outer_key) {
      const ScalarBroadcast* sb = env->scalar(h.subquery_id);
      if (sb != nullptr) {
        GOLA_ASSIGN_OR_RETURN(Column lhs_point, Evaluate(*h.lhs, post, point));
        for (size_t i = 0; i < rows; ++i) {
          if (lhs_point.IsNull(i)) continue;
          if (ClassifyCmpRange(h.cmp, lhs_point.NumericAt(i), sb->global.padded) ==
              TriState::kUncertain) {
            ++uncertain_groups;
          }
        }
      }
    }
  }
  std::vector<uint32_t> kept;  // post_in rows passing HAVING
  for (size_t i = 0; i < rows; ++i) {
    if (mask[i]) kept.push_back(static_cast<uint32_t>(i));
  }
  post = post.Filter(mask);
  rows = post.num_rows();

  // Point outputs and the sort/limit selection — decided before any
  // replicate work so error bars are only computed for surviving rows.
  std::vector<Column> out_cols;
  out_cols.reserve(block_->output_exprs.size());
  for (const auto& e : block_->output_exprs) {
    GOLA_ASSIGN_OR_RETURN(Column c, Evaluate(*e, post, point));
    out_cols.push_back(std::move(c));
  }
  std::vector<int64_t> order(rows);
  std::iota(order.begin(), order.end(), 0);
  if (!block_->order_by.empty()) {
    std::vector<Column> keys;
    std::vector<bool> desc;
    for (const auto& s : block_->order_by) {
      GOLA_ASSIGN_OR_RETURN(Column c, Evaluate(*s.expr, post, point));
      keys.push_back(std::move(c));
      desc.push_back(s.descending);
    }
    order = SortIndices(keys, desc);
  }
  if (block_->limit >= 0 && static_cast<int64_t>(order.size()) > block_->limit) {
    order.resize(static_cast<size_t>(block_->limit));
  }
  Chunk selected_post = post.Take(order);
  size_t selected = selected_post.num_rows();
  for (auto& c : out_cols) c = c.Take(order);

  // Error bars for the selected rows only: their replicate aggregate values
  // go into one flat [row × replicate] matrix per aggregate.
  obs::TraceSpan ci_span("bootstrap_ci", "rows", static_cast<int64_t>(selected));
  // Deadline degradation may finalize CIs from a prefix of the replicates.
  // Classification and envelope checks always use the full set, so results
  // stay bit-identical — only the error bars get cheaper (and wider).
  const size_t num_reps =
      weights_ ? std::min(ci_replicates_, static_cast<size_t>(weights_->num_replicates()))
               : 0;
  const bool with_bars = num_reps > 0 && selected > 0;
  std::vector<std::vector<double>> rep_matrix(with_bars ? num_aggs : 0);
  if (with_bars) {
    std::vector<double> all_reps;
    for (size_t a = 0; a < num_aggs; ++a) {
      rep_matrix[a].assign(selected * num_reps, kNaN);
      const double s = AggScale(*block_, a, scale);
      for (size_t i = 0; i < selected; ++i) {
        const uint32_t row = post_in.ids[kept[static_cast<size_t>(order[i])]];
        if (row == PostAggChunk::kNoRow) continue;
        uint32_t id;
        const GroupArena& arena = post_in.states->Resolve(row, &id);
        all_reps.resize(arena.layout()->b);
        arena.FinalizeReplicatesInto(id, a, s, all_reps.data());
        std::copy_n(all_reps.begin(), std::min(num_reps, all_reps.size()),
                    rep_matrix[a].begin() + static_cast<std::ptrdiff_t>(i * num_reps));
      }
    }
  }

  std::vector<Field> all_fields = block_->output_schema->fields();
  std::vector<Column> all_cols = std::move(out_cols);
  // Error bars exist once there are selected rows and replicates. Each
  // numeric aggregate-bearing output column then gets its companions and
  // each (row, column) a typed cell; a string one (MIN(name)) has no
  // bootstrap spread and gets neither. The aggregate-free output columns
  // form the key.
  std::vector<size_t> agg_outs, key_outs;
  for (size_t o = 0; o < block_->output_exprs.size(); ++o) {
    if (!block_->output_exprs[o]->ContainsAggregate()) {
      key_outs.push_back(o);
    } else if (all_cols[o].type() != TypeId::kString) {
      agg_outs.push_back(o);
    }
  }
  if (!with_bars) agg_outs.clear();
  const size_t row_cells = agg_outs.size();
  std::vector<obs::GroupCell> cells(selected * row_cells);
  for (size_t i = 0; i < selected && row_cells > 0; ++i) {
    std::string key = key_outs.empty() ? "*" : "";
    for (size_t k = 0; k < key_outs.size(); ++k) {
      if (k) key += '|';
      key += all_cols[key_outs[k]].GetValue(i).ToString();
    }
    for (size_t c = 0; c < row_cells; ++c) {
      cells[i * row_cells + c].group_key = key;
      cells[i * row_cells + c].column = block_->output_names[agg_outs[c]];
    }
  }
  // A bare aggregate output reads its replicates straight from its row of
  // the replicate matrix. Every other aggregate-bearing output is evaluated
  // once, over all selected rows' replicates stacked (row i, world j at
  // i * num_reps + j); undefined replicates are NULL there.
  auto bare_slot = [this](size_t o) {
    const Expr& e = *block_->output_exprs[o];
    return e.kind == ExprKind::kAggregateCall ? e.agg_slot : -1;
  };
  bool any_bare = false;
  bool any_expr = false;
  for (size_t o : agg_outs) {
    if (bare_slot(o) >= 0) {
      any_bare = true;
    } else {
      any_expr = true;
    }
  }
  Chunk stacked;
  if (any_expr) {
    std::vector<std::vector<double>> values;
    if (any_bare) values = rep_matrix;
    else values = std::move(rep_matrix);
    stacked = StackReplicates(selected_post,
                              ReplicateSchema(block_->post_agg_schema, num_groups),
                              num_groups, 0, selected, num_reps, std::move(values),
                              /*nan_is_null=*/true);
  }
  double max_rsd = 0;
  std::vector<double> reps(num_reps);
  std::vector<double> scratch;
  for (size_t agg = 0; agg < row_cells; ++agg) {
    const size_t o = agg_outs[agg];
    const int slot = bare_slot(o);
    Column rep_out;
    if (slot < 0) {
      GOLA_ASSIGN_OR_RETURN(rep_out, Evaluate(*block_->output_exprs[o], stacked, point));
    }
    Column lo(TypeId::kFloat64), hi(TypeId::kFloat64), rsd(TypeId::kFloat64);
    for (size_t i = 0; i < selected; ++i) {
      const double est = all_cols[o].IsNull(i) ? kNaN : all_cols[o].NumericAt(i);
      if (std::isnan(est)) {
        // No estimate, no error bars: NULL companions and an absent RSD,
        // which ranks worst — the answer must not read as converged.
        lo.AppendNull();
        hi.AppendNull();
        rsd.AppendNull();
        max_rsd = std::numeric_limits<double>::infinity();
        continue;
      }
      for (size_t j = 0; j < num_reps; ++j) {
        if (slot < 0) {
          reps[j] = StackedValue(rep_out, i * num_reps + j);
        } else {
          // The stacked path's reading: an undefined replicate is kNaN.
          const double v = rep_matrix[static_cast<size_t>(slot)][i * num_reps + j];
          reps[j] = std::isnan(v) ? kNaN : v;
        }
      }
      const ConfidenceInterval ci =
          PercentileCI(reps.data(), num_reps, est, options_->ci_level, &scratch);
      const double r = RelativeStdDev(reps.data(), num_reps, est);
      lo.AppendFloat(ci.lo);
      hi.AppendFloat(ci.hi);
      obs::GroupCell& cell = cells[i * row_cells + agg];
      cell.has_estimate = true;
      cell.estimate = est;
      cell.ci_lo = ci.lo;
      cell.ci_hi = ci.hi;
      if (std::isnan(r)) {
        // An estimate of 0 keeps its interval but has no relative spread:
        // absent, like a NULL estimate's, so it cannot read as converged.
        rsd.AppendNull();
        max_rsd = std::numeric_limits<double>::infinity();
        continue;
      }
      rsd.AppendFloat(r);
      max_rsd = std::max(max_rsd, r);
      cell.has_rsd = true;
      cell.rsd = r;
    }
    const std::string& name = block_->output_names[o];
    all_fields.push_back({name + "_lo", TypeId::kFloat64});
    all_fields.push_back({name + "_hi", TypeId::kFloat64});
    all_fields.push_back({name + "_rsd", TypeId::kFloat64});
    all_cols.push_back(std::move(lo));
    all_cols.push_back(std::move(hi));
    all_cols.push_back(std::move(rsd));
  }
  // An answer without a single cell has no error bars to trust yet.
  if (cells.empty()) max_rsd = std::numeric_limits<double>::infinity();

  Chunk combined(std::make_shared<Schema>(all_fields), std::move(all_cols));
  root_emission_.result = Table(combined.schema());
  root_emission_.result.AppendChunk(std::move(combined));
  root_emission_.cells = std::move(cells);
  root_emission_.max_rsd = max_rsd;
  root_emission_.uncertain_groups = uncertain_groups;
  return Status::OK();
}

}  // namespace gola
