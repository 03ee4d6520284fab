#include "gola/block_executor.h"

#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <thread>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/stopwatch.h"
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
    std::unordered_map<Value, Value, ValueHash> point_map;
    point_map.reserve(b.keyed_entries.size());
    for (const auto& [key, entry] : b.keyed_entries) point_map[key] = entry.point;
    point_.SetKeyed(id, std::move(point_map));
  } else {
    point_.SetScalar(id, b.global.point);
  }
  scalars_[id] = std::move(b);
}

void OnlineEnv::SetMembershipView(int id, std::unordered_set<Value, ValueHash> members,
                                  MembershipSource* source) {
  point_.SetMembership(id, std::move(members));
  membership_[id] = source;
}

const ScalarBroadcast* OnlineEnv::scalar(int id) const {
  auto it = scalars_.find(id);
  return it == scalars_.end() ? nullptr : &it->second;
}

MembershipSource* OnlineEnv::membership(int id) const {
  auto it = membership_.find(id);
  return it == membership_.end() ? nullptr : it->second;
}

// ------------------------------------------------------ OnlineBlockExec --

OnlineBlockExec::OnlineBlockExec(const BlockDef* block, const Catalog* catalog,
                                 const GolaOptions* options,
                                 const PoissonWeights* weights)
    : block_(block), catalog_(catalog), options_(options), weights_(weights) {}

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
  ctx.vectorized = options_->vectorized;
  ctx.max_morsel_retries = options_->max_morsel_retries;
  ctx.retry_backoff_ms = options_->retry_backoff_ms;
  return ctx;
}

Status OnlineBlockExec::RunPipelineWithRetry(const ExecContext& ctx,
                                             const std::vector<MorselSource>& sources,
                                             Chunk* uncertain_out, const char* what) {
  Status st = pipeline_.Run(ctx, sources, uncertain_out);
  for (int r = 1; !st.ok() && fail::Retryable(st) && r <= options_->max_morsel_retries;
       ++r) {
    // A failed Run left no merged state behind: the barrier only merges after
    // every morsel succeeded, and per-morsel slots are rebuilt by BeginBatch.
    // Resetting the uncertain sink is the only cleanup a rerun needs.
    if (uncertain_out != nullptr) *uncertain_out = EmptyUncertain();
    if (obs::MetricsEnabled()) {
      obs::MetricsRegistry::Global()
          .GetCounter("gola_block_pipeline_retries_total")
          ->Increment();
    }
    obs::FlightRecorder::Global().Note("pipeline_retry", what, block_->id);
    int64_t backoff = static_cast<int64_t>(options_->retry_backoff_ms) << (r - 1);
    if (backoff > 0) std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    st = pipeline_.Run(ctx, sources, uncertain_out);
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
  // OnlineClassify → OnlineFold.
  GOLA_ASSIGN_OR_RETURN(DimJoinSet dims, DimJoinSet::Build(*block_, *catalog_));
  join_stage_.emplace(block_, std::move(dims));
  filter_stage_.emplace(FilterStage::CertainOnly(*block_));
  agg_ = std::make_unique<OnlineAggregate>(block_, weights_);
  classify_stage_ = std::make_unique<OnlineClassifyStage>(block_, options_);
  fold_stage_ = std::make_unique<OnlineFoldStage>(agg_.get());
  pipeline_ = DeltaPipeline();
  if (!join_stage_->empty()) pipeline_.Add(&*join_stage_);
  if (!filter_stage_->empty()) pipeline_.Add(&*filter_stage_);
  pipeline_.SetClassify(classify_stage_.get());
  pipeline_.SetSink(fold_stage_.get());

  uncertain_ = EmptyUncertain();

  uncertain_point_exprs_.clear();
  for (const auto& uc : block_->uncertain_conjuncts) {
    uncertain_point_exprs_.push_back(uc.ToPointExpr());
  }

  // Membership classification conjunct (kMembership blocks): usable when
  // there is exactly one HAVING conjunct of comparison shape whose rhs is
  // group-free.
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
        if (lhs->ContainsAggregate() && !rhs->ContainsAggregate()) {
          ClsConjunct cls;
          cls.lhs = lhs;
          cls.cmp = cmp;
          cls.certain_rhs = rhs;
          cls_conjunct_ = std::move(cls);
        }
      }
    } else if (total == 1 && block_->having_uncertain.size() == 1) {
      const UncertainConjunct& uc = block_->having_uncertain[0];
      if (uc.form == UncertainConjunct::Form::kScalarCmp && !uc.outer_key) {
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
  if (classify_stage_) classify_stage_->ResetEnvelopes();
  last_overlay_.reset();
  last_point_lhs_.clear();
  last_members_.clear();
  classify_cache_.clear();
  rows_seen_ = 0;
}

Result<RangeFailure> OnlineBlockExec::ProcessBatch(const Chunk& batch, double scale,
                                                   OnlineEnv* env,
                                                   obs::QueryStats* stats) {
  GOLA_RETURN_NOT_OK(Init());
  obs::TraceSpan block_span("block", "id", block_->id);
  Stopwatch phase_timer;
  RangeFailure violated;
  {
    obs::TraceSpan span("envelope_check");
    GOLA_ASSIGN_OR_RETURN(violated, classify_stage_->CheckEnvelopes(env));
  }
  if (violated == RangeFailure::kNone && GOLA_FAILPOINT("gola.check_envelopes")) {
    // Forced range failure: exercises the full recovery path (the caller
    // runs a query-wide Rebuild) without waiting for a real envelope escape.
    violated = RangeFailure::kInjected;
  }
  if (stats) stats->envelope_check_seconds += phase_timer.ElapsedSeconds();
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
  // post-join/post-filter, so it re-enters at the classify stage) plus the
  // new batch — the only tuples the delta update must touch (§3.2).
  Chunk uncertain_prev = std::move(uncertain_);
  uncertain_ = EmptyUncertain();
  std::vector<MorselSource> sources;
  if (uncertain_prev.num_rows() > 0) {
    sources.push_back({&uncertain_prev, pipeline_.num_transforms()});
  }
  sources.push_back({&batch, 0});

  classify_stage_->SetEnv(env);
  ExecContext ctx = MakeContext(scale, env);
  phase_timer.Restart();
  {
    obs::TraceSpan span("delta_exec");
    Status st = RunPipelineWithRetry(ctx, sources, &uncertain_, "batch");
    if (!st.ok()) {
      // Retries exhausted (or non-retryable): put the pre-batch lineage
      // cache back so the block stays at its batch-(i-1) state.
      uncertain_ = std::move(uncertain_prev);
      return st;
    }
  }
  if (stats) stats->delta_exec_seconds += phase_timer.ElapsedSeconds();

  rows_seen_ += static_cast<int64_t>(batch.num_rows());
  phase_timer.Restart();
  {
    obs::TraceSpan span("emit");
    GOLA_RETURN_NOT_OK(Emit(scale, env));
  }
  if (stats) stats->emit_seconds += phase_timer.ElapsedSeconds();
  return RangeFailure::kNone;
}

Status OnlineBlockExec::Rebuild(const std::vector<const Chunk*>& seen, double scale,
                                OnlineEnv* env, obs::QueryStats* stats) {
  GOLA_RETURN_NOT_OK(Init());
  GOLA_FAILPOINT_RETURN("gola.rebuild");
  obs::TraceSpan block_span("rebuild_block", "id", block_->id);
  Stopwatch rebuild_timer;
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
  GOLA_RETURN_NOT_OK(RunPipelineWithRetry(ctx, sources, &uncertain_, "rebuild"));
  Status st = Emit(scale, env);
  if (stats) stats->rebuild_seconds += rebuild_timer.ElapsedSeconds();
  return st;
}

Status OnlineBlockExec::ReEmit(double scale, OnlineEnv* env) {
  GOLA_RETURN_NOT_OK(Init());
  return Emit(scale, env);
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
  // Broadcast-facing caches (overlay, membership views, classify cache) are
  // intentionally stale here; the caller ReEmits every block in dependency
  // order to rebuild them from the restored aggregates.
  last_overlay_.reset();
  last_point_lhs_.clear();
  last_members_.clear();
  classify_cache_.clear();
  return Status::OK();
}

// ------------------------------------------------------------- emission --

Status OnlineBlockExec::Emit(double scale, OnlineEnv* env) {
  const BroadcastEnv* point = &env->point_env();
  AggOverlay overlay(agg_.get());

  if (uncertain_.num_rows() > 0 && !uncertain_point_exprs_.empty()) {
    size_t n = uncertain_.num_rows();
    std::vector<uint8_t> mask(n, 1);
    for (const auto& pred : uncertain_point_exprs_) {
      GOLA_ASSIGN_OR_RETURN(std::vector<uint8_t> sel,
                            EvaluatePredicate(*pred, uncertain_, point));
      for (size_t i = 0; i < n; ++i) mask[i] &= sel[i];
    }
    Chunk passing = uncertain_.Filter(mask);
    if (passing.num_rows() > 0) {
      GOLA_RETURN_NOT_OK(overlay.Update(passing, point, options_->vectorized));
    }
  }

  // Scalar blocks broadcast per-key ranges, so they finalize replicates for
  // every group up front; root blocks compute error bars lazily for the few
  // rows that survive HAVING/ORDER BY/LIMIT; membership blocks answer
  // per-key range queries lazily through the MembershipSource interface.
  bool with_replicates = block_->kind == BlockKind::kScalar;
  GOLA_ASSIGN_OR_RETURN(PostAggChunk post, overlay.Finalize(scale, with_replicates));
  last_overlay_ = std::move(overlay);
  last_scale_ = scale;
  last_env_ = env;

  switch (block_->kind) {
    case BlockKind::kScalar:
      return EmitScalar(post, scale, env);
    case BlockKind::kMembership:
      return EmitMembership(post, env);
    case BlockKind::kRoot:
      return EmitRoot(post, scale, env);
  }
  return Status::Internal("unreachable block kind");
}

Status OnlineBlockExec::EmitScalar(const PostAggChunk& post, double scale,
                                   OnlineEnv* env) {
  (void)scale;
  const BroadcastEnv* point = &env->point_env();
  size_t num_groups = block_->group_by.size();
  size_t rows = post.point.num_rows();

  // Optional HAVING (point form) masks rows out of the broadcast.
  GOLA_ASSIGN_OR_RETURN(std::vector<uint8_t> mask,
                        EvaluateHavingMask(*block_, post.point, point));

  GOLA_ASSIGN_OR_RETURN(Column point_vals, Evaluate(*block_->value_expr, post.point, point));
  size_t num_reps = post.replicate_cols.size();
  std::vector<Column> rep_vals;
  rep_vals.reserve(num_reps);
  for (size_t j = 0; j < num_reps; ++j) {
    Chunk rep_chunk = post.ReplicateChunk(j, num_groups);
    GOLA_ASSIGN_OR_RETURN(Column c, Evaluate(*block_->value_expr, rep_chunk, point));
    rep_vals.push_back(std::move(c));
  }

  auto make_entry = [&](size_t row) {
    ScalarEntry entry;
    entry.support = post.support[row];
    entry.point = point_vals.GetValue(row);
    std::vector<double> reps(num_reps, kNaN);
    for (size_t j = 0; j < num_reps; ++j) {
      if (!rep_vals[j].IsNull(row)) reps[j] = rep_vals[j].NumericAt(row);
    }
    double est = entry.point.is_null() ? kNaN : entry.point.ToDouble().ValueOr(kNaN);
    if (std::isnan(est)) est = ReplicateMean(reps);
    entry.core = VariationRange::FromReplicates(reps, est, 0.0);
    entry.padded = VariationRange::FromReplicates(reps, est, options_->epsilon_mult);
    return entry;
  };

  ScalarBroadcast broadcast;
  if (block_->corr_key) {
    broadcast.keyed = true;
    broadcast.keyed_entries.reserve(rows);
    for (size_t i = 0; i < rows; ++i) {
      if (!mask[i]) continue;
      broadcast.keyed_entries.emplace(post.point.column(0).GetValue(i), make_entry(i));
    }
  } else {
    if (rows != 1) {
      return Status::ExecutionError("scalar subquery did not produce one row");
    }
    if (mask[0]) {
      broadcast.global = make_entry(0);
    } else {
      broadcast.global.point = Value::Null();
      broadcast.global.core = VariationRange::Point(kNaN);
      broadcast.global.padded = broadcast.global.core;
    }
  }
  env->SetScalar(block_->id, std::move(broadcast));
  return Status::OK();
}

Status OnlineBlockExec::EmitMembership(const PostAggChunk& post, OnlineEnv* env) {
  const BroadcastEnv* point = &env->point_env();
  size_t rows = post.point.num_rows();

  GOLA_ASSIGN_OR_RETURN(std::vector<uint8_t> mask,
                        EvaluateHavingMask(*block_, post.point, point));

  const Column& keys = post.point.column(static_cast<size_t>(block_->membership_key_index));
  std::unordered_set<Value, ValueHash> members;
  members.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    if (mask[i] && !keys.IsNull(i)) members.insert(keys.GetValue(i));
  }

  // Running classification values and the current threshold range, for
  // consumers' decision-validity monitoring.
  last_point_lhs_.clear();
  last_rhs_valid_ = false;
  if (cls_conjunct_) {
    GOLA_ASSIGN_OR_RETURN(Column lhs_vals,
                          Evaluate(*cls_conjunct_->lhs, post.point, point));
    last_point_lhs_.reserve(rows);
    for (size_t i = 0; i < rows; ++i) {
      if (!keys.IsNull(i) && !lhs_vals.IsNull(i)) {
        last_point_lhs_[keys.GetValue(i)] = lhs_vals.NumericAt(i);
      }
    }
    if (cls_conjunct_->certain_rhs) {
      auto rhs = EvaluateScalar(*cls_conjunct_->certain_rhs, point);
      if (rhs.ok() && !rhs->is_null()) {
        double v = rhs->ToDouble().ValueOr(kNaN);
        if (!std::isnan(v)) {
          last_rhs_range_ = VariationRange::Point(v);
          last_rhs_valid_ = true;
        }
      }
    } else if (cls_conjunct_->rhs_subquery_id >= 0) {
      const ScalarBroadcast* sb = env->scalar(cls_conjunct_->rhs_subquery_id);
      if (sb != nullptr && !sb->keyed && !std::isnan(sb->global.padded.lo)) {
        last_rhs_range_ = sb->global.padded;
        last_rhs_valid_ = true;
      }
    }
  }

  last_members_ = members;
  classify_cache_.clear();
  env->SetMembershipView(block_->id, std::move(members), this);
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

  // Lazy error bars: replicate aggregate values are finalized only for the
  // selected rows, looked up from the overlay by group key.
  obs::TraceSpan ci_span("bootstrap_ci", "rows", static_cast<int64_t>(selected));
  size_t num_reps = weights_ ? static_cast<size_t>(weights_->num_replicates()) : 0;
  // Deadline degradation: finalize CIs from a prefix of the replicates.
  // Classification and envelope checks always use the full set, so results
  // stay bit-identical — only the error bars get cheaper (and wider).
  if (options_->active_replicates >= 0 &&
      static_cast<size_t>(options_->active_replicates) < num_reps) {
    num_reps = static_cast<size_t>(options_->active_replicates);
  }
  std::vector<std::vector<Column>> rep_cols;  // [replicate][agg]
  if (num_reps > 0 && selected > 0 && last_overlay_) {
    rep_cols.assign(num_reps, {});
    for (auto& rep : rep_cols) {
      rep.reserve(num_aggs);
      for (size_t a = 0; a < num_aggs; ++a) rep.emplace_back(TypeId::kFloat64);
    }
    GroupKey key;
    key.values.resize(num_groups);
    for (size_t i = 0; i < selected; ++i) {
      for (size_t g = 0; g < num_groups; ++g) {
        key.values[g] = selected_post.column(g).GetValue(i);
      }
      const GroupStates* states = last_overlay_->Find(key);
      for (size_t a = 0; a < num_aggs; ++a) {
        double s = block_->aggs[a].fn->ScalesWithMultiplicity() ? scale : 1.0;
        std::vector<double> reps =
            states ? states->aggs[a].FinalizeReplicates(s) : std::vector<double>();
        for (size_t j = 0; j < num_reps; ++j) {
          double v = j < reps.size() ? reps[j] : kNaN;
          if (std::isnan(v)) rep_cols[j][a].AppendNull();
          else rep_cols[j][a].AppendFloat(v);
        }
      }
    }
  }

  std::vector<Field> all_fields = block_->output_schema->fields();
  std::vector<Column> all_cols = std::move(out_cols);
  // Error bars exist once there are selected rows and replicates. Each
  // aggregate-bearing output column then gets its companions and each
  // (row, column) a typed cell; the other output columns form the key.
  std::vector<size_t> agg_outs, key_outs;
  for (size_t o = 0; o < block_->output_exprs.size(); ++o) {
    (block_->output_exprs[o]->ContainsAggregate() ? agg_outs : key_outs).push_back(o);
  }
  if (rep_cols.empty()) agg_outs.clear();
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
  double max_rsd = 0;
  for (size_t agg = 0; agg < row_cells; ++agg) {
    const size_t o = agg_outs[agg];
    const ExprPtr& e = block_->output_exprs[o];
    std::vector<Column> rep_out;
    rep_out.reserve(num_reps);
    for (size_t j = 0; j < num_reps; ++j) {
      std::vector<Column> cols;
      cols.reserve(num_groups + num_aggs);
      for (size_t g = 0; g < num_groups; ++g) cols.push_back(selected_post.column(g));
      for (size_t a = 0; a < num_aggs; ++a) cols.push_back(rep_cols[j][a]);
      // Agg slots are float64 in replicate space; group columns unchanged.
      std::vector<Field> fields;
      for (size_t g = 0; g < num_groups; ++g) {
        fields.push_back(block_->post_agg_schema->field(g));
      }
      for (size_t a = 0; a < num_aggs; ++a) {
        fields.push_back({block_->post_agg_schema->field(num_groups + a).name,
                          TypeId::kFloat64});
      }
      Chunk rep_chunk(std::make_shared<Schema>(fields), std::move(cols));
      GOLA_ASSIGN_OR_RETURN(Column c, Evaluate(*e, rep_chunk, point));
      rep_out.push_back(std::move(c));
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
      std::vector<double> reps(num_reps, kNaN);
      for (size_t j = 0; j < num_reps; ++j) {
        if (!rep_out[j].IsNull(i)) reps[j] = rep_out[j].NumericAt(i);
      }
      const ConfidenceInterval ci = PercentileCI(reps, est, options_->ci_level);
      const double r = RelativeStdDev(reps, est);
      lo.AppendFloat(ci.lo);
      hi.AppendFloat(ci.hi);
      rsd.AppendFloat(r);
      max_rsd = std::max(max_rsd, r);
      obs::GroupCell& cell = cells[i * row_cells + agg];
      cell.has_estimate = cell.has_rsd = true;
      cell.estimate = est;
      cell.ci_lo = ci.lo;
      cell.ci_hi = ci.hi;
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

  Chunk combined(std::make_shared<Schema>(all_fields), std::move(all_cols));
  root_emission_.result = Table(combined.schema());
  root_emission_.result.AppendChunk(std::move(combined));
  root_emission_.cells = std::move(cells);
  root_emission_.max_rsd = max_rsd;
  root_emission_.uncertain_groups = uncertain_groups;
  return Status::OK();
}

// ---------------------------------------------------- MembershipSource --

TriState OnlineBlockExec::ClassifyKey(const Value& key) {
  // Downstream blocks call this from concurrent morsels; the backing state
  // is frozen between Emits, so the answer per key is deterministic and a
  // mutex around the shared cache suffices.
  std::lock_guard<std::mutex> lock(classify_mu_);
  if (membership_monotone_) {
    // No HAVING: a key's presence can only be established, never revoked.
    return last_members_.count(key) ? TriState::kTrue : TriState::kUncertain;
  }
  if (!cls_conjunct_ || !last_overlay_) return TriState::kUncertain;
  auto cached = classify_cache_.find(key);
  if (cached != classify_cache_.end()) return cached->second;

  TriState result = TriState::kUncertain;
  GroupKey gkey;
  gkey.values.push_back(key);
  const GroupStates* states = last_overlay_->Find(gkey);
  if (states != nullptr) {
    // Replicate values of the classification lhs for this key.
    size_t num_reps = static_cast<size_t>(weights_->num_replicates());
    std::vector<double> reps(num_reps, kNaN);
    double est = kNaN;
    const ClsConjunct& cls = *cls_conjunct_;
    if (cls.lhs->kind == ExprKind::kAggregateCall && cls.lhs->agg_slot >= 0) {
      // Fast path: bare aggregate slot.
      const ReplicatedAgg& agg = states->aggs[static_cast<size_t>(cls.lhs->agg_slot)];
      double s = block_->aggs[static_cast<size_t>(cls.lhs->agg_slot)]
                         .fn->ScalesWithMultiplicity()
                     ? last_scale_
                     : 1.0;
      Value v = agg.Finalize(s);
      if (!v.is_null()) est = v.ToDouble().ValueOr(kNaN);
      reps = agg.FinalizeReplicates(s);
    } else {
      // General path: build one-row point/replicate chunks for this group.
      size_t num_aggs = block_->aggs.size();
      std::vector<Column> cols;
      cols.reserve(1 + num_aggs);
      Column key_col(block_->post_agg_schema->field(0).type);
      key_col.Append(key);
      cols.push_back(std::move(key_col));
      std::vector<std::vector<double>> agg_reps(num_aggs);
      for (size_t a = 0; a < num_aggs; ++a) {
        double s = block_->aggs[a].fn->ScalesWithMultiplicity() ? last_scale_ : 1.0;
        Column c(block_->post_agg_schema->field(1 + a).type);
        c.Append(states->aggs[a].Finalize(s));
        cols.push_back(std::move(c));
        agg_reps[a] = states->aggs[a].FinalizeReplicates(s);
      }
      Chunk point_row(block_->post_agg_schema, std::move(cols));
      const BroadcastEnv* penv = last_env_ ? &last_env_->point_env() : nullptr;
      auto lhs_point = Evaluate(*cls.lhs, point_row, penv);
      if (lhs_point.ok() && !lhs_point->IsNull(0)) est = lhs_point->NumericAt(0);
      for (size_t j = 0; j < num_reps; ++j) {
        std::vector<Column> rep_cols;
        rep_cols.reserve(1 + num_aggs);
        Column kc(block_->post_agg_schema->field(0).type);
        kc.Append(key);
        rep_cols.push_back(std::move(kc));
        for (size_t a = 0; a < num_aggs; ++a) {
          Column c(TypeId::kFloat64);
          if (std::isnan(agg_reps[a][j])) c.AppendNull();
          else c.AppendFloat(agg_reps[a][j]);
          rep_cols.push_back(std::move(c));
        }
        Chunk rep_row(block_->post_agg_schema, std::move(rep_cols));
        auto v = Evaluate(*cls.lhs, rep_row, penv);
        if (v.ok() && !v->IsNull(0)) reps[j] = v->NumericAt(0);
      }
    }

    if (!std::isnan(est)) {
      VariationRange lhs_range =
          VariationRange::FromReplicates(reps, est, options_->epsilon_mult);
      VariationRange rhs_range = VariationRange::Point(kNaN);
      bool have_rhs = false;
      if (cls.certain_rhs) {
        const BroadcastEnv* penv = last_env_ ? &last_env_->point_env() : nullptr;
        auto rhs = EvaluateScalar(*cls.certain_rhs, penv);
        if (rhs.ok() && !rhs->is_null()) {
          rhs_range = VariationRange::Point(rhs->ToDouble().ValueOr(kNaN));
          have_rhs = !std::isnan(rhs_range.lo);
        }
      } else if (cls.rhs_subquery_id >= 0 && last_env_ != nullptr) {
        const ScalarBroadcast* sb = last_env_->scalar(cls.rhs_subquery_id);
        if (sb != nullptr && !sb->keyed) {
          rhs_range = sb->global.padded;
          have_rhs = !std::isnan(rhs_range.lo);
        }
      }
      if (have_rhs) {
        result = ClassifyRangeRange(cls.cmp, lhs_range, rhs_range);
      }
    }
  }
  classify_cache_.emplace(key, result);
  return result;
}

TriState OnlineBlockExec::CurrentPointDecision(const Value& key) {
  if (membership_monotone_) {
    // Presence-only membership is monotone: an established member stays.
    return last_members_.count(key) ? TriState::kTrue : TriState::kUncertain;
  }
  if (!cls_conjunct_ || !last_rhs_valid_) return TriState::kUncertain;
  auto it = last_point_lhs_.find(key);
  if (it == last_point_lhs_.end()) return TriState::kUncertain;
  return ClassifyCmpRange(cls_conjunct_->cmp, it->second, last_rhs_range_);
}

}  // namespace gola
