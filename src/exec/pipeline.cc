#include "exec/pipeline.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>

#include "common/failpoint.h"
#include "common/random.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gola {

namespace {

/// Pre-looked-up registry handles for one Run call. Stage histograms are
/// fetched by name once per Run (a mutex-guarded map lookup), never per
/// morsel — the morsel hot path pays only relaxed atomic adds.
struct RunObs {
  bool on = false;
  obs::Counter* runs_total = nullptr;
  obs::Counter* morsels_total = nullptr;
  obs::Counter* rows_in_total = nullptr;
  obs::Counter* rows_folded_total = nullptr;
  obs::Counter* rows_uncertain_total = nullptr;
  obs::Histogram* morsel_us = nullptr;
  std::vector<obs::Histogram*> stage_us;  // transforms, then classify, sink

  static RunObs Lookup(const std::vector<const TransformStage*>& transforms,
                       const ClassifyStage* classify, const AggregateStage* sink) {
    RunObs o;
    o.on = obs::MetricsEnabled();
    if (!o.on) return o;
    auto& reg = obs::MetricsRegistry::Global();
    o.runs_total = reg.GetCounter("gola_pipeline_runs_total");
    o.morsels_total = reg.GetCounter("gola_pipeline_morsels_total");
    o.rows_in_total = reg.GetCounter("gola_pipeline_rows_in_total");
    o.rows_folded_total = reg.GetCounter("gola_pipeline_rows_folded_total");
    o.rows_uncertain_total = reg.GetCounter("gola_pipeline_rows_uncertain_total");
    o.morsel_us = reg.GetHistogram("gola_pipeline_morsel_us");
    auto stage_hist = [&reg](const char* name) {
      return reg.GetHistogram(
          Format("gola_pipeline_stage_us{stage=\"%s\"}", name));
    };
    o.stage_us.reserve(transforms.size() + 2);
    for (const TransformStage* t : transforms) o.stage_us.push_back(stage_hist(t->name()));
    if (classify != nullptr) o.stage_us.push_back(stage_hist(classify->name()));
    if (sink != nullptr) o.stage_us.push_back(stage_hist(sink->name()));
    return o;
  }
};

}  // namespace

// ----------------------------------------------------------- DimJoinSet --

Result<DimJoinSet> DimJoinSet::Build(const BlockDef& block, const Catalog& catalog) {
  DimJoinSet set;
  // Layout after stage j = scan columns + dims[0..j] columns; the final
  // stage equals block.input_schema.
  std::vector<Field> fields = block.ScanSchema()->fields();
  for (const auto& join : block.dim_joins) {
    GOLA_ASSIGN_OR_RETURN(TablePtr dim, catalog.GetTable(join.table));
    GOLA_ASSIGN_OR_RETURN(DimHashTable table, DimHashTable::Build(*dim, *join.build_key));
    set.tables_.push_back(std::move(table));
    for (const auto& f : dim->schema()->fields()) fields.push_back(f);
    set.stage_schemas_.push_back(std::make_shared<Schema>(fields));
  }
  return set;
}

Result<Chunk> DimJoinSet::Apply(const BlockDef& block, const Chunk& chunk) const {
  Chunk current = chunk;
  for (size_t j = 0; j < tables_.size(); ++j) {
    GOLA_ASSIGN_OR_RETURN(
        current, tables_[j].Probe(current, *block.dim_joins[j].probe_key,
                                  stage_schemas_[j]));
  }
  return current;
}

// ---------------------------------------------------------- DimJoinStage --

Result<Chunk> DimJoinStage::Apply(Chunk in, const ExecContext& ctx) const {
  if (dims_.empty()) return in;
  GOLA_ASSIGN_OR_RETURN(Chunk out, dims_.Apply(*block_, in));
  if (ctx.metrics) ctx.metrics->rows_joined += static_cast<int64_t>(out.num_rows());
  return out;
}

// ----------------------------------------------------------- FilterStage --

FilterStage FilterStage::CertainOnly(const BlockDef& block) {
  return FilterStage(block.certain_conjuncts);
}

FilterStage FilterStage::AllPointForms(const BlockDef& block) {
  std::vector<ExprPtr> preds = block.certain_conjuncts;
  for (const auto& uc : block.uncertain_conjuncts) preds.push_back(uc.ToPointExpr());
  return FilterStage(std::move(preds));
}

Result<Chunk> FilterStage::Apply(Chunk in, const ExecContext& ctx) const {
  size_t n = in.num_rows();
  if (n == 0 || preds_.empty()) {
    if (ctx.metrics) ctx.metrics->rows_filtered += static_cast<int64_t>(n);
    return in;
  }
  // Selection-vector path: each predicate refines the survivor list in
  // place (typed column-vs-literal fast paths touch only surviving rows),
  // and the morsel is gathered once at the end — no per-predicate boolean
  // columns, no intermediate chunks.
  obs::TraceSpan span("kernel_filter", "rows", static_cast<int64_t>(n));
  SelectionVector sel(n);
  for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
  for (const auto& pred : preds_) {
    GOLA_RETURN_NOT_OK(EvaluatePredicateInto(*pred, in, ctx.env, &sel));
    if (sel.empty()) break;
  }
  Chunk out = sel.size() == n ? std::move(in) : in.Gather(sel);
  if (ctx.metrics) ctx.metrics->rows_filtered += static_cast<int64_t>(out.num_rows());
  return out;
}

// ------------------------------------------------------------- FoldStage --

void FoldStage::BeginBatch(size_t num_morsels) {
  tiles_.clear();
  tiles_.resize(num_morsels);
}

Status FoldStage::Consume(size_t morsel_index, Chunk in, const ExecContext& ctx) {
  // Retry idempotency: fold into a local tile and only then publish it into
  // the morsel's slot, so a fold that fails (or trips the failpoint) partway
  // leaves no half-accumulated state behind for the retry to double-count.
  GOLA_FAILPOINT_RETURN("bootstrap.replicate");
  GroupArena tile;
  GOLA_RETURN_NOT_OK(agg_->FoldTileOf(in, ctx.env, &tile));
  tiles_[morsel_index] = std::move(tile);
  return Status::OK();
}

Status FoldStage::Finish() {
  for (GroupArena& tile : tiles_) {
    if (tile.size() > 0) agg_->MergeTile(tile);
  }
  tiles_.clear();
  return Status::OK();
}

// ---------------------------------------------------------- CollectStage --

void CollectStage::BeginBatch(size_t num_morsels) {
  outputs_.assign(num_morsels, Chunk());
  combined_ = Chunk();
}

Status CollectStage::Consume(size_t morsel_index, Chunk in, const ExecContext& ctx) {
  (void)ctx;
  // Unconditional slot overwrite — see FoldStage::Consume.
  outputs_[morsel_index] = std::move(in);
  return Status::OK();
}

Status CollectStage::Finish() {
  combined_ = Chunk(schema_, [&] {
    std::vector<Column> cols;
    for (const auto& f : schema_->fields()) cols.emplace_back(f.type);
    return cols;
  }());
  for (auto& out : outputs_) {
    if (out.num_rows() > 0) {
      GOLA_RETURN_NOT_OK(combined_.Append(out));
    }
  }
  outputs_.clear();
  return Status::OK();
}

// ----------------------------------------------------------- PlanMorsels --

std::vector<MorselPlan> PlanMorsels(const std::vector<MorselSource>& sources,
                                    size_t min_morsel_rows, size_t max_morsels) {
  if (min_morsel_rows == 0) min_morsel_rows = 1;
  if (max_morsels == 0) max_morsels = 1;
  size_t total = 0;
  for (const auto& s : sources) total += s.chunk->num_rows();

  // Target morsel size from the *total* row count: at most max_morsels
  // pieces, none smaller than min_morsel_rows (except a chunk's remainder).
  size_t target = (total + max_morsels - 1) / max_morsels;
  if (target < min_morsel_rows) target = min_morsel_rows;

  std::vector<MorselPlan> plan;
  for (const auto& s : sources) {
    size_t n = s.chunk->num_rows();
    if (n == 0) continue;
    size_t pieces = (n + target - 1) / target;
    size_t base = n / pieces;
    size_t rem = n % pieces;
    size_t offset = 0;
    for (size_t p = 0; p < pieces; ++p) {
      size_t rows = base + (p < rem ? 1 : 0);
      plan.push_back({s.chunk, offset, rows, s.first_stage,
                      static_cast<size_t>(&s - sources.data())});
      offset += rows;
    }
  }
  return plan;
}

// ------------------------------------------------------------ PlanPieces --

std::vector<PieceRange> PlanPieces(size_t num_items,
                                   const std::function<size_t(size_t)>& rows_of,
                                   const ExecContext& ctx) {
  std::vector<PieceRange> pieces;
  if (num_items == 0) return pieces;
  const size_t min_rows = std::max<size_t>(ctx.min_morsel_rows, 1);
  const size_t max_pieces = std::max<size_t>(ctx.max_morsels, 1);
  size_t total = 0;
  for (size_t i = 0; i < num_items; ++i) total += rows_of(i);
  // The same target PlanMorsels derives from the total row count.
  const size_t target = std::max((total + max_pieces - 1) / max_pieces, min_rows);
  PieceRange current;
  size_t rows = 0;
  for (size_t i = 0; i < num_items; ++i) {
    rows += rows_of(i);
    if (rows >= target && pieces.size() + 1 < max_pieces) {
      current.end = i + 1;
      pieces.push_back(current);
      current.begin = i + 1;
      rows = 0;
    }
  }
  if (current.begin < num_items) {
    current.end = num_items;
    pieces.push_back(current);
  }
  return pieces;
}

Status RunPieces(const ExecContext& ctx, size_t num_pieces,
                 const std::function<Status(size_t)>& fn) {
  std::vector<Status> statuses(num_pieces, Status::OK());
  // started[p] is set by whichever thread claims piece p; a piece the pool
  // dropped before starting it is left unclaimed and runs here instead.
  std::unique_ptr<std::atomic<bool>[]> started(new std::atomic<bool>[num_pieces]);
  for (size_t p = 0; p < num_pieces; ++p) started[p].store(false);
  auto run = [&](size_t p) {
    if (started[p].exchange(true)) return;
    try {
      statuses[p] = fn(p);
    } catch (const std::exception& e) {
      statuses[p] = Status::ExecutionError(Format("piece %zu raised: %s", p, e.what()));
    } catch (...) {
      statuses[p] = Status::ExecutionError(
          Format("piece %zu raised a non-standard exception", p));
    }
  };
  if (ctx.pool != nullptr && num_pieces > 1) {
    try {
      ctx.pool->ParallelFor(num_pieces, run);
    } catch (...) {
      // Only dispatch faults get here: run() contains its body's throws.
    }
  }
  for (size_t p = 0; p < num_pieces; ++p) run(p);
  for (const Status& st : statuses) GOLA_RETURN_NOT_OK(st);
  return Status::OK();
}

namespace {

/// Copies `slots` (rows of one schema, in slot order) after the rows already
/// in `out`, with their serials, spreading the copy over the pool by slot.
/// Bit-for-bit the chunk a sequence of Chunk::Append calls would build.
Status ConcatSlots(const ExecContext& ctx, const std::vector<Chunk>& slots, Chunk* out) {
  std::vector<size_t> offsets(slots.size() + 1, 0);
  offsets[0] = out->num_rows();
  const Chunk* shape = out->num_columns() > 0 ? out : nullptr;
  bool serials = out->has_serials();
  for (size_t i = 0; i < slots.size(); ++i) {
    offsets[i + 1] = offsets[i] + slots[i].num_rows();
    if (slots[i].num_rows() == 0) continue;
    if (shape == nullptr) shape = &slots[i];
    if (slots[i].num_columns() != shape->num_columns()) {
      return Status::Internal("chunk append: column count mismatch");
    }
    serials = serials || slots[i].has_serials();
  }
  const size_t total = offsets.back();
  if (shape == nullptr || total == out->num_rows()) return Status::OK();
  const size_t ncols = shape->num_columns();

  // Output columns sized once; a null mask only where some input has one.
  std::vector<Column> cols;
  std::vector<std::vector<uint8_t>> nulls(ncols);
  cols.reserve(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    const TypeId type = shape->column(c).type();
    bool need_nulls = out->num_columns() > 0 && out->column(c).has_nulls();
    for (const Chunk& slot : slots) {
      if (slot.num_rows() == 0) continue;
      if (slot.column(c).type() != type) {
        return Status::TypeError(Format("append %s column to %s column",
                                        TypeIdToString(slot.column(c).type()),
                                        TypeIdToString(type)));
      }
      need_nulls = need_nulls || slot.column(c).has_nulls();
    }
    Column col = out->num_columns() > 0 ? out->column(c) : Column(type);
    switch (type) {
      case TypeId::kBool: col.mutable_bools().resize(total); break;
      case TypeId::kInt64: col.mutable_ints().resize(total); break;
      case TypeId::kFloat64: col.mutable_floats().resize(total); break;
      case TypeId::kString: col.mutable_strings().resize(total); break;
      case TypeId::kNull: break;
    }
    if (need_nulls) {
      nulls[c] = col.nulls();
      nulls[c].resize(total, 0);
    }
    cols.push_back(std::move(col));
  }
  std::vector<int64_t> all_serials;
  if (serials) {
    all_serials = out->serials();
    all_serials.resize(total, 0);
  }

  auto copy = [](const auto& src, auto& dst, size_t at) {
    std::copy(src.begin(), src.end(), dst.begin() + static_cast<std::ptrdiff_t>(at));
  };
  std::vector<PieceRange> pieces = PlanPieces(
      slots.size(), [&](size_t i) { return slots[i].num_rows(); }, ctx);
  GOLA_RETURN_NOT_OK(RunPieces(ctx, pieces.size(), [&](size_t p) -> Status {
    for (size_t i = pieces[p].begin; i < pieces[p].end; ++i) {
      const Chunk& slot = slots[i];
      if (slot.num_rows() == 0) continue;
      const size_t at = offsets[i];
      for (size_t c = 0; c < ncols; ++c) {
        const Column& src = slot.column(c);
        switch (src.type()) {
          case TypeId::kBool: copy(src.bools(), cols[c].mutable_bools(), at); break;
          case TypeId::kInt64: copy(src.ints(), cols[c].mutable_ints(), at); break;
          case TypeId::kFloat64: copy(src.floats(), cols[c].mutable_floats(), at); break;
          case TypeId::kString: copy(src.strings(), cols[c].mutable_strings(), at); break;
          case TypeId::kNull: break;
        }
        if (!nulls[c].empty() && src.has_nulls()) copy(src.nulls(), nulls[c], at);
      }
      if (slot.has_serials()) copy(slot.serials(), all_serials, at);
    }
    return Status::OK();
  }));
  for (size_t c = 0; c < ncols; ++c) {
    if (nulls[c].empty()) continue;
    cols[c] = Column::WithNulls(std::move(cols[c]), std::move(nulls[c]));
  }
  *out = Chunk(shape->schema(), std::move(cols));
  if (serials) out->set_serials(std::move(all_serials));
  return Status::OK();
}

}  // namespace

// --------------------------------------------------------- DeltaPipeline --

Result<std::vector<int>> DeltaPipeline::ScanPositions(const MorselSource& source) const {
  std::vector<int> positions;
  const Chunk& chunk = *source.chunk;
  if (source.first_stage > 0 || chunk.num_rows() == 0 || chunk.schema() == scan_schema_) {
    return positions;
  }
  if (chunk.schema() == nullptr) return Status::Internal("pipeline source has no schema");
  // Column names are unique within a table (Catalog::RegisterTable rejects
  // repeats), so each name finds the one column the binder bound.
  positions.reserve(scan_schema_->num_fields());
  for (const Field& f : scan_schema_->fields()) {
    Result<int> at = chunk.schema()->FieldIndex(f.name);
    if (!at.ok()) return Status::Internal("pipeline source lacks scan column " + f.name);
    positions.push_back(*at);
  }
  // Already the scan layout (a segment scan decoded just these columns).
  bool identity = positions.size() == chunk.num_columns();
  for (size_t k = 0; identity && k < positions.size(); ++k) {
    identity = positions[k] == static_cast<int>(k);
  }
  if (identity) positions.clear();
  return positions;
}

Status DeltaPipeline::Run(const ExecContext& ctx,
                          const std::vector<MorselSource>& sources,
                          Chunk* uncertain_out, std::vector<uint8_t>* pass_out) {
  if (classify_ != nullptr && uncertain_out == nullptr) {
    return Status::Internal("classify stage requires an uncertain sink");
  }
  std::vector<std::vector<int>> scan_positions;
  scan_positions.reserve(sources.size());
  for (const MorselSource& s : sources) {
    GOLA_ASSIGN_OR_RETURN(std::vector<int> positions, ScanPositions(s));
    scan_positions.push_back(std::move(positions));
  }
  std::vector<MorselPlan> morsels =
      PlanMorsels(sources, ctx.min_morsel_rows, ctx.max_morsels);
  size_t m = morsels.size();

  if (sink_) sink_->BeginBatch(m);
  if (classify_) classify_->BeginBatch(m);
  std::vector<Chunk> uncertain_slots(classify_ ? m : 0);
  std::vector<std::vector<uint8_t>> pass_slots(classify_ ? m : 0);
  std::vector<Status> statuses(m, Status::OK());
  if (ctx.metrics) {
    ctx.metrics->batches += 1;
    ctx.metrics->morsels += static_cast<int64_t>(m);
  }
  const RunObs ob = RunObs::Lookup(transforms_, classify_, sink_);
  if (ob.on) {
    ob.runs_total->Increment();
    ob.morsels_total->Add(static_cast<int64_t>(m));
  }

  auto run_morsel = [&](size_t i) {
    auto body = [&]() -> Status {
      const MorselPlan& mo = morsels[i];
      GOLA_FAILPOINT_RETURN("exec.morsel");
      obs::TraceSpan morsel_span("morsel", "rows",
                                 static_cast<int64_t>(mo.rows));
      Stopwatch morsel_timer;
      const std::vector<int>& positions = scan_positions[mo.source];
      Chunk chunk = !positions.empty()
                        ? mo.chunk->Slice(mo.offset, mo.rows, positions, scan_schema_)
                    : (mo.offset == 0 && mo.rows == mo.chunk->num_rows())
                        ? *mo.chunk
                        : mo.chunk->Slice(mo.offset, mo.rows);
      if (ctx.metrics) ctx.metrics->rows_in += static_cast<int64_t>(mo.rows);
      if (ob.on) ob.rows_in_total->Add(static_cast<int64_t>(mo.rows));
      Stopwatch stage_timer;
      for (size_t s = mo.first_stage; s < transforms_.size(); ++s) {
        obs::TraceSpan stage_span(transforms_[s]->name());
        stage_timer.Restart();
        GOLA_ASSIGN_OR_RETURN(chunk, transforms_[s]->Apply(std::move(chunk), ctx));
        if (ob.on) ob.stage_us[s]->Record(stage_timer.ElapsedMicros());
      }
      if (classify_) {
        obs::TraceSpan stage_span(classify_->name());
        stage_timer.Restart();
        GOLA_ASSIGN_OR_RETURN(ClassifyStage::Split split,
                              classify_->Classify(i, std::move(chunk), ctx));
        if (ob.on) {
          ob.stage_us[transforms_.size()]->Record(stage_timer.ElapsedMicros());
          ob.rows_folded_total->Add(static_cast<int64_t>(split.fold.num_rows()));
          ob.rows_uncertain_total->Add(
              static_cast<int64_t>(split.uncertain.num_rows()));
        }
        if (ctx.metrics) {
          ctx.metrics->rows_folded += static_cast<int64_t>(split.fold.num_rows());
          ctx.metrics->rows_uncertain +=
              static_cast<int64_t>(split.uncertain.num_rows());
        }
        // Unconditional: a retried morsel must overwrite whatever a failed
        // earlier attempt left in its slot, including clearing it.
        uncertain_slots[i] = std::move(split.uncertain);
        pass_slots[i] = std::move(split.pass);
        chunk = std::move(split.fold);
      } else {
        if (ctx.metrics) {
          ctx.metrics->rows_folded += static_cast<int64_t>(chunk.num_rows());
        }
        if (ob.on) ob.rows_folded_total->Add(static_cast<int64_t>(chunk.num_rows()));
      }
      if (sink_) {
        obs::TraceSpan stage_span(sink_->name());
        stage_timer.Restart();
        GOLA_RETURN_NOT_OK(sink_->Consume(i, std::move(chunk), ctx));
        if (ob.on) {
          size_t slot = transforms_.size() + (classify_ != nullptr ? 1 : 0);
          ob.stage_us[slot]->Record(stage_timer.ElapsedMicros());
        }
      }
      if (ob.on) ob.morsel_us->Record(morsel_timer.ElapsedMicros());
      return Status::OK();
    };
    // Exception containment: a stage that throws is folded into the same
    // retryable-Status channel as one that returns an error.
    auto attempt = [&]() -> Status {
      try {
        return body();
      } catch (const std::exception& e) {
        return Status::ExecutionError(
            Format("morsel %zu raised: %s", i, e.what()));
      } catch (...) {
        return Status::ExecutionError(
            Format("morsel %zu raised a non-standard exception", i));
      }
    };
    Status st = attempt();
    // Morsel-level retry: the morsel plan and every stage are deterministic
    // in the input slice, so a retried morsel rebuilds the exact same
    // partial state (sinks overwrite their per-morsel slot each attempt).
    for (int r = 1; !st.ok() && fail::Retryable(st) && r <= ctx.max_morsel_retries;
         ++r) {
      if (obs::MetricsEnabled()) {
        obs::MetricsRegistry::Global()
            .GetCounter("gola_pipeline_morsel_retries_total")
            ->Increment();
      }
      obs::FlightRecorder::Global().Note("morsel_retry", nullptr,
                                         static_cast<int64_t>(i));
      // Exponential backoff with deterministic jitter: scale base·2^(r-1)
      // into [50%, 150%) by a SplitMix64 hash of (seed, morsel, attempt).
      // Retries of many morsels (or many workers) that failed together thus
      // spread out instead of hammering the faulty resource in lockstep —
      // and since the sleep only delays a bit-deterministic re-execution,
      // results are unchanged.
      int64_t backoff = static_cast<int64_t>(ctx.retry_backoff_ms) << (r - 1);
      if (backoff > 0) {
        uint64_t h = SplitMix64(ctx.seed ^ (static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ULL) ^
                                static_cast<uint64_t>(r));
        double frac = 0.5 + static_cast<double>(h >> 11) /
                                static_cast<double>(1ULL << 53);
        backoff = std::max<int64_t>(
            1, static_cast<int64_t>(static_cast<double>(backoff) * frac));
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      }
      st = attempt();
    }
    statuses[i] = std::move(st);
  };

  if (ctx.pool != nullptr && m > 1) {
    // A fault injected below the morsel layer (thread-pool task dispatch)
    // surfaces here as an exception; turn it into a retryable Status so the
    // block-level retry can rerun the whole batch.
    try {
      ctx.pool->ParallelFor(m, run_morsel);
    } catch (const std::exception& e) {
      return Status::ExecutionError(
          Format("parallel execution failed: %s", e.what()));
    } catch (...) {
      return Status::ExecutionError(
          "parallel execution failed with a non-standard exception");
    }
  } else {
    for (size_t i = 0; i < m; ++i) run_morsel(i);
  }
  for (const auto& st : statuses) {
    GOLA_RETURN_NOT_OK(st);
  }

  // Barrier: deferred classification decisions, then partial-state merges —
  // both applied in morsel order on the calling thread. A failure past this
  // point may have already mutated the merge target, so it must NOT look
  // retryable to the batch-level retry: downgrade to kInternal.
  auto barrier_guard = [](Status st) -> Status {
    if (st.ok() || !fail::Retryable(st)) return st;
    return Status::Internal(st.message());
  };
  if (classify_) {
    GOLA_RETURN_NOT_OK(barrier_guard(classify_->EndBatch()));
  }
  if (sink_) {
    GOLA_RETURN_NOT_OK(barrier_guard(sink_->Finish()));
  }
  if (uncertain_out != nullptr) {
    GOLA_RETURN_NOT_OK(barrier_guard(ConcatSlots(ctx, uncertain_slots, uncertain_out)));
  }
  if (pass_out != nullptr) {
    for (size_t i = 0; i < pass_slots.size(); ++i) {
      if (pass_slots[i].size() != uncertain_slots[i].num_rows()) {
        return Status::Internal("classify stage returned no pass flag per uncertain row");
      }
      pass_out->insert(pass_out->end(), pass_slots[i].begin(), pass_slots[i].end());
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------- HAVING --

Result<std::vector<uint8_t>> EvaluateHavingMask(const BlockDef& block,
                                                const Chunk& post,
                                                const BroadcastEnv* env) {
  size_t n = post.num_rows();
  std::vector<uint8_t> mask(n, 1);
  auto apply = [&](const Expr& pred) -> Status {
    GOLA_ASSIGN_OR_RETURN(std::vector<uint8_t> sel, EvaluatePredicate(pred, post, env));
    for (size_t i = 0; i < n; ++i) mask[i] &= sel[i];
    return Status::OK();
  };
  for (const auto& c : block.having_certain) {
    GOLA_RETURN_NOT_OK(apply(*c));
  }
  for (const auto& c : block.having_uncertain) {
    ExprPtr pred = c.ToPointExpr();
    GOLA_RETURN_NOT_OK(apply(*pred));
  }
  return mask;
}

Result<Chunk> ApplyHavingFilters(const BlockDef& block, const Chunk& post,
                                 const BroadcastEnv* env) {
  if (block.having_certain.empty() && block.having_uncertain.empty()) return post;
  GOLA_ASSIGN_OR_RETURN(std::vector<uint8_t> mask, EvaluateHavingMask(block, post, env));
  return post.Filter(mask);
}

}  // namespace gola
