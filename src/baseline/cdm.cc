#include "baseline/cdm.h"

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gola {

CdmExecutor::CdmExecutor(const Catalog* catalog, CompiledQuery query,
                         const CdmOptions& options)
    : catalog_(catalog), query_(std::move(query)), options_(options) {}

Result<std::unique_ptr<CdmExecutor>> CdmExecutor::Create(const Catalog* catalog,
                                                         CompiledQuery query,
                                                         const CdmOptions& options) {
  std::unique_ptr<CdmExecutor> exec(new CdmExecutor(catalog, std::move(query), options));
  GOLA_RETURN_NOT_OK(exec->Prepare());
  return exec;
}

Status CdmExecutor::Prepare() {
  if (query_.blocks.empty()) return Status::PlanError("empty query");
  const std::string streamed = ToLower(query_.root().table);
  for (const auto& block : query_.blocks) {
    if (ToLower(block.table) != streamed) {
      return Status::NotImplemented("CDM streams a single table");
    }
    if (!block.is_aggregate) {
      return Status::NotImplemented("CDM requires aggregation in every block");
    }
  }
  GOLA_ASSIGN_OR_RETURN(TablePtr table, catalog_->GetTable(streamed));
  MiniBatchOptions part_opts;
  part_opts.num_batches = options_.num_batches;
  part_opts.row_shuffle = options_.row_shuffle;
  part_opts.seed = options_.seed;
  partitioner_ =
      std::make_unique<MiniBatchPartitioner>(*table, part_opts, query_.ScanColumns());

  states_.reserve(query_.blocks.size());
  for (const auto& block : query_.blocks) {
    BlockState state;
    state.block = &block;
    // §3.1 semantics: any block that reads a nested aggregate's value —
    // in WHERE or HAVING — is recomputed over all seen data whenever that
    // value changes, i.e. every mini-batch. Only blocks with no such
    // dependency are maintained incrementally.
    state.incremental = block.depends_on.empty();
    GOLA_ASSIGN_OR_RETURN(DimJoinSet dims, DimJoinSet::Build(block, *catalog_));
    state.join.emplace(&block, std::move(dims));
    state.filter.emplace(FilterStage::AllPointForms(block));
    if (state.incremental) {
      state.agg = std::make_unique<GroupAggregate>(&block, /*weights=*/nullptr);
    }
    states_.push_back(std::move(state));
  }
  return Status::OK();
}

Result<CdmUpdate> CdmExecutor::Step() {
  if (done()) return Status::ExecutionError("all mini-batches already processed");
  Stopwatch timer;
  const int i = next_batch_;
  obs::TraceSpan batch_span("cdm_batch", "index", i);

  // Pinned prefix [0, i]: CDM may rescan all seen batches below, and the
  // partitioner retains only a small window otherwise.
  std::vector<std::shared_ptr<const Chunk>> seen_pins =
      partitioner_->BatchesSharedUpTo(i + 1);
  rows_through_ += static_cast<int64_t>(seen_pins.back()->num_rows());
  double scale = static_cast<double>(partitioner_->total_rows()) /
                 static_cast<double>(rows_through_);

  CdmUpdate update;
  update.batch_index = i + 1;

  ExecContext ctx;
  ctx.pool = options_.pool;
  ctx.scale = scale;
  ctx.seed = options_.seed;
  ctx.env = &env_;

  for (auto& state : states_) {
    const BlockDef& block = *state.block;
    Table result_sink;

    DeltaPipeline pipeline(block);
    if (!state.join->empty()) pipeline.Add(&*state.join);
    if (!state.filter->empty()) pipeline.Add(&*state.filter);

    GroupAggregate* agg = state.agg.get();
    std::unique_ptr<GroupAggregate> rescan_agg;
    std::vector<MorselSource> sources;
    if (state.incremental) {
      // Delta update: fold only ΔD_i into the retained states.
      sources.push_back({seen_pins.back().get(), 0});
    } else {
      // The inner aggregate changed → the engine "has to read through D_i
      // again in order to compute the correct answer" (§3.1).
      rescan_agg = std::make_unique<GroupAggregate>(&block, /*weights=*/nullptr);
      agg = rescan_agg.get();
      sources.reserve(seen_pins.size());
      for (const auto& p : seen_pins) sources.push_back({p.get(), 0});
    }
    for (const MorselSource& s : sources) {
      update.rows_scanned += static_cast<int64_t>(s.chunk->num_rows());
    }
    FoldStage fold_stage(agg);
    pipeline.SetSink(&fold_stage);
    GOLA_RETURN_NOT_OK(pipeline.Run(ctx, sources));

    GOLA_ASSIGN_OR_RETURN(Chunk post,
                          ApplyHavingFilters(block, agg->Finalize(scale), &env_));
    GOLA_RETURN_NOT_OK(BroadcastOrEmit(block, post, &env_, &result_sink));
    if (block.kind == BlockKind::kRoot) update.result = std::move(result_sink);
  }

  next_batch_ = i + 1;
  update.batch_seconds = timer.ElapsedSeconds();
  if (obs::MetricsEnabled()) {
    auto& reg = obs::MetricsRegistry::Global();
    static obs::Histogram* batch_us =
        reg.GetHistogram("gola_baseline_batch_us{engine=\"cdm\"}");
    static obs::Counter* rows_scanned =
        reg.GetCounter("gola_baseline_rows_scanned_total{engine=\"cdm\"}");
    batch_us->Record(static_cast<int64_t>(update.batch_seconds * 1e6));
    rows_scanned->Add(update.rows_scanned);
  }
  return update;
}

}  // namespace gola
