#include "gola/controller.h"

#include <algorithm>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "gola/query_telemetry.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gola {

const char* DegradationName(Degradation d) {
  switch (d) {
    case Degradation::kNone: return "none";
    case Degradation::kSkipMaterialize: return "skip_materialize";
    case Degradation::kReducedReplicates: return "reduced_replicates";
    case Degradation::kStoppedEarly: return "stopped_early";
  }
  return "unknown";
}

OnlineQueryExecutor::OnlineQueryExecutor(const Catalog* catalog, CompiledQuery query,
                                         const GolaOptions& options)
    : catalog_(catalog), query_(std::move(query)), options_(options) {}

Result<std::unique_ptr<OnlineQueryExecutor>> OnlineQueryExecutor::Create(
    const Catalog* catalog, CompiledQuery query, const GolaOptions& options,
    std::shared_ptr<const MiniBatchPartitioner> shared_scan) {
  std::unique_ptr<OnlineQueryExecutor> exec(
      new OnlineQueryExecutor(catalog, std::move(query), options));
  GOLA_RETURN_NOT_OK(exec->Prepare(std::move(shared_scan)));
  return exec;
}

namespace {

/// Options are user input: reject nonsense up front instead of failing (or
/// silently misbehaving) batches later.
Status ValidateOptions(const GolaOptions& o) {
  if (o.num_batches < 1) {
    return Status::InvalidArgument("num_batches must be >= 1");
  }
  // Below two replicates every variation range is a point, so nearly every
  // batch fails its envelopes and recomputes.
  if (o.bootstrap_replicates < 2) {
    return Status::InvalidArgument("bootstrap_replicates must be >= 2");
  }
  if (o.epsilon_mult < 0 || !(o.epsilon_mult == o.epsilon_mult)) {
    return Status::InvalidArgument("epsilon_mult must be a non-negative number");
  }
  if (!(o.ci_level > 0 && o.ci_level < 1)) {
    return Status::InvalidArgument("ci_level must be in (0, 1)");
  }
  if (o.min_group_support < 0) {
    return Status::InvalidArgument("min_group_support must be >= 0");
  }
  if (o.max_morsel_retries < 0) {
    return Status::InvalidArgument("max_morsel_retries must be >= 0");
  }
  if (o.retry_backoff_ms < 0) {
    return Status::InvalidArgument("retry_backoff_ms must be >= 0");
  }
  if (o.deadline_ms < 0 || !(o.deadline_ms == o.deadline_ms)) {
    return Status::InvalidArgument("deadline_ms must be a non-negative number");
  }
  return Status::OK();
}

}  // namespace

Status OnlineQueryExecutor::Prepare(
    std::shared_ptr<const MiniBatchPartitioner> shared_scan) {
  // One-time, process-wide arming of failpoints from GOLA_FAILPOINTS (a bad
  // spec is a warning, not a query failure — fault injection is a test rig).
  static const Status env_status = fail::ConfigureFromEnv();
  if (!env_status.ok()) {
    GOLA_LOG(Warn) << "GOLA_FAILPOINTS ignored: " << env_status.ToString();
  }
  GOLA_RETURN_NOT_OK(ValidateOptions(options_));
  if (query_.blocks.empty()) return Status::PlanError("empty query");
  const std::string streamed = ToLower(query_.root().table);
  for (const auto& block : query_.blocks) {
    if (ToLower(block.table) != streamed) {
      return Status::NotImplemented(
          "online execution streams a single table; block scans " + block.table);
    }
    if (!block.is_aggregate) {
      return Status::NotImplemented(
          "online execution requires aggregation (plain SELECT has no "
          "converging running result)");
    }
  }
  GOLA_ASSIGN_OR_RETURN(TablePtr table, catalog_->GetTable(streamed));

  weights_ = std::make_unique<PoissonWeights>(options_.bootstrap_replicates,
                                              SplitMix64(options_.seed ^ 0xB00757AAULL));
  // Batches carry only the columns some block reads. Attach to a shared
  // mini-batch scan when the session layer provides one and it
  // demonstrably partitions *this* table under *these* options (widening
  // it to those columns); anything off falls back to a private partitioner
  // (correctness never rides on the cache being right).
  std::vector<int> scan_columns = query_.ScanColumns();
  if (shared_scan != nullptr &&
      shared_scan->total_rows() == table->num_rows() &&
      (shared_scan->num_batches() == options_.num_batches ||
       // Tiny tables: the partitioner clamps to >=1-row batches, so fewer
       // batches than requested is the legitimate shared shape too.
       (table->num_rows() < options_.num_batches &&
        shared_scan->num_batches() ==
            static_cast<int>(std::max<int64_t>(1, table->num_rows()))))) {
    shared_scan->Widen(scan_columns);
    partitioner_ = std::move(shared_scan);
    scan_shared_ = true;
  } else {
    if (shared_scan != nullptr) {
      GOLA_LOG(Warn) << "shared scan rejected (rows/batches mismatch); "
                        "building a private partitioner";
    }
    MiniBatchOptions part_opts;
    part_opts.num_batches = options_.num_batches;
    part_opts.row_shuffle = options_.row_shuffle;
    part_opts.seed = options_.seed;
    partitioner_ = std::make_shared<MiniBatchPartitioner>(*table, part_opts,
                                                          std::move(scan_columns));
  }

  blocks_.reserve(query_.blocks.size());
  for (const auto& block : query_.blocks) {
    blocks_.push_back(std::make_unique<OnlineBlockExec>(&block, catalog_, &options_,
                                                        weights_.get()));
  }
  telemetry_ = std::make_unique<QueryTelemetry>(
      options_, streamed, static_cast<int>(query_.blocks.size()));
  return Status::OK();
}

OnlineQueryExecutor::~OnlineQueryExecutor() = default;

const obs::AccuracySloTracker& OnlineQueryExecutor::slo() const {
  return telemetry_->slo();
}

Result<OnlineUpdate> OnlineQueryExecutor::Step() {
  if (done()) return Status::ExecutionError("all mini-batches already processed");
  Stopwatch batch_timer;

  const int i = next_batch_;  // 0-based
  // Pin the batch for the whole step: the partitioner retains only a small
  // window of recent batches.
  std::shared_ptr<const Chunk> batch_pin = partitioner_->BatchShared(i);
  const Chunk& batch = *batch_pin;

  // Multiplicity m = N / |D_i| (§2.2); computed from rows rather than k/i so
  // the uneven final batch stays unbiased.
  rows_through_ += static_cast<int64_t>(batch.num_rows());
  const int64_t rows_through = rows_through_;
  double scale = static_cast<double>(partitioner_->total_rows()) /
                 static_cast<double>(rows_through);

  OnlineUpdate update;
  {
    obs::TraceSpan batch_span("batch", "index", i);
    obs::FlightRecorder::Global().Note("batch_begin", nullptr, i);
    for (auto& block : blocks_) {
      GOLA_ASSIGN_OR_RETURN(RangeFailure violated,
                            block->ProcessBatch(batch, scale, &env_, &update.stats));
      if (violated != RangeFailure::kNone) {
        // Range failure (§3.2): recompute the whole query over D_i with the
        // current variation ranges, block by block in dependency order.
        ++recomputes_;
        update.stats.failure_cause = RangeFailureName(violated);
        obs::FlightRecorder::Global().Note("range_failure",
                                           RangeFailureName(violated), i);
        std::vector<std::shared_ptr<const Chunk>> seen_pins =
            partitioner_->BatchesSharedUpTo(i + 1);
        std::vector<const Chunk*> seen;
        seen.reserve(seen_pins.size());
        for (const auto& p : seen_pins) seen.push_back(p.get());
        for (auto& b : blocks_) {
          // Rebuild starts from a Reset, so a failed attempt (injected fault
          // or thrown stage) can simply be rerun.
          Status st = b->Rebuild(seen, scale, &env_, &update.stats);
          for (int r = 1;
               !st.ok() && fail::Retryable(st) && r <= options_.max_morsel_retries;
               ++r) {
            if (obs::MetricsEnabled()) {
              obs::MetricsRegistry::Global()
                  .GetCounter("gola_online_rebuild_retries_total")
                  ->Increment();
            }
            obs::FlightRecorder::Global().Note("rebuild_retry", nullptr, r);
            st = b->Rebuild(seen, scale, &env_, &update.stats);
          }
          GOLA_RETURN_NOT_OK(st);
        }
        obs::FlightRecorder::Global().Note("rebuild_done", nullptr, recomputes_);
        // A recompute is exactly the pathological event a postmortem wants
        // context for: persist the recent-event ring while it is fresh.
        if (!telemetry_->flight_path().empty()) {
          Status st = obs::FlightRecorder::Global().Dump(telemetry_->flight_path());
          if (!st.ok()) {
            GOLA_LOG(Warn) << "flight-recorder dump failed: " << st.ToString();
          }
        }
        break;
      }
    }
    next_batch_ = i + 1;

    // Deadline pressure is evaluated after the in-flight batch finished, so
    // the answer below reflects every row folded so far and a well-formed
    // query always completes at least one batch. The clock is wall time
    // since Create (plus any pre-resume spend) — caller think-time between
    // Steps counts against the deadline, as a dashboard user would expect.
    ApplyDeadlinePressure(ElapsedSeconds());
    update.degradation = degradation_;

    obs::TraceSpan materialize_span("materialize", "batch", i,
                                    &update.stats.materialize_seconds);
    update.batch_index = next_batch_;
    update.total_batches = partitioner_->num_batches();
    update.fraction_processed = static_cast<double>(rows_through) /
                                static_cast<double>(partitioner_->total_rows());
    update.scale = scale;
    const RootEmission& emission = blocks_.back()->root_emission();
    // Live monitors watching huge group-bys via /statusz or the
    // convergence file can skip the per-batch result copy, and so does the
    // deadline ladder's first rung; the final batch always materializes so
    // the drained answer stays complete.
    if ((options_.materialize_results &&
         degradation_ < Degradation::kSkipMaterialize) ||
        done()) {
      update.result = emission.result;
    }
    if (!emission.cells.empty()) update.headline = emission.cells.front();
    update.max_rsd = emission.max_rsd;
    update.uncertain_groups = emission.uncertain_groups;
    for (const auto& block : blocks_) {
      update.uncertain_tuples += block->uncertain_size();
    }
    update.recomputes_so_far = recomputes_;
  }
  update.batch_seconds = batch_timer.ElapsedSeconds();
  update.elapsed_seconds = ElapsedSeconds();

  // Pipeline volume of this batch: delta of the blocks' cumulative counters.
  {
    int64_t morsels = 0, rows_in = 0, rows_folded = 0, rows_uncertain = 0;
    for (const auto& block : blocks_) {
      const PipelineMetrics& m = block->metrics();
      morsels += m.morsels.load(std::memory_order_relaxed);
      rows_in += m.rows_in.load(std::memory_order_relaxed);
      rows_folded += m.rows_folded.load(std::memory_order_relaxed);
      rows_uncertain += m.rows_uncertain.load(std::memory_order_relaxed);
    }
    update.stats.morsels = morsels - prev_morsels_;
    update.stats.rows_in = rows_in - prev_rows_in_;
    update.stats.rows_folded = rows_folded - prev_rows_folded_;
    update.stats.rows_uncertain = rows_uncertain - prev_rows_uncertain_;
    prev_morsels_ = morsels;
    prev_rows_in_ = rows_in;
    prev_rows_folded_ = rows_folded;
    prev_rows_uncertain_ = rows_uncertain;
  }

  telemetry_->Observe(&update, blocks_.back()->root_emission(), done());
  return update;
}

void OnlineQueryExecutor::ApplyDeadlinePressure(double wall_seconds) {
  if (options_.deadline_ms <= 0 || next_batch_ == 0) return;
  double frac = wall_seconds * 1000.0 / options_.deadline_ms;
  Degradation level = Degradation::kNone;
  if (frac >= 1.0) {
    level = Degradation::kStoppedEarly;
  } else if (frac >= 0.75) {
    level = Degradation::kReducedReplicates;
  } else if (frac >= 0.5) {
    level = Degradation::kSkipMaterialize;
  }
  if (level <= degradation_) return;  // monotone ladder
  degradation_ = level;
  ApplyDegradationEffects();
  obs::FlightRecorder::Global().Note("degrade", DegradationName(degradation_),
                                     next_batch_);
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Global()
        .GetCounter(Format("gola_online_degradations_total{level=\"%s\"}",
                           DegradationName(degradation_)))
        ->Increment();
  }
}

void OnlineQueryExecutor::ApplyDegradationEffects() {
  // Each rung includes the ones below it (documented order, DESIGN.md §10);
  // skipping materialization is read off the rung where Step materializes.
  if (degradation_ >= Degradation::kReducedReplicates) {
    blocks_.back()->set_ci_replicates(
        static_cast<size_t>(std::max(1, options_.bootstrap_replicates / 2)));
  }
  if (degradation_ >= Degradation::kStoppedEarly) {
    stopped_early_ = true;
  }
}

Result<OnlineUpdate> OnlineQueryExecutor::Run(
    const std::function<bool(const OnlineUpdate&)>& callback) {
  OnlineUpdate last;
  while (!done()) {
    GOLA_ASSIGN_OR_RETURN(last, Step());
    if (callback && !callback(last)) break;  // user stopped the query (OLA control)
  }
  return last;
}

Result<OnlineUpdate> OnlineQueryExecutor::RunToAccuracy(double target_rsd) {
  return Run([target_rsd](const OnlineUpdate& update) {
    return update.max_rsd > target_rsd;
  });
}

}  // namespace gola
