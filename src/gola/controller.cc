#include "gola/controller.h"

#include <algorithm>
#include <cstdlib>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "obs/flight_recorder.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "obs/query_registry.h"
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
  if (o.active_replicates < -1 || o.active_replicates > o.bootstrap_replicates) {
    return Status::InvalidArgument(
        "active_replicates must be -1 (all) or in [0, bootstrap_replicates]");
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
  // Attach to a shared mini-batch scan when the session layer provides one
  // and it demonstrably partitions *this* table under *these* options;
  // anything off falls back to a private partitioner (correctness never
  // rides on the cache being right).
  if (shared_scan != nullptr &&
      shared_scan->total_rows() == table->num_rows() &&
      (shared_scan->num_batches() == options_.num_batches ||
       // Tiny tables: the partitioner clamps to >=1-row batches, so fewer
       // batches than requested is the legitimate shared shape too.
       (table->num_rows() < options_.num_batches &&
        shared_scan->num_batches() ==
            static_cast<int>(std::max<int64_t>(1, table->num_rows()))))) {
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
    partitioner_ = std::make_shared<MiniBatchPartitioner>(*table, part_opts);
  }

  blocks_.reserve(query_.blocks.size());
  for (const auto& block : query_.blocks) {
    blocks_.push_back(std::make_unique<OnlineBlockExec>(&block, catalog_, &options_,
                                                        weights_.get()));
  }
  if (!options_.trace_path.empty()) obs::Tracer::Global().Enable();

  // --- live introspection wiring (observes only; never changes results) --
  // HTTP server: option wins, GOLA_HTTP_PORT env is the no-recompile path.
  int http_port = options_.http_port;
  if (http_port < 0) {
    if (const char* env = std::getenv("GOLA_HTTP_PORT")) {
      http_port = std::atoi(env);
    }
  }
  if (http_port >= 0) {
    auto server = obs::EnsureIntrospectionServer(http_port);
    if (!server.ok()) {
      GOLA_LOG(Warn) << "introspection server not started: "
                     << server.status().ToString();
    }
  }

  registry_id_ = obs::QueryRegistry::Global().Register(
      Format("%s (%d blocks, %d batches)", streamed.c_str(),
             static_cast<int>(query_.blocks.size()), options_.num_batches));

  // Per-session telemetry. The labeled /metrics families only exist when
  // the caller (session layer) supplied a session_id — cardinality stays
  // bounded by the session retention policy. The time-series store has its
  // own eviction, so every query gets convergence series there; solo
  // queries are keyed by their registry id.
  labels_ = options_.metrics_labels;
  if (labels_.table.empty()) labels_.table = streamed;
  if (obs::MetricsEnabled() && !labels_.session_id.empty()) {
    auto& reg = obs::MetricsRegistry::Global();
    obs::MetricLabels session_labels;
    session_labels.session_id = labels_.session_id;
    session_labels.table = labels_.table;
    batches_labeled_ = reg.GetCounter("gola_online_batches_total", session_labels);
    batch_us_labeled_ = reg.GetHistogram("gola_online_batch_us", session_labels);
    static const char* kPhases[5] = {"envelope", "delta", "emit", "rebuild",
                                     "materialize"};
    for (int p = 0; p < 5; ++p) {
      obs::MetricLabels phase_labels = session_labels;
      phase_labels.phase = kPhases[p];
      phase_us_labeled_[p] = reg.GetHistogram("gola_online_phase_us", phase_labels);
    }
  }
  if (obs::MetricsEnabled()) {
    obs::MetricLabels ts_labels;
    ts_labels.session_id = labels_.session_id.empty()
                               ? Format("q%llu", static_cast<unsigned long long>(
                                                     registry_id_))
                               : labels_.session_id;
    ts_labels.table = labels_.table;
    auto& ts = obs::TimeSeriesStore::Global();
    ts_max_rsd_ = ts.Register("gola_query_max_rsd", ts_labels);
    ts_half_width_ = ts.Register("gola_query_ci_halfwidth", ts_labels);
    ts_fraction_ = ts.Register("gola_query_fraction_processed", ts_labels);
    ts_uncertain_ = ts.Register("gola_query_uncertain_tuples", ts_labels);
    // Estimator-quality series (DESIGN.md §14): the worst cell's CI
    // half-width (grouped queries converge on their worst group, not the
    // headline scalar) and the top-ranked per-group RSDs. Rank labels are
    // part of the series name — same inline-label idiom as the SLO
    // histograms; /timez JSON-escapes names, so the quotes are safe.
    if (options_.group_top_k > 0) {
      ts_half_width_worst_ = ts.Register("gola_query_ci_halfwidth_worst", ts_labels);
      for (int r = 0; r < kGroupRsdRanks; ++r) {
        ts_group_rsd_[r] =
            ts.Register(Format("gola_group_rsd{rank=\"%d\"}", r + 1), ts_labels);
      }
    }
  }
  // Per-group telemetry and the convergence watchdog ride the same
  // MetricsEnabled() gate as every other recording path, so the CI overhead
  // guard's GOLA_METRICS A/B measures their cost too.
  if (obs::MetricsEnabled() && options_.group_top_k > 0) {
    group_tracker_ =
        std::make_unique<obs::GroupTelemetryTracker>(options_.group_top_k);
  }
  if (obs::MetricsEnabled() && options_.watchdog.enabled) {
    watchdog_ = std::make_unique<obs::ConvergenceWatchdog>(options_.watchdog);
  }

  if (!options_.convergence_path.empty()) {
    convergence_ =
        std::make_unique<obs::ConvergenceRecorder>(options_.convergence_path);
    if (!convergence_->status().ok()) {
      GOLA_LOG(Warn) << "convergence recorder disabled: "
                     << convergence_->status().ToString();
      convergence_.reset();
    }
  }

  flight_path_ = options_.flight_path;
  if (flight_path_.empty()) {
    if (const char* env = std::getenv("GOLA_FLIGHT_PATH")) flight_path_ = env;
  }
  if (!flight_path_.empty()) {
    obs::FlightRecorder::InstallCrashHandler(flight_path_ + ".crash");
  }
  obs::FlightRecorder::Global().Note("query_start", streamed.c_str(),
                                     static_cast<int64_t>(registry_id_));

  total_timer_.Restart();
  return Status::OK();
}

OnlineQueryExecutor::~OnlineQueryExecutor() {
  if (registry_id_ != 0) obs::QueryRegistry::Global().Deregister(registry_id_);
  auto& ts = obs::TimeSeriesStore::Global();
  ts.Retire(ts_max_rsd_);
  ts.Retire(ts_half_width_);
  ts.Retire(ts_fraction_);
  ts.Retire(ts_uncertain_);
  ts.Retire(ts_half_width_worst_);
  for (int r = 0; r < kGroupRsdRanks; ++r) ts.Retire(ts_group_rsd_[r]);
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
  bool recomputed = false;
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
        recomputed = true;
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
        if (!flight_path_.empty()) {
          Status st = obs::FlightRecorder::Global().Dump(flight_path_);
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
    // since Prepare (plus any pre-resume spend) — caller think-time between
    // Steps counts against the deadline, as a dashboard user would expect.
    ApplyDeadlinePressure(resumed_elapsed_ + total_timer_.ElapsedSeconds());
    update.degradation = degradation_;

    Stopwatch materialize_timer;
    obs::TraceSpan materialize_span("materialize", "batch", i);
    update.batch_index = next_batch_;
    update.total_batches = partitioner_->num_batches();
    update.fraction_processed = static_cast<double>(rows_through) /
                                static_cast<double>(partitioner_->total_rows());
    update.scale = scale;
    const RootEmission& emission = blocks_.back()->root_emission();
    // Live monitors watching huge group-bys via /statusz or the
    // convergence file can skip the per-batch result copy; the final batch
    // always materializes so the drained answer stays complete.
    if (options_.materialize_results || done()) {
      update.result = emission.result;
    }
    update.max_rsd = emission.max_rsd;
    update.uncertain_groups = emission.uncertain_groups;
    for (const auto& block : blocks_) {
      update.uncertain_tuples += block->uncertain_size();
    }
    update.recomputes_so_far = recomputes_;
    update.materialize_seconds = materialize_timer.ElapsedSeconds();
    update.stats.materialize_seconds = update.materialize_seconds;
  }
  update.batch_seconds = batch_timer.ElapsedSeconds();
  elapsed_ += update.batch_seconds;
  update.elapsed_seconds = elapsed_;

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

  if (obs::MetricsEnabled()) {
    auto& reg = obs::MetricsRegistry::Global();
    static obs::Counter* batches_total = reg.GetCounter("gola_online_batches_total");
    static obs::Counter* recomputes_total =
        reg.GetCounter("gola_online_recomputes_total");
    static obs::Histogram* batch_us = reg.GetHistogram("gola_online_batch_us");
    static obs::Gauge* uncertain_tuples =
        reg.GetGauge("gola_online_uncertain_tuples");
    static obs::Gauge* uncertain_groups =
        reg.GetGauge("gola_online_uncertain_groups");
    batches_total->Add(1);
    if (recomputed) recomputes_total->Add(1);
    batch_us->Record(static_cast<int64_t>(update.batch_seconds * 1e6));
    uncertain_tuples->Set(update.uncertain_tuples);
    uncertain_groups->Set(update.uncertain_groups);

    // Per-session labeled families (only wired up when the session layer
    // set a session_id).
    if (batches_labeled_ != nullptr) {
      batches_labeled_->Add(1);
      batch_us_labeled_->Record(static_cast<int64_t>(update.batch_seconds * 1e6));
      const double phase_seconds[5] = {
          update.stats.envelope_check_seconds, update.stats.delta_exec_seconds,
          update.stats.emit_seconds, update.stats.rebuild_seconds,
          update.stats.materialize_seconds};
      for (int p = 0; p < 5; ++p) {
        phase_us_labeled_[p]->Record(static_cast<int64_t>(phase_seconds[p] * 1e6));
      }
    }
  }

  // Headline cell drives the convergence time series, the accuracy-SLO
  // tracker and (via RecordConvergence) the convergence JSONL — extracted
  // once from the root emission, which is populated even when
  // materialize_results is off.
  const HeadlineCell headline =
      ExtractHeadline(blocks_.back()->root_emission().result);

  // Per-group convergence telemetry: fold every cell's companions into the
  // bounded top-K summary; grouped queries converge on their worst group,
  // so the worst cell's CI half-width — not the headline scalar — is the
  // width signal the watchdog and /timez watch.
  if (group_tracker_ != nullptr) {
    update.groups = group_tracker_->Observe(
        ExtractGroupCells(blocks_.back()->root_emission().result));
  }
  const double worst_half_width =
      std::max(headline.half_width(), update.groups.worst_half_width);
  if (watchdog_ != nullptr) {
    update.alerts =
        watchdog_->Observe(update.batch_index, headline.has_rsd(),
                           update.max_rsd, worst_half_width,
                           update.uncertain_tuples);
    for (const obs::WatchdogAlert& a : update.alerts) {
      obs::FlightRecorder::Global().Note("watchdog", a.kind.c_str(),
                                         a.batch_index);
      obs::MetricsRegistry::Global()
          .GetCounter(Format("gola_watchdog_alerts_total{kind=\"%s\"}",
                             a.kind.c_str()))
          ->Increment();
      if (warnings_.size() < 16) {
        warnings_.push_back(
            Format("batch %lld: %s — %s",
                   static_cast<long long>(a.batch_index), a.kind.c_str(),
                   a.detail.c_str()));
      }
    }
  }

  if (obs::MetricsEnabled()) {
    auto& ts = obs::TimeSeriesStore::Global();
    ts.Append(ts_max_rsd_, update.max_rsd);
    ts.Append(ts_half_width_, headline.half_width());
    ts.Append(ts_fraction_, update.fraction_processed);
    ts.Append(ts_uncertain_, static_cast<double>(update.uncertain_tuples));
    if (group_tracker_ != nullptr) {
      ts.Append(ts_half_width_worst_, worst_half_width);
      // Ranked worst-group RSDs; a rank with no measurable cell this update
      // simply has no sample (absent ≠ 0).
      for (int r = 0; r < kGroupRsdRanks; ++r) {
        if (r >= static_cast<int>(update.groups.top.size())) break;
        const obs::GroupCell& cell = update.groups.top[r];
        if (cell.has_rsd) ts.Append(ts_group_rsd_[r], cell.rsd);
      }
    }
  }

  // SLO crossings are tracked unconditionally (the wide-event query log
  // consumes them even with metrics off); only the histogram export is
  // gated.
  const std::vector<size_t> newly_met = slo_.Observe(
      update.elapsed_seconds, update.max_rsd, headline.has_estimate);
  if (obs::MetricsEnabled()) {
    for (size_t idx : newly_met) {
      const obs::SloCrossing& c = slo_.crossings()[idx];
      obs::MetricsRegistry::Global()
          .GetHistogram(Format("gola_slo_time_to_rsd_us{table=\"%s\",target=\"%g%%\"}",
                               labels_.table.c_str(), c.target_rsd * 100))
          ->Record(static_cast<int64_t>(c.seconds * 1e6));
    }
  }

  PublishStatus(update);
  RecordConvergence(update, headline);

  // Last batch drained: flush the query timeline for Perfetto (§ tracing).
  if (done() && !options_.trace_path.empty() && !trace_written_) {
    trace_written_ = true;
    Status st = obs::Tracer::Global().WriteJson(options_.trace_path);
    if (!st.ok()) {
      GOLA_LOG(Warn) << "failed to write trace to " << options_.trace_path << ": "
                     << st.ToString();
    }
  }
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
  // Each rung includes the ones below it (documented order, DESIGN.md §10).
  if (degradation_ >= Degradation::kSkipMaterialize) {
    options_.materialize_results = false;
  }
  if (degradation_ >= Degradation::kReducedReplicates) {
    options_.active_replicates = std::max(1, options_.bootstrap_replicates / 2);
  }
  if (degradation_ >= Degradation::kStoppedEarly) {
    stopped_early_ = true;
  }
}

void OnlineQueryExecutor::PublishStatus(const OnlineUpdate& update) {
  obs::QueryStatus status;
  status.batch_index = update.batch_index;
  status.total_batches = update.total_batches;
  status.fraction_processed = update.fraction_processed;
  status.max_rsd = update.max_rsd;
  status.uncertain_tuples = update.uncertain_tuples;
  status.uncertain_groups = update.uncertain_groups;
  status.recomputes = update.recomputes_so_far;
  status.batch_seconds = update.batch_seconds;
  status.elapsed_seconds = update.elapsed_seconds;
  status.done = done();
  status.last_stats = update.stats;
  status.groups = update.groups;
  status.warnings = warnings_;
  obs::QueryRegistry::Global().Update(registry_id_, status);
}

HeadlineCell ExtractHeadline(const Table& result) {
  // First aggregate-bearing column, first row, located via its `<col>_lo`
  // companion (CI columns are emitted as `<col>_lo`/`_hi`/`_rsd`).
  HeadlineCell cell;
  if (result.num_rows() == 0) return cell;
  const Schema& schema = *result.schema();
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    const std::string& name = schema.field(c).name;
    if (name.size() <= 3 || name.substr(name.size() - 3) != "_lo") continue;
    auto value_col = schema.FieldIndex(name.substr(0, name.size() - 3));
    auto rsd_col = schema.FieldIndex(name.substr(0, name.size() - 3) + "_rsd");
    if (!value_col.ok()) continue;
    // A value that fails to parse (null aggregate, string column sharing
    // the suffix) must propagate as *absent*: reading a failed parse as 0
    // would make an unparseable cell look fully converged (rsd = 0) and
    // pin its CI at [0, 0].
    const Result<double> estimate = result.At(0, *value_col).ToDouble();
    const Result<double> lo = result.At(0, static_cast<int>(c)).ToDouble();
    const Result<double> hi = result.At(0, static_cast<int>(c) + 1).ToDouble();
    if (!estimate.ok() || !lo.ok() || !hi.ok()) break;
    cell.has_estimate = true;
    cell.estimate = *estimate;
    cell.ci_lo = *lo;
    cell.ci_hi = *hi;
    if (rsd_col.ok()) {
      const Result<double> rsd = result.At(0, *rsd_col).ToDouble();
      if (rsd.ok()) cell.rsd = *rsd;  // stays -1 (absent) on a failed parse
    }
    break;
  }
  return cell;
}

std::vector<obs::GroupCell> ExtractGroupCells(const Table& result) {
  std::vector<obs::GroupCell> cells;
  if (result.num_rows() == 0 || result.schema() == nullptr) return cells;
  const Schema& schema = *result.schema();
  const int num_fields = static_cast<int>(schema.num_fields());

  // Locate aggregate columns by their `_lo` companion (same convention as
  // ExtractHeadline); everything that is neither an aggregate value nor a
  // companion is a group-key column.
  struct AggCol {
    std::string name;
    int value = -1, lo = -1, hi = -1, rsd = -1;
  };
  std::vector<AggCol> aggs;
  std::vector<bool> is_key(num_fields, true);
  for (int c = 0; c < num_fields; ++c) {
    const std::string& name = schema.field(c).name;
    if (name.size() <= 3 || name.substr(name.size() - 3) != "_lo") continue;
    const std::string base = name.substr(0, name.size() - 3);
    auto value_col = schema.FieldIndex(base);
    if (!value_col.ok()) continue;
    AggCol agg;
    agg.name = base;
    agg.value = *value_col;
    agg.lo = c;
    auto hi_col = schema.FieldIndex(base + "_hi");
    if (hi_col.ok()) agg.hi = *hi_col;
    auto rsd_col = schema.FieldIndex(base + "_rsd");
    if (rsd_col.ok()) agg.rsd = *rsd_col;
    is_key[agg.value] = false;
    is_key[agg.lo] = false;
    if (agg.hi >= 0) is_key[agg.hi] = false;
    if (agg.rsd >= 0) is_key[agg.rsd] = false;
    aggs.push_back(std::move(agg));
  }
  if (aggs.empty()) return cells;
  std::vector<int> key_cols;
  for (int c = 0; c < num_fields; ++c) {
    if (is_key[c]) key_cols.push_back(c);
  }

  cells.reserve(static_cast<size_t>(result.num_rows()) * aggs.size());
  for (int64_t r = 0; r < result.num_rows(); ++r) {
    std::string key;
    if (key_cols.empty()) {
      key = "*";  // scalar query: one implicit group
    } else {
      for (size_t i = 0; i < key_cols.size(); ++i) {
        if (i) key += '|';
        key += result.At(r, key_cols[i]).ToString();
      }
    }
    for (const AggCol& agg : aggs) {
      obs::GroupCell cell;
      cell.group_key = key;
      cell.column = agg.name;
      const Result<double> estimate = result.At(r, agg.value).ToDouble();
      const Result<double> lo = result.At(r, agg.lo).ToDouble();
      const Result<double> hi =
          agg.hi >= 0 ? result.At(r, agg.hi).ToDouble() : Result<double>(0.0);
      if (estimate.ok() && lo.ok() && hi.ok()) {
        cell.has_estimate = true;
        cell.estimate = *estimate;
        cell.ci_lo = *lo;
        cell.ci_hi = *hi;
      }
      if (agg.rsd >= 0) {
        const Result<double> rsd = result.At(r, agg.rsd).ToDouble();
        if (rsd.ok()) {
          cell.has_rsd = true;
          cell.rsd = *rsd;
        }
      }
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

void OnlineQueryExecutor::RecordConvergence(const OnlineUpdate& update,
                                            const HeadlineCell& headline) {
  if (!convergence_) return;
  obs::ConvergenceRecord rec;
  rec.batch_index = update.batch_index;
  rec.total_batches = update.total_batches;
  rec.fraction_processed = update.fraction_processed;
  rec.max_rsd = update.max_rsd;
  rec.uncertain_tuples = update.uncertain_tuples;
  rec.uncertain_groups = update.uncertain_groups;
  rec.recomputes = update.recomputes_so_far;
  rec.batch_seconds = update.batch_seconds;
  rec.elapsed_seconds = update.elapsed_seconds;
  rec.stats = update.stats;
  rec.result_rows = blocks_.back()->root_emission().result.num_rows();
  rec.has_estimate = headline.has_estimate;
  rec.estimate = headline.estimate;
  rec.ci_lo = headline.ci_lo;
  rec.ci_hi = headline.ci_hi;
  rec.has_rsd = headline.has_rsd();
  if (headline.has_rsd()) rec.rsd = headline.rsd;
  rec.groups = update.groups;
  convergence_->Append(rec);
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
