#include "gola/query_telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/logging.h"
#include "common/string_util.h"
#include "gola/controller.h"
#include "obs/flight_recorder.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "obs/query_registry.h"
#include "obs/trace.h"

namespace gola {

QueryTelemetry::QueryTelemetry(const GolaOptions& options,
                               const std::string& table, int num_blocks)
    : trace_path_(options.trace_path), table_(options.metrics_labels.table) {
  if (!trace_path_.empty()) obs::Tracer::Global().Enable();

  // HTTP server: option wins, GOLA_HTTP_PORT env is the no-recompile path.
  int http_port = options.http_port;
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
      Format("%s (%d blocks, %d batches)", table.c_str(), num_blocks,
             options.num_batches));

  // The labeled /metrics families only exist when the caller (session
  // layer) supplied a session_id — cardinality stays bounded by the
  // session retention policy. The time-series store has its own eviction,
  // so every query gets convergence series there; solo queries are keyed
  // by their registry id.
  if (table_.empty()) table_ = table;
  const std::string& session_id = options.metrics_labels.session_id;
  if (obs::MetricsEnabled() && !session_id.empty()) {
    auto& reg = obs::MetricsRegistry::Global();
    obs::MetricLabels session_labels;
    session_labels.session_id = session_id;
    session_labels.table = table_;
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
  // Per-group telemetry and the convergence watchdog ride the same
  // MetricsEnabled() gate as every other recording path, so the CI overhead
  // guard's GOLA_METRICS A/B measures their cost too.
  if (obs::MetricsEnabled()) {
    obs::MetricLabels ts_labels;
    ts_labels.session_id =
        session_id.empty()
            ? Format("q%llu", static_cast<unsigned long long>(registry_id_))
            : session_id;
    ts_labels.table = table_;
    auto& ts = obs::TimeSeriesStore::Global();
    ts_max_rsd_ = ts.Register("gola_query_max_rsd", ts_labels);
    ts_half_width_ = ts.Register("gola_query_ci_halfwidth", ts_labels);
    ts_fraction_ = ts.Register("gola_query_fraction_processed", ts_labels);
    ts_uncertain_ = ts.Register("gola_query_uncertain_tuples", ts_labels);
    // Estimator-quality series (DESIGN.md §14): the worst cell's CI
    // half-width (grouped queries converge on their worst group, not the
    // headline) and the top-ranked per-group RSDs. Rank labels are part of
    // the series name — same inline-label idiom as the SLO histograms;
    // /timez JSON-escapes names, so the quotes are safe.
    if (options.group_top_k > 0) {
      group_tracker_ = std::make_unique<obs::GroupTelemetryTracker>(options.group_top_k);
      ts_half_width_worst_ = ts.Register("gola_query_ci_halfwidth_worst", ts_labels);
      for (int r = 0; r < kGroupRsdRanks; ++r) {
        ts_group_rsd_[r] =
            ts.Register(Format("gola_group_rsd{rank=\"%d\"}", r + 1), ts_labels);
      }
    }
    if (options.watchdog.enabled) {
      watchdog_ = std::make_unique<obs::ConvergenceWatchdog>(options.watchdog);
    }
  }

  if (!options.convergence_path.empty()) {
    convergence_ = std::make_unique<obs::ConvergenceRecorder>(options.convergence_path);
    if (!convergence_->status().ok()) {
      GOLA_LOG(Warn) << "convergence recorder disabled: "
                     << convergence_->status().ToString();
      convergence_.reset();
    }
  }

  flight_path_ = options.flight_path;
  if (flight_path_.empty()) {
    if (const char* env = std::getenv("GOLA_FLIGHT_PATH")) flight_path_ = env;
  }
  if (!flight_path_.empty()) {
    obs::FlightRecorder::InstallCrashHandler(flight_path_ + ".crash");
  }
  obs::FlightRecorder::Global().Note("query_start", table.c_str(),
                                     static_cast<int64_t>(registry_id_));
}

QueryTelemetry::~QueryTelemetry() {
  obs::QueryRegistry::Global().Deregister(registry_id_);
  auto& ts = obs::TimeSeriesStore::Global();
  for (SeriesId id : {ts_max_rsd_, ts_half_width_, ts_fraction_, ts_uncertain_,
                      ts_half_width_worst_}) {
    ts.Retire(id);
  }
  for (SeriesId id : ts_group_rsd_) ts.Retire(id);
}

void QueryTelemetry::Observe(OnlineUpdate* update, const RootEmission& emission,
                             bool done) {
  const bool metrics = obs::MetricsEnabled();
  if (metrics) {
    auto& reg = obs::MetricsRegistry::Global();
    static obs::Counter* batches_total = reg.GetCounter("gola_online_batches_total");
    static obs::Counter* recomputes_total =
        reg.GetCounter("gola_online_recomputes_total");
    static obs::Histogram* batch_us = reg.GetHistogram("gola_online_batch_us");
    static obs::Gauge* uncertain_tuples =
        reg.GetGauge("gola_online_uncertain_tuples");
    static obs::Gauge* uncertain_groups =
        reg.GetGauge("gola_online_uncertain_groups");
    const int64_t batch_micros = static_cast<int64_t>(update->batch_seconds * 1e6);
    batches_total->Add(1);
    if (update->stats.failure_cause != nullptr) recomputes_total->Add(1);
    batch_us->Record(batch_micros);
    uncertain_tuples->Set(update->uncertain_tuples);
    uncertain_groups->Set(update->uncertain_groups);
    if (batches_labeled_ != nullptr) {
      const obs::QueryStats& s = update->stats;
      batches_labeled_->Add(1);
      batch_us_labeled_->Record(batch_micros);
      const double phase_seconds[5] = {s.envelope_check_seconds, s.delta_exec_seconds,
                                       s.emit_seconds, s.rebuild_seconds,
                                       s.materialize_seconds};
      for (int p = 0; p < 5; ++p) {
        phase_us_labeled_[p]->Record(static_cast<int64_t>(phase_seconds[p] * 1e6));
      }
    }
  }

  // Grouped queries converge on their worst group, so the worst cell's CI
  // half-width — not the headline's — is the width signal the watchdog and
  // /timez watch.
  if (group_tracker_ != nullptr) update->groups = group_tracker_->Observe(emission.cells);
  const double worst_half_width =
      std::max(update->headline.half_width(), update->groups.worst_half_width);
  if (watchdog_ != nullptr) {
    update->alerts = watchdog_->Observe(
        update->batch_index, update->headline.has_rsd && std::isfinite(update->max_rsd),
        update->max_rsd, worst_half_width, update->uncertain_tuples);
    for (const obs::WatchdogAlert& a : update->alerts) {
      obs::FlightRecorder::Global().Note("watchdog", a.kind.c_str(), a.batch_index);
      obs::MetricsRegistry::Global()
          .GetCounter(Format("gola_watchdog_alerts_total{kind=\"%s\"}", a.kind.c_str()))
          ->Increment();
      if (warnings_.size() < 16) {
        warnings_.push_back(Format("batch %lld: %s — %s",
                                   static_cast<long long>(a.batch_index),
                                   a.kind.c_str(), a.detail.c_str()));
      }
    }
  }

  if (metrics) {
    auto& ts = obs::TimeSeriesStore::Global();
    // An unmeasurable value has no sample (absent ≠ 0, and no inf in /timez).
    if (std::isfinite(update->max_rsd)) ts.Append(ts_max_rsd_, update->max_rsd);
    ts.Append(ts_half_width_, update->headline.half_width());
    ts.Append(ts_fraction_, update->fraction_processed);
    ts.Append(ts_uncertain_, static_cast<double>(update->uncertain_tuples));
    if (group_tracker_ != nullptr) {
      ts.Append(ts_half_width_worst_, worst_half_width);
      const std::vector<obs::GroupCell>& top = update->groups.top;
      for (int r = 0; r < kGroupRsdRanks && r < static_cast<int>(top.size()); ++r) {
        if (top[r].has_rsd) ts.Append(ts_group_rsd_[r], top[r].rsd);
      }
    }
  }

  // SLO crossings are tracked unconditionally (the wide-event query log
  // consumes them even with metrics off); only the histogram export is
  // gated.
  const std::vector<size_t> newly_met = slo_.Observe(
      update->elapsed_seconds, update->max_rsd, update->headline.has_estimate);
  if (metrics) {
    for (size_t idx : newly_met) {
      const obs::SloCrossing& c = slo_.crossings()[idx];
      obs::MetricsRegistry::Global()
          .GetHistogram(Format("gola_slo_time_to_rsd_us{table=\"%s\",target=\"%g%%\"}",
                               table_.c_str(), c.target_rsd * 100))
          ->Record(static_cast<int64_t>(c.seconds * 1e6));
    }
  }

  obs::QueryRegistry::Global().Update(registry_id_, *update, done, warnings_);
  if (convergence_) convergence_->Append(*update, emission.result.num_rows());

  // Last batch drained: flush the query timeline for Perfetto.
  if (done && !trace_path_.empty() && !trace_written_) {
    trace_written_ = true;
    Status st = obs::Tracer::Global().WriteJson(trace_path_);
    if (!st.ok()) {
      GOLA_LOG(Warn) << "failed to write trace to " << trace_path_ << ": "
                     << st.ToString();
    }
  }
}

}  // namespace gola
