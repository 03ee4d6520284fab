// Per-query telemetry: everything an online query reports about itself
// besides the OnlineUpdate it returns — /statusz registration, /metrics
// counters and per-session histograms, /timez convergence series, the
// group tracker and convergence watchdog, the accuracy-SLO tracker, the
// convergence JSONL and the Perfetto trace file, plus the HTTP server and
// crash-handler start. The controller constructs one in Prepare and calls
// Observe once per Step. It observes only; results never depend on it.
#ifndef GOLA_GOLA_QUERY_TELEMETRY_H_
#define GOLA_GOLA_QUERY_TELEMETRY_H_

#include <memory>
#include <string>
#include <vector>

#include "gola/block_executor.h"
#include "obs/convergence.h"
#include "obs/group_telemetry.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/watchdog.h"

namespace gola {

struct OnlineUpdate;

class QueryTelemetry {
 public:
  /// Wires up every sink `options` asks for, for a query streaming `table`
  /// through `num_blocks` lineage blocks.
  QueryTelemetry(const GolaOptions& options, const std::string& table,
                 int num_blocks);
  /// Deregisters the query from /statusz (its last status stays in the
  /// recently-finished history) and retires its /timez series.
  ~QueryTelemetry();
  QueryTelemetry(const QueryTelemetry&) = delete;
  QueryTelemetry& operator=(const QueryTelemetry&) = delete;

  /// Fans one finished update out to every sink. Fills update->groups from
  /// the root emission's cells and update->alerts from the watchdog; `done`
  /// marks the last update, which flushes the trace file.
  void Observe(OnlineUpdate* update, const RootEmission& emission, bool done);

  /// Accuracy-SLO crossings so far (wall time to RSD ≤ 5/2/1%).
  const obs::AccuracySloTracker& slo() const { return slo_; }
  /// Where range-failure rebuilds dump the flight recorder ("" = nowhere).
  const std::string& flight_path() const { return flight_path_; }

 private:
  using SeriesId = obs::TimeSeriesStore::SeriesId;
  static constexpr SeriesId kNoSeries = obs::TimeSeriesStore::kInvalidSeries;
  /// /timez ranks of the worst per-group RSDs.
  static constexpr int kGroupRsdRanks = 4;

  std::string trace_path_;
  std::string flight_path_;
  uint64_t registry_id_ = 0;
  std::unique_ptr<obs::ConvergenceRecorder> convergence_;

  // Per-session telemetry (DESIGN.md §13). Labeled handles exist only when
  // the session layer set metrics_labels.session_id (bounded cardinality);
  // time-series and SLO tracking run for every query.
  std::string table_;
  obs::Counter* batches_labeled_ = nullptr;
  obs::Histogram* batch_us_labeled_ = nullptr;
  obs::Histogram* phase_us_labeled_[5] = {};  // envelope..materialize
  obs::AccuracySloTracker slo_;
  SeriesId ts_max_rsd_ = kNoSeries;
  SeriesId ts_half_width_ = kNoSeries;
  SeriesId ts_fraction_ = kNoSeries;
  SeriesId ts_uncertain_ = kNoSeries;

  // Estimator-quality observability (DESIGN.md §14): per-group tracker and
  // watchdog, their /timez series (worst-cell CI half-width and the
  // top-ranked per-group RSDs), and the bounded warning list /statusz
  // renders. Null when disabled.
  std::unique_ptr<obs::GroupTelemetryTracker> group_tracker_;
  std::unique_ptr<obs::ConvergenceWatchdog> watchdog_;
  SeriesId ts_half_width_worst_ = kNoSeries;
  SeriesId ts_group_rsd_[kGroupRsdRanks] = {kNoSeries, kNoSeries, kNoSeries,
                                            kNoSeries};
  std::vector<std::string> warnings_;
  bool trace_written_ = false;
};

}  // namespace gola

#endif  // GOLA_GOLA_QUERY_TELEMETRY_H_
