// The G-OLA query controller (paper §4): partitions the input into uniform
// random mini-batches, schedules the per-batch delta queries across the
// lineage blocks in dependency order, monitors variation-range failures,
// and schedules query-wide recompute jobs when one is detected.
#ifndef GOLA_GOLA_CONTROLLER_H_
#define GOLA_GOLA_CONTROLLER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "gola/block_executor.h"
#include "obs/convergence.h"
#include "obs/group_telemetry.h"
#include "obs/query_stats.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/watchdog.h"
#include "plan/binder.h"
#include "storage/partitioner.h"

namespace gola {

/// Deadline-pressure degradation rung (GolaOptions::deadline_ms). The ladder
/// is monotone within a query and each rung includes the ones below it:
/// 50% of the deadline → stop materializing intermediate results; 75% →
/// finalize CIs from half the bootstrap replicates (classification keeps the
/// full set, so results stay deterministic); 100% → finish the in-flight
/// batch, then stop and return the best available estimate with its CI.
/// A deadline never turns a well-formed query into an error.
enum class Degradation : uint8_t {
  kNone = 0,
  kSkipMaterialize = 1,
  kReducedReplicates = 2,
  kStoppedEarly = 3,
};

/// Stable label ("none", "skip_materialize", ...) for metrics and logs.
const char* DegradationName(Degradation d);

/// The headline aggregate cell of a running answer: the first
/// CI-carrying column's row-0 estimate with its bootstrap CI bounds and
/// RSD — the single number a convergence plot, the accuracy-SLO tracker
/// and the wide-event query log all watch.
struct HeadlineCell {
  bool has_estimate = false;
  double estimate = 0;
  double ci_lo = 0;
  double ci_hi = 0;
  /// Relative standard deviation; -1 means *absent* (no `_rsd` companion,
  /// or the companion did not parse as a number). Absent must never be
  /// conflated with 0 — 0 claims full convergence.
  double rsd = -1;
  bool has_rsd() const { return rsd >= 0; }
  /// CI half-width (hi − lo)/2; 0 without an estimate.
  double half_width() const {
    return has_estimate ? (ci_hi - ci_lo) / 2 : 0;
  }
};

/// Locates the headline cell in a result table via its `<col>_lo`
/// companion column (first aggregate-bearing column, first row). Returns
/// has_estimate=false for empty results, plain tables, or when the cell's
/// estimate/CI values fail to parse as numbers (null aggregates) — an
/// unparseable cell is "no estimate yet", never a fake converged 0.
HeadlineCell ExtractHeadline(const Table& result);

/// Walks every (row, aggregate-column) cell of a result table into
/// per-group telemetry cells: group key = the non-aggregate, non-companion
/// columns' values joined with "|" ("*" for scalar queries), one GroupCell
/// per `<col>_lo`-bearing output column per row. Unparseable estimates /
/// RSDs propagate as absent, mirroring ExtractHeadline.
std::vector<obs::GroupCell> ExtractGroupCells(const Table& result);

/// The running answer after one mini-batch — what a dashboard would render.
struct OnlineUpdate {
  int batch_index = 0;  // 1-based
  int total_batches = 0;
  double fraction_processed = 0;
  /// Multiplicity scale k/i applied to extensive aggregates (§2.2).
  double scale = 1;

  /// Approximate result rows; aggregate-bearing columns carry companion
  /// `<col>_lo`, `<col>_hi` (bootstrap CI) and `<col>_rsd` columns.
  Table result;
  /// Worst relative standard deviation across aggregate cells.
  double max_rsd = 0;

  // Progress / cost introspection (drives the §5 experiments).
  int64_t uncertain_tuples = 0;  // Σ |U_i| over all blocks
  int64_t uncertain_groups = 0;  // HAVING outcomes still undecided
  int recomputes_so_far = 0;     // range failures repaired so far
  /// Wall time of this whole Step, result materialization included.
  double batch_seconds = 0;
  /// Portion of batch_seconds spent building this update (result-table
  /// copy) — subtract it to measure delta maintenance alone, so §5-style
  /// overhead experiments don't misattribute reporting cost.
  double materialize_seconds = 0;
  double elapsed_seconds = 0;  // wall time since query start

  /// Highest deadline-degradation rung in effect when this update was
  /// produced (kNone unless deadline_ms pressure kicked in).
  Degradation degradation = Degradation::kNone;

  /// Per-phase cost breakdown and pipeline volume of this batch.
  obs::QueryStats stats;

  /// Bounded per-group convergence summary of this update (top-K worst
  /// cells by RSD, churn counts); empty when group_top_k is 0, telemetry
  /// is disabled, or the result carries no aggregate cells.
  obs::GroupConvergenceSummary groups;
  /// Watchdog alerts that fired on this update (almost always empty).
  std::vector<obs::WatchdogAlert> alerts;
};

class OnlineQueryExecutor {
 public:
  /// Validates and prepares the query: every block must stream the same
  /// table (dimension joins are fine) and must aggregate.
  ///
  /// `shared_scan` (optional) is a mini-batch partitioning of the streamed
  /// table produced by the scan-share layer (server/scan_share.h): N
  /// queries over the same table attach to one partitioner instead of each
  /// paying the shuffle + batch-gather cost. The partitioner is validated
  /// against the table and options (batch count, row count); on mismatch
  /// the executor silently builds its own — sharing is an optimization,
  /// never a correctness dependency. A shared scan is bit-identical to a
  /// private one: the partitioning is a pure function of (table, options).
  static Result<std::unique_ptr<OnlineQueryExecutor>> Create(
      const Catalog* catalog, CompiledQuery query, const GolaOptions& options,
      std::shared_ptr<const MiniBatchPartitioner> shared_scan = nullptr);

  /// Deregisters the query from the live /statusz registry (its final
  /// status stays visible in the recently-finished history).
  ~OnlineQueryExecutor();

  bool done() const {
    return stopped_early_ || next_batch_ >= partitioner_->num_batches();
  }
  int batches_processed() const { return next_batch_; }
  int total_batches() const { return partitioner_->num_batches(); }
  int recomputes() const { return recomputes_; }
  /// Highest deadline-degradation rung reached so far.
  Degradation degradation() const { return degradation_; }
  /// True when the deadline controller ended the query before every batch.
  bool stopped_early() const { return stopped_early_; }
  const CompiledQuery& query() const { return query_; }
  /// True when this executor attached to a shared mini-batch scan instead
  /// of building its own partitioner.
  bool scan_shared() const { return scan_shared_; }
  /// Accuracy-SLO crossings recorded so far (wall time to RSD ≤ 5/2/1%).
  /// The session layer harvests these for /sessions JSON and the
  /// wide-event query log before the executor is torn down.
  const obs::AccuracySloTracker& slo() const { return slo_; }

  /// Processes the next mini-batch and returns the refined answer.
  Result<OnlineUpdate> Step();

  /// Runs every remaining batch; `callback` (optional) sees each update and
  /// may stop the query early by returning false — the OLA user control.
  Result<OnlineUpdate> Run(
      const std::function<bool(const OnlineUpdate&)>& callback = nullptr);

  /// Runs until the answer reaches the target relative standard deviation
  /// (or the data is exhausted) — the "accuracy criterion" stop of §2.
  Result<OnlineUpdate> RunToAccuracy(double target_rsd);

  /// Serializes the full resumable online state — batch cursor, per-block
  /// aggregates with bootstrap replicates, uncertain sets, classification
  /// envelopes — to `path` atomically (tmp + rename). Versioned format; see
  /// gola/checkpoint.h. Implemented in checkpoint.cc.
  Status Checkpoint(const std::string& path) const;

  /// Restores a Checkpoint into this freshly created executor (same catalog,
  /// query and options — a fingerprint is validated before any state is
  /// touched) and rebuilds all broadcasts, so the next Step() processes
  /// batch `batches_processed()` and the final answer is bit-identical to an
  /// uninterrupted run. Implemented in checkpoint.cc.
  Status ResumeFrom(const std::string& path);

 private:
  OnlineQueryExecutor(const Catalog* catalog, CompiledQuery query,
                      const GolaOptions& options);

  Status Prepare(std::shared_ptr<const MiniBatchPartitioner> shared_scan);

  /// Checkpoint body (magic, version, fingerprint, cursor, per-block
  /// aggregates, trailing checksum) to and from a stream. DeserializeState
  /// validates magic/version/fingerprint/checksum before replacing this
  /// executor's state, then re-emits every block so results are readable.
  /// Implemented in checkpoint.cc.
  Status SerializeState(std::ostream* out) const;
  Status DeserializeState(std::istream* in);

  /// Raises the degradation rung to match deadline progress (monotone; only
  /// called after ≥1 batch, so a well-formed query always yields an answer).
  void ApplyDeadlinePressure(double wall_seconds);
  /// (Re-)applies the side effects of the current rung — also used on
  /// ResumeFrom so a restored query degrades exactly like the original.
  void ApplyDegradationEffects();

  /// Publishes `update` into the process-wide query registry (/statusz).
  void PublishStatus(const OnlineUpdate& update);
  /// Appends `update` to the convergence JSONL recorder. `headline` is the
  /// cell extracted from the root emission (so recording works even when
  /// materialize_results is off).
  void RecordConvergence(const OnlineUpdate& update,
                         const HeadlineCell& headline);

  const Catalog* catalog_;
  CompiledQuery query_;
  GolaOptions options_;
  std::unique_ptr<PoissonWeights> weights_;
  /// Shared with other executors when scan sharing attached this query to
  /// an existing sweep. Its batches are deterministic and its gather cache
  /// is locked, which is what makes sharing race-free.
  std::shared_ptr<const MiniBatchPartitioner> partitioner_;
  bool scan_shared_ = false;
  std::vector<std::unique_ptr<OnlineBlockExec>> blocks_;
  OnlineEnv env_;
  int next_batch_ = 0;
  int64_t rows_through_ = 0;  // Σ rows of batches 0..next_batch_-1
  int recomputes_ = 0;
  Degradation degradation_ = Degradation::kNone;
  bool stopped_early_ = false;
  Stopwatch total_timer_;
  double elapsed_ = 0;
  /// Wall seconds already spent before a ResumeFrom (0 in a fresh run); the
  /// deadline clock is resumed_elapsed_ + total_timer_, so a restored query
  /// keeps the budget it already consumed.
  double resumed_elapsed_ = 0;
  /// Cumulative pipeline volume already attributed to earlier updates
  /// (QueryStats reports per-batch deltas of the blocks' counters).
  int64_t prev_morsels_ = 0;
  int64_t prev_rows_in_ = 0;
  int64_t prev_rows_folded_ = 0;
  int64_t prev_rows_uncertain_ = 0;
  bool trace_written_ = false;

  // Live introspection (PR 3): /statusz registration, convergence JSONL,
  // and the flight-recorder dump destination for range-failure rebuilds.
  uint64_t registry_id_ = 0;
  std::unique_ptr<obs::ConvergenceRecorder> convergence_;
  std::string flight_path_;

  // Per-session telemetry (DESIGN.md §13). Labeled handles exist only when
  // the session layer set metrics_labels.session_id (bounded cardinality);
  // time-series and SLO tracking run for every query.
  obs::MetricLabels labels_;  // table defaulted to the streamed table
  obs::Counter* batches_labeled_ = nullptr;
  obs::Histogram* batch_us_labeled_ = nullptr;
  obs::Histogram* phase_us_labeled_[5] = {};  // envelope..materialize
  obs::AccuracySloTracker slo_;
  obs::TimeSeriesStore::SeriesId ts_max_rsd_ =
      obs::TimeSeriesStore::kInvalidSeries;
  obs::TimeSeriesStore::SeriesId ts_half_width_ =
      obs::TimeSeriesStore::kInvalidSeries;
  obs::TimeSeriesStore::SeriesId ts_fraction_ =
      obs::TimeSeriesStore::kInvalidSeries;
  obs::TimeSeriesStore::SeriesId ts_uncertain_ =
      obs::TimeSeriesStore::kInvalidSeries;

  // Estimator-quality observability (DESIGN.md §14): per-group convergence
  // tracker + watchdog, their /timez series (worst-cell CI half-width and
  // the top-`kGroupRsdRanks` worst per-group RSDs), and the bounded warning
  // list /statusz renders. Null when disabled.
  static constexpr int kGroupRsdRanks = 4;
  std::unique_ptr<obs::GroupTelemetryTracker> group_tracker_;
  std::unique_ptr<obs::ConvergenceWatchdog> watchdog_;
  obs::TimeSeriesStore::SeriesId ts_half_width_worst_ =
      obs::TimeSeriesStore::kInvalidSeries;
  obs::TimeSeriesStore::SeriesId ts_group_rsd_[kGroupRsdRanks] = {
      obs::TimeSeriesStore::kInvalidSeries, obs::TimeSeriesStore::kInvalidSeries,
      obs::TimeSeriesStore::kInvalidSeries, obs::TimeSeriesStore::kInvalidSeries};
  std::vector<std::string> warnings_;
};

}  // namespace gola

#endif  // GOLA_GOLA_CONTROLLER_H_
