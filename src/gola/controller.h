// The G-OLA query controller (paper §4): partitions the input into uniform
// random mini-batches, schedules the per-batch delta queries across the
// lineage blocks in dependency order, monitors variation-range failures,
// and schedules query-wide recompute jobs when one is detected. Each Step
// returns an OnlineUpdate and hands it once to the query's telemetry
// (gola/query_telemetry.h), which feeds every observability surface.
#ifndef GOLA_GOLA_CONTROLLER_H_
#define GOLA_GOLA_CONTROLLER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "gola/block_executor.h"
#include "obs/update_record.h"
#include "plan/binder.h"
#include "storage/partitioner.h"

namespace gola {

namespace obs {
class AccuracySloTracker;
}  // namespace obs

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

/// The running answer after one mini-batch — what a dashboard would render.
/// The progress, accuracy and cost fields, the typed headline cell and the
/// bounded `groups` summary come from obs::UpdateRecord, the one record
/// every telemetry consumer reads. Every typed cell of the answer stays in
/// the executor (OnlineQueryExecutor::cells()).
struct OnlineUpdate : obs::UpdateRecord {
  /// Multiplicity scale k/i applied to extensive aggregates (§2.2).
  double scale = 1;

  /// Approximate result rows; aggregate-bearing columns carry companion
  /// `<col>_lo`, `<col>_hi` (bootstrap CI) and `<col>_rsd` columns, NULL
  /// where the estimate is NULL.
  Table result;

  /// Highest deadline-degradation rung in effect when this update was
  /// produced (kNone unless deadline_ms pressure kicked in).
  Degradation degradation = Degradation::kNone;

  /// Watchdog alerts that fired on this update (almost always empty).
  std::vector<obs::WatchdogAlert> alerts;
};

class QueryTelemetry;

class OnlineQueryExecutor {
 public:
  /// Validates and prepares the query: every block must stream the same
  /// table (dimension joins are fine) and must aggregate.
  ///
  /// `shared_scan` (optional) is a mini-batch partitioning of the streamed
  /// table produced by the scan-share layer (server/scan_share.h): N
  /// queries over the same table attach to one partitioner instead of each
  /// paying the shuffle + batch-gather cost. The partitioner is validated
  /// against the table and options (batch count, row count) and widened to
  /// the columns the query reads (MiniBatchPartitioner::Widen); on mismatch
  /// the executor silently builds its own, which gathers only those
  /// columns — sharing is an optimization, never a correctness dependency.
  /// A shared scan is bit-identical to a private one: the partitioning is
  /// a pure function of (table, options).
  static Result<std::unique_ptr<OnlineQueryExecutor>> Create(
      const Catalog* catalog, CompiledQuery query, const GolaOptions& options,
      std::shared_ptr<const MiniBatchPartitioner> shared_scan = nullptr);

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
  const obs::AccuracySloTracker& slo() const;
  /// Every typed cell of the latest answer, row-major (cells()[0] is the
  /// headline): the typed twin of the result's `_lo`/`_hi`/`_rsd` columns.
  const std::vector<obs::GroupCell>& cells() const {
    return blocks_.back()->root_emission().cells;
  }

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

  /// The one query clock: wall seconds since Create, plus any spent before
  /// a ResumeFrom. Feeds OnlineUpdate::elapsed_seconds and the deadline.
  double ElapsedSeconds() const {
    return resumed_elapsed_ + clock_.ElapsedSeconds();
  }

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
  /// Started when Create constructs the executor; restarted by ResumeFrom.
  Stopwatch clock_;
  /// Wall seconds already spent before a ResumeFrom (0 in a fresh run), so
  /// a restored query keeps the time and deadline budget it consumed.
  double resumed_elapsed_ = 0;
  /// Cumulative pipeline volume already attributed to earlier updates
  /// (QueryStats reports per-batch deltas of the blocks' counters).
  int64_t prev_morsels_ = 0;
  int64_t prev_rows_in_ = 0;
  int64_t prev_rows_folded_ = 0;
  int64_t prev_rows_uncertain_ = 0;
  std::unique_ptr<QueryTelemetry> telemetry_;
};

}  // namespace gola

#endif  // GOLA_GOLA_CONTROLLER_H_
