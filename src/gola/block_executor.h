// Online execution of one lineage block (paper §3): incremental
// deterministic-set aggregation, uncertain-set caching with lineage,
// variation-range classification with envelope failure detection, and
// per-batch broadcasting of running results to downstream blocks.
//
// Physical execution goes through the shared delta-pipeline layer: each
// batch runs DimJoin → Filter → OnlineClassify → Fold morsel-parallel
// (gola/online_stages.h documents the determinism contract), with the
// cached uncertain set re-entering the pipeline at the classify stage.
#ifndef GOLA_GOLA_BLOCK_EXECUTOR_H_
#define GOLA_GOLA_BLOCK_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bootstrap/ci.h"
#include "bootstrap/poisson.h"
#include "exec/batch_executor.h"
#include "exec/pipeline.h"
#include "expr/evaluator.h"
#include "gola/online_agg.h"
#include "gola/online_env.h"
#include "gola/online_stages.h"
#include "gola/uncertain.h"
#include "obs/group_telemetry.h"
#include "obs/query_stats.h"
#include "plan/binder.h"
#include "plan/logical_plan.h"
#include "storage/partitioner.h"

namespace gola {

/// Root block output for one mini-batch.
struct RootEmission {
  /// Point results plus `<col>_lo`, `<col>_hi`, `<col>_rsd` columns for
  /// every aggregate-bearing output column (NULL where the estimate is).
  Table result;
  /// The same error bars typed, one cell per (row, aggregate-bearing
  /// column) in row-major order, so cells[0] is the headline. A cell's key
  /// is its row's non-aggregate output values rendered with
  /// Value::ToString and joined with '|' ("*" when there are none).
  std::vector<obs::GroupCell> cells;
  /// Worst relative standard deviation across all cells — the headline
  /// accuracy number (y-axis of the paper's Figure 3(a)); +inf while a
  /// cell has no RSD (a NULL estimate, or an estimate of 0) and while the
  /// answer has no cells at all.
  double max_rsd = 0;
  /// Groups whose HAVING outcome is still uncertain (reported, not hidden).
  int64_t uncertain_groups = 0;
};

class OnlineBlockExec {
 public:
  OnlineBlockExec(const BlockDef* block, const Catalog* catalog,
                  const GolaOptions* options, const PoissonWeights* weights);

  /// Processes mini-batch `batch` (serials attached). Upstream blocks must
  /// have emitted batch-i values into `env` already. Returns the range
  /// failure detected (kNone → the batch was folded); on failure the block
  /// did NOT fold the batch and the caller must run a query-wide Rebuild.
  /// Phase timings accumulate into `stats` when non-null.
  Result<RangeFailure> ProcessBatch(const Chunk& batch, double scale,
                                    OnlineEnv* env,
                                    obs::QueryStats* stats = nullptr);

  /// Discards all state and reprocesses `seen` in one morsel-parallel pass
  /// against the *current* upstream broadcasts (the paper's failure
  /// recovery: recompute with the correct variation ranges). Ends with a
  /// fresh Emit.
  Status Rebuild(const std::vector<const Chunk*>& seen, double scale, OnlineEnv* env,
                 obs::QueryStats* stats = nullptr);

  void Reset();

  /// Checkpoint round-trip of the block's online state: row counter,
  /// deterministic aggregates (with bootstrap replicates), installed
  /// classification envelopes and the cached uncertain set. Broadcast-facing
  /// caches are NOT saved — after LoadState the caller must ReEmit every
  /// block in dependency order to rebuild them.
  Status SaveState(BinaryWriter* w) const;
  Status LoadState(BinaryReader* r);

  /// Re-runs this block's emission from current (e.g. just-restored) state:
  /// recomputes the uncertain set's pass flags against the current upstream
  /// broadcasts, then rebuilds broadcasts / membership views / root output
  /// without folding any new rows.
  Status ReEmit(double scale, OnlineEnv* env);

  // --- statistics -------------------------------------------------------
  int64_t uncertain_size() const { return static_cast<int64_t>(uncertain_.num_rows()); }
  size_t num_groups() const { return agg_ ? agg_->num_groups() : 0; }
  int64_t rows_seen() const { return rows_seen_; }
  const BlockDef& block() const { return *block_; }
  /// Cumulative per-operator row counters of this block's pipeline.
  const PipelineMetrics& metrics() const { return metrics_; }

  /// Root emissions of the most recent batch (root blocks only).
  const RootEmission& root_emission() const { return root_emission_; }

  /// Caps the replicates the root's error bars are finalized from (all of
  /// them by default); the deadline ladder lowers it. Classification and
  /// envelope checks always use the full set.
  void set_ci_replicates(size_t n) { ci_replicates_ = n; }

 private:
  Status Init();

  /// Fresh empty uncertain cache (input layout, serials attached).
  Chunk EmptyUncertain() const;

  ExecContext MakeContext(double scale, OnlineEnv* env);

  /// Runs the delta pipeline, retrying the whole batch on retryable
  /// failures that escape the morsel-level retry (e.g. a fault below the
  /// morsel layer). Safe because Run merges into shared state only after
  /// every morsel succeeded.
  Status RunPipelineWithRetry(const ExecContext& ctx,
                              const std::vector<MorselSource>& sources,
                              Chunk* uncertain_out, std::vector<uint8_t>* pass_out,
                              const char* what);

  /// Folds the passing uncertain rows onto an overlay, finalizes, and
  /// broadcasts / produces root output. The four parts' times accumulate
  /// into `stats` (and their sum into emit_seconds) when non-null.
  Status Emit(double scale, OnlineEnv* env, obs::QueryStats* stats);

  Status EmitScalar(const PostAggChunk& post, OnlineEnv* env, const ExecContext& ctx);
  Status EmitMembership(const PostAggChunk& post, OnlineEnv* env, const ExecContext& ctx);
  Status EmitRoot(const PostAggChunk& post, double scale, OnlineEnv* env);

  const BlockDef* block_;
  const Catalog* catalog_;
  const GolaOptions* options_;
  const PoissonWeights* weights_;

  // --- the block's delta pipeline ---------------------------------------
  std::optional<DimJoinStage> join_stage_;
  std::optional<FilterStage> filter_stage_;  // certain conjuncts only
  std::unique_ptr<OnlineClassifyStage> classify_stage_;
  std::unique_ptr<FoldStage> fold_stage_;
  DeltaPipeline pipeline_;
  PipelineMetrics metrics_;

  std::unique_ptr<GroupAggregate> agg_;
  /// Cached lineage (paper §3.3): the input-layout columns the block's
  /// predicates, keys and arguments read, plus serials.
  Chunk uncertain_;
  /// One flag per uncertain_ row: its point-form predicate holds (the
  /// passing set Emit folds). Not checkpointed; ReEmit recomputes it.
  std::vector<uint8_t> uncertain_pass_;
  int64_t rows_seen_ = 0;

  // --- membership classification (kMembership blocks) ---------------------
  // The single HAVING conjunct usable for range classification, pre-split
  // into lhs (aggregate-bearing, post-agg space) and rhs.
  struct ClsConjunct {
    ExprPtr lhs;
    CmpOp cmp = CmpOp::kGt;
    ExprPtr certain_rhs;      // group-free certain expr, or
    int rhs_subquery_id = -1; // scalar subquery range
  };
  std::optional<ClsConjunct> cls_conjunct_;
  bool membership_monotone_ = false;  // no HAVING: presence is monotone

  RootEmission root_emission_;
  size_t ci_replicates_ = SIZE_MAX;
  bool initialized_ = false;
};

}  // namespace gola

#endif  // GOLA_GOLA_BLOCK_EXECUTOR_H_
