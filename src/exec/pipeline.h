// The delta-pipeline operator layer: one physical execution substrate shared
// by the exact batch engine, the G-OLA online engine, and the baselines.
//
// Every consumer builds the same chain per lineage block —
//
//   Scan → DimJoin → Filter → [Classify] → Fold | Collect
//
// — and hands it to DeltaPipeline::Run, which splits the input chunks into
// deterministic morsels, dispatches them over ThreadPool::ParallelFor, and
// merges the per-morsel partial aggregate states at the barrier *in morsel
// order*. Because the morsel decomposition depends only on the input sizes
// (never on the pool), and partials merge in a fixed order, results are
// bit-identical across pool sizes — the single-node equivalent of the
// partial/merge exchange a cluster would run, with the determinism the
// seeded bootstrap requires.
#ifndef GOLA_EXEC_PIPELINE_H_
#define GOLA_EXEC_PIPELINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "exec/group_arena.h"
#include "exec/hash_join.h"
#include "expr/evaluator.h"
#include "plan/binder.h"
#include "plan/logical_plan.h"
#include "storage/chunk.h"

namespace gola {

/// Per-operator row counters, shared by all morsels of a pipeline (atomic:
/// stages on different workers bump them concurrently). Cumulative across
/// Run calls; Reset to start a fresh window.
struct PipelineMetrics {
  std::atomic<int64_t> batches{0};         // Run calls
  std::atomic<int64_t> morsels{0};
  std::atomic<int64_t> rows_in{0};         // rows entering the pipeline
  std::atomic<int64_t> rows_joined{0};     // rows leaving DimJoinStage
  std::atomic<int64_t> rows_filtered{0};   // rows surviving FilterStage
  std::atomic<int64_t> rows_folded{0};     // rows folded into aggregate state
  std::atomic<int64_t> rows_uncertain{0};  // rows deferred by classification

  void Reset() {
    batches = 0;
    morsels = 0;
    rows_in = 0;
    rows_joined = 0;
    rows_filtered = 0;
    rows_folded = 0;
    rows_uncertain = 0;
  }
};

/// Everything a stage needs to execute one run: worker pool, multiplicity
/// scale, seed, point-broadcast environment, morsel policy, metrics. Plain
/// value struct — build one per Run (or per Step) and pass it down.
struct ExecContext {
  /// Worker pool (null → every morsel runs on the calling thread). The pool
  /// only decides *which thread* runs a morsel, never the morsel plan or the
  /// merge order, so it cannot affect results.
  ThreadPool* pool = nullptr;
  /// Multiplicity scale applied at aggregate finalization (§2.2).
  double scale = 1.0;
  uint64_t seed = 0;
  /// Point broadcast values for expression evaluation.
  const BroadcastEnv* env = nullptr;
  /// Morsel policy: split the input into at most `max_morsels` pieces of at
  /// least `min_morsel_rows` rows (both independent of the pool size).
  size_t min_morsel_rows = 512;
  size_t max_morsels = 32;
  PipelineMetrics* metrics = nullptr;
  /// Resilience policy: a morsel whose body returns a retryable error (or
  /// throws) is re-executed in place up to this many extra attempts, with
  /// exponential backoff starting at `retry_backoff_ms`. Morsel bodies are
  /// deterministic functions of their input slice, so a retried morsel
  /// reproduces the exact same partial state — retries never change results.
  int max_morsel_retries = 2;
  int retry_backoff_ms = 1;
};

/// Prebuilt hash tables for a block's dimension joins, applied in order.
class DimJoinSet {
 public:
  static Result<DimJoinSet> Build(const BlockDef& block, const Catalog& catalog);
  /// Thread-safe: probes only.
  Result<Chunk> Apply(const BlockDef& block, const Chunk& chunk) const;
  bool empty() const { return tables_.empty(); }

 private:
  std::vector<DimHashTable> tables_;
  std::vector<SchemaPtr> stage_schemas_;  // layout after each join stage
};

/// A row-preserving-or-reducing chunk transform. Apply must be const and
/// thread-safe: one instance serves all morsels concurrently.
class TransformStage {
 public:
  virtual ~TransformStage() = default;
  virtual const char* name() const = 0;
  virtual Result<Chunk> Apply(Chunk in, const ExecContext& ctx) const = 0;
};

/// Streams a morsel through the block's dimension joins.
class DimJoinStage : public TransformStage {
 public:
  DimJoinStage(const BlockDef* block, DimJoinSet dims)
      : block_(block), dims_(std::move(dims)) {}

  const char* name() const override { return "dim_join"; }
  Result<Chunk> Apply(Chunk in, const ExecContext& ctx) const override;
  bool empty() const { return dims_.empty(); }

 private:
  const BlockDef* block_;
  DimJoinSet dims_;
};

/// Keeps rows passing the conjunction of a predicate list.
class FilterStage : public TransformStage {
 public:
  explicit FilterStage(std::vector<ExprPtr> preds) : preds_(std::move(preds)) {}

  /// The block's certain conjuncts only (online path: uncertain conjuncts go
  /// through classification instead).
  static FilterStage CertainOnly(const BlockDef& block);
  /// Certain conjuncts plus the point forms of the uncertain ones (batch
  /// path: subquery values are exact, so point evaluation is the answer).
  static FilterStage AllPointForms(const BlockDef& block);

  const char* name() const override { return "filter"; }
  Result<Chunk> Apply(Chunk in, const ExecContext& ctx) const override;
  bool empty() const { return preds_.empty(); }
  /// The conjunct list, e.g. for zone-map pruning ahead of the scan.
  const std::vector<ExprPtr>& preds() const { return preds_; }

 private:
  std::vector<ExprPtr> preds_;
};

/// Splits each morsel into rows to fold now vs rows whose predicate outcome
/// is still uncertain (paper §3.2). Stateful across a batch: BeginBatch is
/// called before the morsel loop, Classify concurrently per morsel (each
/// morsel index exactly once), EndBatch serially at the barrier — where
/// implementations apply deferred decisions in morsel order.
class ClassifyStage {
 public:
  struct Split {
    Chunk fold;       // deterministic-true rows
    Chunk uncertain;  // rows to cache and revisit next batch
    /// One flag per uncertain row: does its point-form predicate hold under
    /// the batch's (frozen) point environment? Those rows are the passing
    /// set the online engine folds into its per-batch overlay.
    std::vector<uint8_t> pass;
  };

  virtual ~ClassifyStage() = default;
  virtual const char* name() const { return "classify"; }
  virtual void BeginBatch(size_t num_morsels) = 0;
  virtual Result<Split> Classify(size_t morsel_index, Chunk in,
                                 const ExecContext& ctx) = 0;
  virtual Status EndBatch() = 0;
};

/// Pipeline sink: accumulates per-morsel partial states and merges them in
/// morsel order at the barrier (Finish). Consume is called concurrently,
/// exactly once per morsel index; BeginBatch/Finish serially.
class AggregateStage {
 public:
  virtual ~AggregateStage() = default;
  virtual const char* name() const { return "aggregate"; }
  virtual void BeginBatch(size_t num_morsels) = 0;
  virtual Status Consume(size_t morsel_index, Chunk in, const ExecContext& ctx) = 0;
  virtual Status Finish() = 0;
};

/// Aggregation sink of every engine: folds each morsel into a GroupArena
/// tile of its own, then adds the tiles into `agg` in morsel order at the
/// barrier (bootstrap replicate maintenance included when `agg` has
/// weights). `agg` may carry state across runs (the online deterministic
/// set, the CDM incremental path) or be fresh per run (the batch engine).
class FoldStage : public AggregateStage {
 public:
  explicit FoldStage(GroupAggregate* agg) : agg_(agg) {}

  const char* name() const override { return "fold"; }
  void BeginBatch(size_t num_morsels) override;
  Status Consume(size_t morsel_index, Chunk in, const ExecContext& ctx) override;
  Status Finish() override;

 private:
  GroupAggregate* agg_;
  std::vector<GroupArena> tiles_;
};

/// Pass-through sink for non-aggregating (root SPJ) blocks: concatenates the
/// surviving morsels in morsel order.
class CollectStage : public AggregateStage {
 public:
  explicit CollectStage(SchemaPtr schema) : schema_(std::move(schema)) {}

  const char* name() const override { return "collect"; }
  void BeginBatch(size_t num_morsels) override;
  Status Consume(size_t morsel_index, Chunk in, const ExecContext& ctx) override;
  Status Finish() override;

  /// All rows, in input order (valid after Finish; empty chunk with the
  /// stage schema when no rows survived).
  Chunk& combined() { return combined_; }

 private:
  SchemaPtr schema_;
  std::vector<Chunk> outputs_;
  Chunk combined_;
};

/// One input of a pipeline run. `first_stage` skips transform stages the
/// chunk already went through (the online uncertain cache is stored
/// post-join/post-filter, so it re-enters at the classify stage).
struct MorselSource {
  const Chunk* chunk = nullptr;
  size_t first_stage = 0;
};

/// One planned morsel: a contiguous slice of a source chunk.
struct MorselPlan {
  const Chunk* chunk = nullptr;
  size_t offset = 0;
  size_t rows = 0;
  size_t first_stage = 0;
  size_t source = 0;  // index into the planned sources
};

/// Deterministic morsel decomposition: depends only on the source sizes and
/// the (min_morsel_rows, max_morsels) policy — never on the pool.
std::vector<MorselPlan> PlanMorsels(const std::vector<MorselSource>& sources,
                                    size_t min_morsel_rows, size_t max_morsels);

/// A contiguous range [begin, end) of work items (groups, keys, slots).
struct PieceRange {
  size_t begin = 0;
  size_t end = 0;
};

/// Splits `num_items` items, item i weighing rows_of(i) rows, into
/// contiguous pieces of about equal rows under the morsel policy: at most
/// max_morsels pieces, none lighter than min_morsel_rows (except the last),
/// so small inputs stay one piece. Like PlanMorsels, the split depends only
/// on the weights, never on the pool.
std::vector<PieceRange> PlanPieces(size_t num_items,
                                   const std::function<size_t(size_t)>& rows_of,
                                   const ExecContext& ctx);

/// Runs fn(p) once for every piece p, on ctx.pool when there are two or
/// more, and returns the first non-OK status in piece order. A pool fault
/// that drops pieces before they start (the threadpool.task failpoint) is
/// absorbed by running exactly those pieces on the calling thread, so every
/// piece runs once and non-idempotent bodies (folds into shared state) stay
/// correct.
Status RunPieces(const ExecContext& ctx, size_t num_pieces,
                 const std::function<Status(size_t)>& fn);

/// The morsel-parallel driver over one block's scan. Borrows stages
/// (callers own them; transform stages are typically long-lived, sinks
/// per-run or per-block).
class DeltaPipeline {
 public:
  /// Each morsel of a first-stage source slices only `block`'s scan
  /// columns (BlockDef::ScanSchema, found by name in the source chunk's
  /// schema, so a source may hold every column of the table or any subset
  /// that includes them), with the encoded sidecar's views projected
  /// alongside: the layout every stage addresses.
  explicit DeltaPipeline(const BlockDef& block) : scan_schema_(block.ScanSchema()) {}

  DeltaPipeline& Add(const TransformStage* stage) {
    transforms_.push_back(stage);
    return *this;
  }
  void SetClassify(ClassifyStage* classify) { classify_ = classify; }
  void SetSink(AggregateStage* sink) { sink_ = sink; }

  size_t num_transforms() const { return transforms_.size(); }

  /// Runs every source through the stage chain. When a classify stage is
  /// set, `uncertain_out` (required non-null) receives the uncertain rows of
  /// all morsels, appended in morsel order, and `pass_out` (when non-null)
  /// their pass flags beside them. The barrier copies the per-morsel slots
  /// into the output on the pool.
  Status Run(const ExecContext& ctx, const std::vector<MorselSource>& sources,
             Chunk* uncertain_out = nullptr, std::vector<uint8_t>* pass_out = nullptr);

 private:
  /// Where the scan columns sit in `source`: one chunk position per scan
  /// column, or empty when the chunk already has the scan layout (a later
  /// stage's input, or a segment scan that decoded just these columns).
  Result<std::vector<int>> ScanPositions(const MorselSource& source) const;

  SchemaPtr scan_schema_;
  std::vector<const TransformStage*> transforms_;
  ClassifyStage* classify_ = nullptr;
  AggregateStage* sink_ = nullptr;
};

/// Evaluates the block's HAVING conjuncts (certain + point forms of the
/// uncertain ones) over a post-aggregation chunk, returning the row mask.
Result<std::vector<uint8_t>> EvaluateHavingMask(const BlockDef& block,
                                                const Chunk& post,
                                                const BroadcastEnv* env);

/// Applies EvaluateHavingMask as a filter (no-op when the block has no
/// HAVING conjuncts).
Result<Chunk> ApplyHavingFilters(const BlockDef& block, const Chunk& post,
                                 const BroadcastEnv* env);

}  // namespace gola

#endif  // GOLA_EXEC_PIPELINE_H_
