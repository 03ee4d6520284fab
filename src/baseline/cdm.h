// Classical Delta Maintenance (CDM) baseline — the comparison engine of the
// paper's Figure 3(b) and §3.1.
//
// CDM maintains monotone blocks (those whose predicates reference no nested
// aggregate) incrementally, exactly like incremental view maintenance. But
// a block whose predicate depends on a nested aggregate must be recomputed
// over ALL previously seen data whenever that aggregate's value changes —
// which in online processing is every mini-batch. Its per-batch cost
// therefore grows linearly with the batch index (O(k²)·n total, §3.1),
// which is precisely what G-OLA's uncertain sets avoid.
//
// Physical execution goes through the shared delta-pipeline layer
// (exec/pipeline.h): each block runs DimJoin → Filter → Fold
// morsel-parallel when a pool is supplied, into the same GroupArena state
// G-OLA keeps (without replicates).
#ifndef GOLA_BASELINE_CDM_H_
#define GOLA_BASELINE_CDM_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/thread_pool.h"
#include "exec/batch_executor.h"
#include "exec/group_arena.h"
#include "plan/binder.h"
#include "storage/partitioner.h"

namespace gola {

struct CdmOptions {
  int num_batches = 10;
  uint64_t seed = 42;
  bool row_shuffle = true;
  /// Worker pool for the morsel-parallel block pipelines (null → serial).
  ThreadPool* pool = nullptr;
};

struct CdmUpdate {
  int batch_index = 0;       // 1-based
  Table result;              // running answer Q(D_i, k/i)
  double batch_seconds = 0;
  /// Rows actually scanned this batch — the cost metric of Figure 3(b).
  /// Monotone blocks contribute |ΔD_i|; aggregate-dependent blocks
  /// contribute |D_i|.
  int64_t rows_scanned = 0;
};

class CdmExecutor {
 public:
  static Result<std::unique_ptr<CdmExecutor>> Create(const Catalog* catalog,
                                                     CompiledQuery query,
                                                     const CdmOptions& options);

  bool done() const { return next_batch_ >= partitioner_->num_batches(); }
  Result<CdmUpdate> Step();

 private:
  CdmExecutor(const Catalog* catalog, CompiledQuery query, const CdmOptions& options);
  Status Prepare();

  const Catalog* catalog_;
  CompiledQuery query_;
  CdmOptions options_;
  std::unique_ptr<MiniBatchPartitioner> partitioner_;

  struct BlockState {
    const BlockDef* block = nullptr;
    bool incremental = false;  // no nested-aggregate dependence
    std::optional<DimJoinStage> join;
    std::optional<FilterStage> filter;
    std::unique_ptr<GroupAggregate> agg;  // incremental blocks only
  };
  std::vector<BlockState> states_;
  BroadcastEnv env_;
  int next_batch_ = 0;
  int64_t rows_through_ = 0;  // Σ rows of batches 0..next_batch_-1
};

}  // namespace gola

#endif  // GOLA_BASELINE_CDM_H_
