// The traditional (exact, blocking) engine: executes a compiled block DAG
// bottom-up, filling a BroadcastEnv with exact subquery values. It is
//  (a) the baseline G-OLA is compared against in Figure 3(a),
//  (b) the ground truth for the exactness tests, and
//  (c) the building block reused by the CDM baseline, which re-runs it
//      over growing chunk prefixes.
//
// Physical execution goes through the shared delta-pipeline layer
// (exec/pipeline.h): per block, DimJoin → Filter → Fold|Collect,
// morsel-parallel when a pool is supplied. Aggregate blocks fold into the
// GroupArena every engine shares, without replicates, and emit their groups
// in key order.
#ifndef GOLA_EXEC_BATCH_EXECUTOR_H_
#define GOLA_EXEC_BATCH_EXECUTOR_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "exec/pipeline.h"
#include "expr/evaluator.h"
#include "plan/binder.h"
#include "plan/logical_plan.h"
#include "storage/table.h"

namespace gola {

struct BatchExecOptions {
  /// Multiplicity scale applied to COUNT/SUM finalization (§2.2 multiset
  /// semantics); 1.0 for plain exact execution.
  double scale = 1.0;
  /// Worker pool for the morsel-parallel pipeline (null → sequential).
  ThreadPool* pool = nullptr;
};

class BatchExecutor {
 public:
  explicit BatchExecutor(const Catalog* catalog) : catalog_(catalog) {}

  /// Executes the query over the cataloged tables.
  Result<Table> Execute(const CompiledQuery& query, const BatchExecOptions& opts = {});

  /// Executes with the chunks of `streamed_table` replaced by `chunks` —
  /// i.e. evaluates Q(D_i, scale) over an explicit data prefix, such as
  /// MiniBatchPartitioner::BatchesSharedUpTo returns. Dimension tables
  /// still come from the catalog in full.
  Result<Table> ExecuteOnChunks(const CompiledQuery& query,
                                const std::string& streamed_table,
                                const std::vector<std::shared_ptr<const Chunk>>& chunks,
                                const BatchExecOptions& opts = {});

 private:
  Result<Table> Run(const CompiledQuery& query,
                    const std::unordered_map<std::string, std::vector<const Chunk*>>&
                        overrides,
                    const BatchExecOptions& opts);

  Status ExecuteBlock(const BlockDef& block, const std::vector<MorselSource>& sources,
                      const BatchExecOptions& opts, BroadcastEnv* env, Table* result);

  const Catalog* catalog_;
};

/// Shared helper: given the (HAVING-filtered) post-aggregation chunk of an
/// aggregate block — or the filtered input rows of a plain SPJ root —
/// broadcasts subquery values into `env` or emits the root output into
/// `result`, exactly as the batch engine does.
Status BroadcastOrEmit(const BlockDef& block, const Chunk& rows, BroadcastEnv* env,
                       Table* result);

}  // namespace gola

#endif  // GOLA_EXEC_BATCH_EXECUTOR_H_
