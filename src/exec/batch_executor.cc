#include "exec/batch_executor.h"

#include "common/logging.h"
#include "common/string_util.h"
#include "exec/segment_scan.h"
#include "exec/sort.h"

namespace gola {

namespace {

/// Projects / sorts / limits a post-aggregation (or filtered SPJ) chunk into
/// the root block's output table.
Result<Table> EmitRootOutput(const BlockDef& block, const Chunk& rows,
                             const BroadcastEnv* env) {
  std::vector<Column> out_cols;
  out_cols.reserve(block.output_exprs.size());
  for (const auto& e : block.output_exprs) {
    GOLA_ASSIGN_OR_RETURN(Column c, Evaluate(*e, rows, env));
    out_cols.push_back(std::move(c));
  }
  Chunk out(block.output_schema, std::move(out_cols));

  if (!block.order_by.empty()) {
    std::vector<Column> keys;
    std::vector<bool> desc;
    for (const auto& s : block.order_by) {
      GOLA_ASSIGN_OR_RETURN(Column c, Evaluate(*s.expr, rows, env));
      keys.push_back(std::move(c));
      desc.push_back(s.descending);
    }
    GOLA_ASSIGN_OR_RETURN(out, SortChunk(out, keys, desc, block.limit));
  } else if (block.limit >= 0 && static_cast<int64_t>(out.num_rows()) > block.limit) {
    out = out.Slice(0, static_cast<size_t>(block.limit));
  }
  Table result(block.output_schema);
  result.AppendChunk(std::move(out));
  return result;
}

}  // namespace

Status BroadcastOrEmit(const BlockDef& block, const Chunk& rows, BroadcastEnv* env,
                       Table* result) {
  switch (block.kind) {
    case BlockKind::kScalar: {
      GOLA_ASSIGN_OR_RETURN(Column values, Evaluate(*block.value_expr, rows, env));
      if (block.corr_key) {
        // One key id per group, in row order; each id's point is its row's.
        auto keys = std::make_shared<KeyIndex>();
        std::vector<uint32_t> ids;
        keys->Insert(rows.column(0), nullptr, &ids);
        std::vector<uint32_t> first_rows;
        for (size_t i = 0; i < ids.size(); ++i) {
          if (ids[i] == first_rows.size()) first_rows.push_back(static_cast<uint32_t>(i));
        }
        env->SetKeyed(block.id, std::move(keys),
                      values.Gather(first_rows.data(), first_rows.size()));
      } else {
        if (values.size() != 1) {
          return Status::ExecutionError("scalar subquery did not produce one row");
        }
        env->SetScalar(block.id, values.GetValue(0));
      }
      return Status::OK();
    }
    case BlockKind::kMembership: {
      // The rows passed HAVING already: every indexed key is a member.
      auto members = std::make_shared<MemberSet>();
      members->keys.Insert(rows.column(static_cast<size_t>(block.membership_key_index)),
                           nullptr, nullptr);
      members->member.assign(members->keys.size(), 1);
      env->SetMembership(block.id, std::move(members));
      return Status::OK();
    }
    case BlockKind::kRoot: {
      GOLA_ASSIGN_OR_RETURN(*result, EmitRootOutput(block, rows, env));
      return Status::OK();
    }
  }
  return Status::Internal("unreachable block kind");
}

// --------------------------------------------------------- BatchExecutor --

Result<Table> BatchExecutor::Execute(const CompiledQuery& query,
                                     const BatchExecOptions& opts) {
  return Run(query, {}, opts);
}

Result<Table> BatchExecutor::ExecuteOnChunks(
    const CompiledQuery& query, const std::string& streamed_table,
    const std::vector<std::shared_ptr<const Chunk>>& chunks,
    const BatchExecOptions& opts) {
  std::unordered_map<std::string, std::vector<const Chunk*>> overrides;
  auto& prefix = overrides[ToLower(streamed_table)];
  for (const auto& c : chunks) prefix.push_back(c.get());
  return Run(query, overrides, opts);
}

Result<Table> BatchExecutor::Run(
    const CompiledQuery& query,
    const std::unordered_map<std::string, std::vector<const Chunk*>>& overrides,
    const BatchExecOptions& opts) {
  BroadcastEnv env;
  Table result;
  for (const auto& block : query.blocks) {
    std::vector<MorselSource> sources;
    auto it = overrides.find(ToLower(block.table));
    TablePtr table_holder;       // keeps catalog chunks alive
    SegmentScanResult scanned;   // owns streamed-table chunks for this block
    if (it != overrides.end()) {
      for (const Chunk* c : it->second) sources.push_back({c, 0});
    } else {
      GOLA_ASSIGN_OR_RETURN(table_holder, catalog_->GetTable(block.table));
      if (table_holder->streamed()) {
        // Segment-backed table: decode the block's scan columns chunk by
        // chunk, skipping whole chunks the zone maps rule out under this
        // block's scan predicates (the filter stage re-applies them all, so
        // pruning is pure optimization). Decoded chunks keep their encoded
        // sidecars for the downstream encoded-execution fast paths.
        FilterStage preds = FilterStage::AllPointForms(block);
        GOLA_ASSIGN_OR_RETURN(scanned, ScanStreamedTable(*table_holder, preds.preds(),
                                                         block.scan_columns));
        for (const auto& c : scanned.chunks) sources.push_back({&c, 0});
      } else {
        for (const auto& c : table_holder->chunks()) sources.push_back({&c, 0});
      }
    }
    GOLA_RETURN_NOT_OK(ExecuteBlock(block, sources, opts, &env, &result));
  }
  return result;
}

Status BatchExecutor::ExecuteBlock(const BlockDef& block,
                                   const std::vector<MorselSource>& sources,
                                   const BatchExecOptions& opts, BroadcastEnv* env,
                                   Table* result) {
  // One delta-pipeline per block: DimJoin → Filter → (Fold | Collect).
  // Subquery values are exact here, so the uncertain conjuncts filter in
  // point form and no classify stage is needed.
  GOLA_ASSIGN_OR_RETURN(DimJoinSet dims, DimJoinSet::Build(block, *catalog_));
  DimJoinStage join_stage(&block, std::move(dims));
  FilterStage filter_stage = FilterStage::AllPointForms(block);

  ExecContext ctx;
  ctx.pool = opts.pool;
  ctx.scale = opts.scale;
  ctx.env = env;

  DeltaPipeline pipeline(block);
  if (!join_stage.empty()) pipeline.Add(&join_stage);
  if (!filter_stage.empty()) pipeline.Add(&filter_stage);

  if (block.is_aggregate) {
    GroupAggregate merged(&block, /*weights=*/nullptr);
    FoldStage fold_stage(&merged);
    pipeline.SetSink(&fold_stage);
    GOLA_RETURN_NOT_OK(pipeline.Run(ctx, sources));
    GOLA_ASSIGN_OR_RETURN(Chunk post,
                          ApplyHavingFilters(block, merged.Finalize(opts.scale), env));
    return BroadcastOrEmit(block, post, env, result);
  }

  if (block.kind != BlockKind::kRoot) {
    return Status::PlanError("non-aggregate subquery blocks are not supported");
  }
  CollectStage collect(block.input_schema);
  pipeline.SetSink(&collect);
  GOLA_RETURN_NOT_OK(pipeline.Run(ctx, sources));
  return BroadcastOrEmit(block, collect.combined(), env, result);
}

}  // namespace gola
