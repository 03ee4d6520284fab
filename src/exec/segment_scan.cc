#include "exec/segment_scan.h"

#include "common/logging.h"
#include "exec/kernels/encoded_kernels.h"
#include "expr/evaluator.h"
#include "storage/column_source.h"
#include "storage/segment/segment.h"

namespace gola {

namespace {

struct PrunePred {
  size_t col = 0;
  CmpOp op = CmpOp::kEq;
  const Value* lit = nullptr;
  TypeId type = TypeId::kFloat64;
};

/// Splits `e` into AND-leaves and keeps the column-literal comparisons over
/// the streamed table's own columns, mapped to table indices through
/// `columns` (dim-join columns sit past them in the block input schema and
/// have no zone metadata).
void CollectPrunable(const Expr& e, const SchemaPtr& schema,
                     const std::vector<int>& columns, std::vector<PrunePred>* out) {
  if (e.kind == ExprKind::kLogical && e.logical_op == LogicalOp::kAnd) {
    CollectPrunable(*e.children[0], schema, columns, out);
    CollectPrunable(*e.children[1], schema, columns, out);
    return;
  }
  const Expr* col = nullptr;
  const Value* lit = nullptr;
  CmpOp op = CmpOp::kEq;
  if (!MatchColumnLiteralCmp(e, columns.size(), &col, &lit, &op)) return;
  PrunePred p;
  p.col = static_cast<size_t>(columns[static_cast<size_t>(col->column_index)]);
  p.op = op;
  p.lit = lit;
  p.type = schema->field(p.col).type;
  out->push_back(p);
}

}  // namespace

Result<SegmentScanResult> ScanStreamedTable(const Table& table,
                                            const std::vector<ExprPtr>& preds,
                                            const std::vector<int>& columns) {
  GOLA_CHECK(table.streamed());
  const ColumnSource& source = *table.source();

  std::vector<PrunePred> prunable;
  for (const auto& p : preds) CollectPrunable(*p, table.schema(), columns, &prunable);

  SegmentScanResult result;
  result.chunks.reserve(source.num_chunks());
  for (size_t c = 0; c < source.num_chunks(); ++c) {
    bool pruned = false;
    for (const PrunePred& p : prunable) {
      std::optional<ColumnZone> zone = source.zone(c, p.col);
      if (!zone.has_value()) continue;
      if (kernels::EvalZoneCmp(*zone, p.type, p.op, *p.lit,
                               source.chunk_rows(c)) ==
          kernels::ZoneDecision::kAllFalse) {
        pruned = true;
        break;
      }
    }
    if (pruned) {
      MarkSegmentChunkPruned();
      continue;
    }
    GOLA_ASSIGN_OR_RETURN(Chunk chunk, source.ReadChunk(c, columns));
    result.chunks.push_back(std::move(chunk));
  }
  result.chunks_pruned = source.num_chunks() - result.chunks.size();
  return result;
}

}  // namespace gola
