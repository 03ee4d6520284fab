// Compiled query representation: a DAG of lineage blocks (paper §3.3).
//
// A lineage block is a maximal SPJA subtree — scan (+ dimension joins) →
// select → aggregate (→ having / projection). The binder lifts every nested
// aggregate subquery into its own block and replaces it in the enclosing
// expression with a SubqueryRef placeholder; at run time only the latest
// aggregate results (plus, online, their variation ranges) are broadcast
// between blocks, while full lineage is tracked only within a block.
//
// The same CompiledQuery drives both engines: the batch executor runs the
// blocks bottom-up with exact broadcast values; the online engine attaches
// incremental state to each block (gola/block_executor.h).
#ifndef GOLA_PLAN_LOGICAL_PLAN_H_
#define GOLA_PLAN_LOGICAL_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "expr/aggregate.h"
#include "expr/expr.h"
#include "storage/schema.h"

namespace gola {

/// One aggregate computed by a block. `call` is the bound kAggregateCall;
/// its child (if any) is the input expression over the block's input chunk.
struct AggItem {
  ExprPtr call;
  const AggregateFunction* fn = nullptr;
  std::string name;  // output slot name in the post-aggregation chunk
};

enum class BlockKind {
  kRoot,        // produces the query result rows
  kScalar,      // scalar subquery: one value (global or per correlation key)
  kMembership,  // IN-subquery: a set of keys
};

/// A predicate conjunct that references the output of another block and is
/// therefore *uncertain* during online processing (paper §3.2). Normal
/// forms:
///   scalar:      lhs  cmp  $subquery(id)         (id possibly correlated)
///   membership:  key  [NOT] IN  $subquery(id)
///   opaque:      any boolean expr containing subquery refs that does not
///                match the bare forms; evaluated with point estimates and
///                classified always-uncertain online (graceful fallback).
struct UncertainConjunct {
  enum class Form { kScalarCmp, kMembership, kOpaque };
  Form form = Form::kScalarCmp;

  ExprPtr lhs;             // tuple-side expr (kScalarCmp/kMembership key)
  CmpOp cmp = CmpOp::kLt;  // kScalarCmp only
  int subquery_id = -1;
  bool negated = false;    // NOT IN
  ExprPtr outer_key;       // correlated scalar subqueries: outer key expr
  ExprPtr opaque;          // kOpaque: the full boolean conjunct

  /// Reassembles the conjunct as a plain boolean expression evaluated with
  /// point estimates from a BroadcastEnv (used by the batch engine and by
  /// the online engine's uncertain-set re-evaluation).
  ExprPtr ToPointExpr() const;

  std::string ToString() const;
};

struct SortKey {
  ExprPtr expr;  // bound over the post-aggregation chunk
  bool descending = false;
};

/// An equi-join against a fully-read dimension table, executed before the
/// block's predicates (paper §2: only a subset of inputs is streamed).
struct DimJoin {
  std::string table;
  ExprPtr probe_key;  // bound over the accumulated probe-side layout
  ExprPtr build_key;  // bound over the dimension table's schema
};

struct BlockDef {
  int id = 0;
  BlockKind kind = BlockKind::kRoot;

  std::string table;  // streamed input table
  /// The streamed-table columns the block's input-space expressions read
  /// (table indices, ascending; one column when they read none, so chunks
  /// keep their row count). Only these are gathered, sliced and cached.
  std::vector<int> scan_columns;
  std::vector<DimJoin> dim_joins;
  /// The scan columns' fields followed by the dim tables' columns: the
  /// layout every input-space column reference addresses.
  SchemaPtr input_schema;

  // WHERE split into certain conjuncts (no subquery refs) and uncertain ones.
  std::vector<ExprPtr> certain_conjuncts;
  std::vector<UncertainConjunct> uncertain_conjuncts;

  // Aggregation. Empty group_by + empty aggs → plain SPJ projection block
  // (batch engine only).
  bool is_aggregate = false;
  std::vector<ExprPtr> group_by;  // bound over the input chunk
  std::vector<std::string> group_names;
  std::vector<AggItem> aggs;
  SchemaPtr post_agg_schema;  // [group columns..., aggregate slots...]

  // HAVING conjuncts, bound over the post-aggregation chunk.
  std::vector<ExprPtr> having_certain;
  std::vector<UncertainConjunct> having_uncertain;

  // kRoot: final projection (bound over post-agg chunk, or input chunk for
  // plain SPJ blocks).
  std::vector<ExprPtr> output_exprs;
  std::vector<std::string> output_names;
  SchemaPtr output_schema;
  std::vector<SortKey> order_by;
  int64_t limit = -1;

  // kScalar: the subquery's single select item over the post-agg chunk, and
  // the inner-side correlation key (bound over the input chunk) if any.
  ExprPtr value_expr;
  ExprPtr corr_key;

  // kMembership: index of the group-by column acting as the emitted key.
  int membership_key_index = 0;

  // Subquery ids whose broadcast values this block reads.
  std::vector<int> depends_on;

  /// The streamed part of input_schema, one field per scan column (the
  /// whole input_schema when the block joins no dimension table).
  SchemaPtr ScanSchema() const;

  std::string ToString() const;
};

struct CompiledQuery {
  /// Blocks in dependency (topological) order; the root block is last and
  /// its id equals kRootBlockId.
  std::vector<BlockDef> blocks;

  static constexpr int kRootBlockId = -1;

  const BlockDef& root() const { return blocks.back(); }
  const BlockDef* FindBlock(int id) const;

  /// The union of every block's scan columns, ascending: what an engine
  /// that streams one table for all blocks needs to gather.
  std::vector<int> ScanColumns() const;

  /// EXPLAIN-style rendering of the block DAG.
  std::string ToString() const;
};

}  // namespace gola

#endif  // GOLA_PLAN_LOGICAL_PLAN_H_
