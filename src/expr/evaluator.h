// Vectorized expression evaluation over chunks.
//
// Nested-aggregate subqueries never appear inline at evaluation time: the
// planner replaces them with kSubqueryRef / kInSubquery placeholders whose
// current values live in a BroadcastEnv — exactly the paper's "broadcast the
// latest aggregate results between lineage blocks" (§3.3). The batch engine
// fills the env with exact values; the online engine refreshes it with
// running estimates every mini-batch.
//
// NULL semantics: arithmetic propagates NULL; comparisons and logical
// connectives evaluate to (non-NULL) FALSE when an operand is NULL — the
// filter-oriented simplification used throughout this engine.
#ifndef GOLA_EXPR_EVALUATOR_H_
#define GOLA_EXPR_EVALUATOR_H_

#include <memory>
#include <unordered_map>

#include "common/status.h"
#include "exec/kernels/key_index.h"
#include "expr/expr.h"
#include "storage/chunk.h"

namespace gola {

/// The answer of an IN subquery: the keys it emitted, indexed, and per key
/// id whether the key is in the set (the online engine also indexes keys
/// that fail HAVING, to classify them).
struct MemberSet {
  KeyIndex keys;
  std::vector<uint8_t> member;
};

/// The broadcast value of one subquery: a global scalar, a correlation-keyed
/// scalar, or a membership set (IN-subquery).
struct SubqueryValue {
  bool keyed = false;
  bool membership = false;
  Value scalar;
  /// Keyed: the correlation keys, and the value of key id i at row i of
  /// `points`.
  std::shared_ptr<const KeyIndex> keys;
  Column points;
  std::shared_ptr<const MemberSet> members;
};

class BroadcastEnv {
 public:
  void SetScalar(int id, Value v) {
    SubqueryValue sv;
    sv.scalar = std::move(v);
    values_[id] = std::move(sv);
  }
  void SetKeyed(int id, std::shared_ptr<const KeyIndex> keys, Column points) {
    SubqueryValue sv;
    sv.keyed = true;
    sv.keys = std::move(keys);
    sv.points = std::move(points);
    values_[id] = std::move(sv);
  }
  void SetMembership(int id, std::shared_ptr<const MemberSet> members) {
    SubqueryValue sv;
    sv.membership = true;
    sv.members = std::move(members);
    values_[id] = std::move(sv);
  }

  const SubqueryValue* Find(int id) const {
    auto it = values_.find(id);
    return it == values_.end() ? nullptr : &it->second;
  }

 private:
  std::unordered_map<int, SubqueryValue> values_;
};

/// Evaluates a bound expression over the chunk; `env` may be null when the
/// expression contains no subquery references.
Result<Column> Evaluate(const Expr& expr, const Chunk& chunk,
                        const BroadcastEnv* env = nullptr);

/// Evaluates a boolean expression into a selection mask (NULL → 0).
Result<std::vector<uint8_t>> EvaluatePredicate(const Expr& expr, const Chunk& chunk,
                                               const BroadcastEnv* env = nullptr);

/// A selection vector: indices of surviving rows, ascending. The unit the
/// vectorized filter/group-by kernels exchange instead of boolean masks.
using SelectionVector = std::vector<uint32_t>;

/// The engine's exact comparison semantics (numerics widened to double,
/// strings by std::string::compare) — exposed so encoded-execution kernels
/// reproduce the decoded paths bit-for-bit.
bool CompareValues(CmpOp op, double a, double b);
bool CompareStrings(CmpOp op, const std::string& a, const std::string& b);

/// Recognizes `<column> <op> <literal>` (either operand order, flipping the
/// comparison when the literal is first) with an in-scope bound column index
/// below `num_columns` and a non-NULL literal — the shape both the
/// selection-vector fast path and zone-map pruning handle.
bool MatchColumnLiteralCmp(const Expr& expr, size_t num_columns,
                           const Expr** col_out, const Value** lit_out,
                           CmpOp* op_out);

/// Refines `sel` — candidate row indices of `chunk`, ascending — down to the
/// rows where `expr` evaluates to (non-NULL) TRUE. <column cmp literal>
/// shapes and AND-conjunctions take type-specialized paths that touch only
/// the selected rows and materialize no boolean column; everything else
/// falls back to EvaluatePredicate over the full chunk and intersects.
/// Selects exactly the rows EvaluatePredicate's mask would.
Status EvaluatePredicateInto(const Expr& expr, const Chunk& chunk,
                             const BroadcastEnv* env, SelectionVector* sel);

/// Evaluates an expression that references no columns (constant folding /
/// single-row evaluation). Used for literals and subquery result exprs.
Result<Value> EvaluateScalar(const Expr& expr, const BroadcastEnv* env = nullptr);

}  // namespace gola

#endif  // GOLA_EXPR_EVALUATOR_H_
