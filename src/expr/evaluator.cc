#include "expr/evaluator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "exec/kernels/encoded_kernels.h"
#include "expr/functions.h"
#include "obs/metrics.h"

namespace gola {

namespace {

Result<Column> EvalArithmetic(const Expr& expr, const Chunk& chunk,
                              const BroadcastEnv* env) {
  if (expr.arith_op == ArithOp::kNeg) {
    GOLA_ASSIGN_OR_RETURN(Column in, Evaluate(*expr.children[0], chunk, env));
    size_t n = in.size();
    if (in.type() == TypeId::kInt64 && !in.has_nulls()) {
      std::vector<int64_t> out(n);
      for (size_t i = 0; i < n; ++i) out[i] = -in.ints()[i];
      return Column::MakeInt(std::move(out));
    }
    Column out(expr.type == TypeId::kInt64 ? TypeId::kInt64 : TypeId::kFloat64);
    out.Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (in.IsNull(i)) out.AppendNull();
      else if (out.type() == TypeId::kInt64) out.AppendInt(-in.ints()[i]);
      else out.AppendFloat(-in.NumericAt(i));
    }
    return out;
  }

  GOLA_ASSIGN_OR_RETURN(Column lhs, Evaluate(*expr.children[0], chunk, env));
  GOLA_ASSIGN_OR_RETURN(Column rhs, Evaluate(*expr.children[1], chunk, env));
  size_t n = lhs.size();
  bool int_result = expr.type == TypeId::kInt64;

  // Fast path: both int, no nulls, int result.
  if (int_result && lhs.type() == TypeId::kInt64 && rhs.type() == TypeId::kInt64 &&
      !lhs.has_nulls() && !rhs.has_nulls()) {
    std::vector<int64_t> out(n);
    const auto& a = lhs.ints();
    const auto& b = rhs.ints();
    switch (expr.arith_op) {
      case ArithOp::kAdd: for (size_t i = 0; i < n; ++i) out[i] = a[i] + b[i]; break;
      case ArithOp::kSub: for (size_t i = 0; i < n; ++i) out[i] = a[i] - b[i]; break;
      case ArithOp::kMul: for (size_t i = 0; i < n; ++i) out[i] = a[i] * b[i]; break;
      case ArithOp::kMod:
        for (size_t i = 0; i < n; ++i) out[i] = b[i] == 0 ? 0 : a[i] % b[i];
        break;
      default: GOLA_LOG(Fatal) << "int fast path on division";
    }
    return Column::MakeInt(std::move(out));
  }

  // Fast path: float result over null-free numeric columns, the shape of
  // replicate-space arithmetic (float64 aggregate slots, numeric literals).
  // Same per-row doubles and ops as the loop below; division falls back to
  // it when a divisor is 0 (a NULL result).
  auto numeric = [](const Column& c) {
    return (c.type() == TypeId::kFloat64 || c.type() == TypeId::kInt64) && !c.has_nulls();
  };
  if (!int_result && numeric(lhs) && numeric(rhs) && expr.arith_op != ArithOp::kMod) {
    bool zero_divisor = false;
    if (expr.arith_op == ArithOp::kDiv) {
      for (size_t i = 0; i < n && !zero_divisor; ++i) {
        zero_divisor = rhs.NumericAt(i) == 0;
      }
    }
    if (!zero_divisor) {
      std::vector<double> a = lhs.type() == TypeId::kFloat64 ? lhs.floats()
                                                            : *lhs.ToFloat64();
      std::vector<double> b = rhs.type() == TypeId::kFloat64 ? rhs.floats()
                                                            : *rhs.ToFloat64();
      switch (expr.arith_op) {
        case ArithOp::kAdd: for (size_t i = 0; i < n; ++i) a[i] = a[i] + b[i]; break;
        case ArithOp::kSub: for (size_t i = 0; i < n; ++i) a[i] = a[i] - b[i]; break;
        case ArithOp::kMul: for (size_t i = 0; i < n; ++i) a[i] = a[i] * b[i]; break;
        case ArithOp::kDiv: for (size_t i = 0; i < n; ++i) a[i] = a[i] / b[i]; break;
        default: break;
      }
      return Column::MakeFloat(std::move(a));
    }
  }

  Column out(int_result ? TypeId::kInt64 : TypeId::kFloat64);
  out.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (lhs.IsNull(i) || rhs.IsNull(i)) {
      out.AppendNull();
      continue;
    }
    double a = lhs.NumericAt(i);
    double b = rhs.NumericAt(i);
    double r = 0;
    switch (expr.arith_op) {
      case ArithOp::kAdd: r = a + b; break;
      case ArithOp::kSub: r = a - b; break;
      case ArithOp::kMul: r = a * b; break;
      case ArithOp::kDiv:
        if (b == 0) {
          out.AppendNull();
          continue;
        }
        r = a / b;
        break;
      case ArithOp::kMod:
        if (b == 0) {
          out.AppendNull();
          continue;
        }
        r = std::fmod(a, b);
        break;
      case ArithOp::kNeg: break;
    }
    if (int_result) out.AppendInt(static_cast<int64_t>(r));
    else out.AppendFloat(r);
  }
  return out;
}

}  // namespace

bool CompareValues(CmpOp op, double a, double b) {
  switch (op) {
    case CmpOp::kEq: return a == b;
    case CmpOp::kNe: return a != b;
    case CmpOp::kLt: return a < b;
    case CmpOp::kLe: return a <= b;
    case CmpOp::kGt: return a > b;
    case CmpOp::kGe: return a >= b;
  }
  return false;
}

bool CompareStrings(CmpOp op, const std::string& a, const std::string& b) {
  int c = a.compare(b);
  switch (op) {
    case CmpOp::kEq: return c == 0;
    case CmpOp::kNe: return c != 0;
    case CmpOp::kLt: return c < 0;
    case CmpOp::kLe: return c <= 0;
    case CmpOp::kGt: return c > 0;
    case CmpOp::kGe: return c >= 0;
  }
  return false;
}

namespace {

Result<Column> EvalComparison(const Expr& expr, const Chunk& chunk,
                              const BroadcastEnv* env) {
  GOLA_ASSIGN_OR_RETURN(Column lhs, Evaluate(*expr.children[0], chunk, env));
  GOLA_ASSIGN_OR_RETURN(Column rhs, Evaluate(*expr.children[1], chunk, env));
  size_t n = lhs.size();
  std::vector<uint8_t> out(n, 0);
  if (lhs.type() == TypeId::kString && rhs.type() == TypeId::kString) {
    for (size_t i = 0; i < n; ++i) {
      if (lhs.IsNull(i) || rhs.IsNull(i)) continue;
      out[i] = CompareStrings(expr.cmp_op, lhs.strings()[i], rhs.strings()[i]) ? 1 : 0;
    }
  } else if (lhs.type() == TypeId::kString || rhs.type() == TypeId::kString) {
    return Status::TypeError("cannot compare STRING with non-STRING: " + expr.ToString());
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (lhs.IsNull(i) || rhs.IsNull(i)) continue;
      out[i] = CompareValues(expr.cmp_op, lhs.NumericAt(i), rhs.NumericAt(i)) ? 1 : 0;
    }
  }
  return Column::MakeBool(std::move(out));
}

Result<Column> EvalLogical(const Expr& expr, const Chunk& chunk,
                           const BroadcastEnv* env) {
  GOLA_ASSIGN_OR_RETURN(Column lhs, Evaluate(*expr.children[0], chunk, env));
  size_t n = lhs.size();
  std::vector<uint8_t> out(n, 0);
  if (expr.logical_op == LogicalOp::kNot) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = (!lhs.IsNull(i) && lhs.bools()[i] == 0) ? 1 : 0;
    }
    return Column::MakeBool(std::move(out));
  }
  GOLA_ASSIGN_OR_RETURN(Column rhs, Evaluate(*expr.children[1], chunk, env));
  for (size_t i = 0; i < n; ++i) {
    bool a = !lhs.IsNull(i) && lhs.bools()[i] != 0;
    bool b = !rhs.IsNull(i) && rhs.bools()[i] != 0;
    out[i] = (expr.logical_op == LogicalOp::kAnd ? (a && b) : (a || b)) ? 1 : 0;
  }
  return Column::MakeBool(std::move(out));
}

Result<Column> EvalSubqueryRef(const Expr& expr, const Chunk& chunk,
                               const BroadcastEnv* env) {
  if (env == nullptr) {
    return Status::ExecutionError("subquery reference without broadcast environment");
  }
  const SubqueryValue* sv = env->Find(expr.subquery_id);
  if (sv == nullptr) {
    return Status::ExecutionError(
        Format("subquery %d has not been evaluated yet", expr.subquery_id));
  }
  size_t n = chunk.num_rows();
  TypeId out_type = expr.type == TypeId::kNull ? TypeId::kFloat64 : expr.type;
  if (!sv->keyed) {
    return Column::MakeConstant(sv->scalar, out_type, n);
  }
  // Correlated: one probe of the outer keys, then a gather of the points,
  // NULL where a key has none (a NULL key never matches).
  if (expr.children.empty()) {
    return Status::ExecutionError("correlated subquery reference missing outer key");
  }
  GOLA_ASSIGN_OR_RETURN(Column keys, Evaluate(*expr.children[0], chunk, env));
  std::vector<uint32_t> ids;
  sv->keys->Probe(keys, nullptr, &ids);
  const Column& points = sv->points;
  if (points.type() == out_type && !points.has_nulls() &&
      std::find(ids.begin(), ids.end(), KeyIndex::kNone) == ids.end()) {
    return points.Gather(ids.data(), ids.size());
  }
  Column out(out_type);
  out.Reserve(n);
  for (uint32_t id : ids) {
    if (id == KeyIndex::kNone) out.AppendNull();
    else out.Append(points.GetValue(id));
  }
  return out;
}

Result<Column> EvalInSubquery(const Expr& expr, const Chunk& chunk,
                              const BroadcastEnv* env) {
  if (env == nullptr) {
    return Status::ExecutionError("IN subquery without broadcast environment");
  }
  const SubqueryValue* sv = env->Find(expr.subquery_id);
  if (sv == nullptr) {
    return Status::ExecutionError(
        Format("subquery %d has not been evaluated yet", expr.subquery_id));
  }
  GOLA_ASSIGN_OR_RETURN(Column keys, Evaluate(*expr.children[0], chunk, env));
  size_t n = keys.size();
  std::vector<uint32_t> ids;
  sv->members->keys.Probe(keys, nullptr, &ids);
  const std::vector<uint8_t>& member = sv->members->member;
  std::vector<uint8_t> out(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (keys.IsNull(i)) continue;
    bool in = ids[i] != KeyIndex::kNone && member[ids[i]] != 0;
    out[i] = (in != expr.negated) ? 1 : 0;
  }
  return Column::MakeBool(std::move(out));
}

Result<Column> EvalCase(const Expr& expr, const Chunk& chunk, const BroadcastEnv* env) {
  size_t n = chunk.num_rows();
  TypeId out_type = expr.type == TypeId::kNull ? TypeId::kFloat64 : expr.type;
  // Evaluate all branches, then select row-wise (simple, not short-circuit).
  std::vector<Column> whens, thens;
  Column else_col(out_type);
  bool has_else = expr.children.size() % 2 == 1;
  size_t num_arms = expr.children.size() / 2;
  for (size_t a = 0; a < num_arms; ++a) {
    GOLA_ASSIGN_OR_RETURN(Column w, Evaluate(*expr.children[2 * a], chunk, env));
    GOLA_ASSIGN_OR_RETURN(Column t, Evaluate(*expr.children[2 * a + 1], chunk, env));
    whens.push_back(std::move(w));
    thens.push_back(std::move(t));
  }
  if (has_else) {
    GOLA_ASSIGN_OR_RETURN(else_col, Evaluate(*expr.children.back(), chunk, env));
  }
  Column out(out_type);
  out.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    bool matched = false;
    for (size_t a = 0; a < num_arms && !matched; ++a) {
      if (!whens[a].IsNull(i) && whens[a].bools()[i] != 0) {
        if (thens[a].IsNull(i)) out.AppendNull();
        else if (out_type == TypeId::kFloat64 && thens[a].type() != TypeId::kFloat64)
          out.AppendFloat(thens[a].NumericAt(i));
        else out.Append(thens[a].GetValue(i));
        matched = true;
      }
    }
    if (!matched) {
      if (!has_else || else_col.IsNull(i)) out.AppendNull();
      else if (out_type == TypeId::kFloat64 && else_col.type() != TypeId::kFloat64)
        out.AppendFloat(else_col.NumericAt(i));
      else out.Append(else_col.GetValue(i));
    }
  }
  return out;
}

}  // namespace

Result<Column> Evaluate(const Expr& expr, const Chunk& chunk, const BroadcastEnv* env) {
  switch (expr.kind) {
    case ExprKind::kLiteral: {
      TypeId t = expr.literal.is_null()
                     ? (expr.type == TypeId::kNull ? TypeId::kFloat64 : expr.type)
                     : expr.literal.type();
      return Column::MakeConstant(expr.literal, t, chunk.num_rows());
    }
    case ExprKind::kColumnRef: {
      if (expr.column_index < 0) {
        return Status::PlanError("unbound column reference: " + expr.column_name);
      }
      return chunk.column(static_cast<size_t>(expr.column_index));
    }
    case ExprKind::kArithmetic:
      return EvalArithmetic(expr, chunk, env);
    case ExprKind::kComparison:
      return EvalComparison(expr, chunk, env);
    case ExprKind::kLogical:
      return EvalLogical(expr, chunk, env);
    case ExprKind::kFunctionCall: {
      GOLA_ASSIGN_OR_RETURN(const ScalarFunction* fn,
                            FunctionRegistry::Global().Lookup(expr.func_name));
      std::vector<Column> args;
      args.reserve(expr.children.size());
      for (const auto& child : expr.children) {
        GOLA_ASSIGN_OR_RETURN(Column c, Evaluate(*child, chunk, env));
        args.push_back(std::move(c));
      }
      return fn->eval(args);
    }
    case ExprKind::kAggregateCall:
      // Post-aggregation contexts bind the aggregate's output slot to a
      // column of the aggregated chunk.
      if (expr.column_index < 0) {
        return Status::PlanError("aggregate evaluated outside aggregation context: " +
                                 expr.ToString());
      }
      return chunk.column(static_cast<size_t>(expr.column_index));
    case ExprKind::kCase:
      return EvalCase(expr, chunk, env);
    case ExprKind::kIsNull: {
      GOLA_ASSIGN_OR_RETURN(Column in, Evaluate(*expr.children[0], chunk, env));
      bool want_not_null = expr.literal.type() == TypeId::kBool && expr.literal.AsBool();
      std::vector<uint8_t> out(in.size());
      for (size_t i = 0; i < in.size(); ++i) {
        out[i] = (in.IsNull(i) != want_not_null) ? 1 : 0;
      }
      return Column::MakeBool(std::move(out));
    }
    case ExprKind::kSubqueryRef:
      return EvalSubqueryRef(expr, chunk, env);
    case ExprKind::kInSubquery:
      return EvalInSubquery(expr, chunk, env);
  }
  return Status::Internal("unreachable expression kind");
}

Result<std::vector<uint8_t>> EvaluatePredicate(const Expr& expr, const Chunk& chunk,
                                               const BroadcastEnv* env) {
  GOLA_ASSIGN_OR_RETURN(Column c, Evaluate(expr, chunk, env));
  if (c.type() != TypeId::kBool) {
    return Status::TypeError("predicate is not boolean: " + expr.ToString());
  }
  size_t n = c.size();
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = (!c.IsNull(i) && c.bools()[i] != 0) ? 1 : 0;
  return out;
}

// NULL literals and outer-scope references take the generic path so their
// (error) semantics stay byte-for-byte those of EvalComparison.
bool MatchColumnLiteralCmp(const Expr& expr, size_t num_columns,
                           const Expr** col_out, const Value** lit_out,
                           CmpOp* op_out) {
  if (expr.kind != ExprKind::kComparison || expr.children.size() != 2) return false;
  const Expr* a = expr.children[0].get();
  const Expr* b = expr.children[1].get();
  CmpOp op = expr.cmp_op;
  if (a->kind == ExprKind::kLiteral && b->kind == ExprKind::kColumnRef) {
    std::swap(a, b);
    op = FlipCmp(op);
  }
  if (a->kind != ExprKind::kColumnRef || b->kind != ExprKind::kLiteral) return false;
  if (a->from_outer_scope || a->column_index < 0 ||
      static_cast<size_t>(a->column_index) >= num_columns) {
    return false;
  }
  if (b->literal.is_null()) return false;
  *col_out = a;
  *lit_out = &b->literal;
  *op_out = op;
  return true;
}

Status EvaluatePredicateInto(const Expr& expr, const Chunk& chunk,
                             const BroadcastEnv* env, SelectionVector* sel) {
  // An empty selection cannot grow back; skipping the remaining conjuncts is
  // the point of carrying a selection vector in the first place.
  if (sel->empty()) return Status::OK();

  if (expr.kind == ExprKind::kLiteral && expr.literal.type() == TypeId::kBool) {
    if (!expr.literal.AsBool()) sel->clear();
    return Status::OK();
  }

  // AND refines in sequence: each conjunct only ever looks at survivors.
  if (expr.kind == ExprKind::kLogical && expr.logical_op == LogicalOp::kAnd) {
    GOLA_RETURN_NOT_OK(EvaluatePredicateInto(*expr.children[0], chunk, env, sel));
    return EvaluatePredicateInto(*expr.children[1], chunk, env, sel);
  }

  const Expr* col_expr = nullptr;
  const Value* lit = nullptr;
  CmpOp op = CmpOp::kEq;
  if (MatchColumnLiteralCmp(expr, chunk.num_columns(), &col_expr, &lit, &op)) {
    // Segment-backed chunks carry encoded sidecar views; refine on the
    // encoded data (dictionary codes, RLE runs) when a fast path applies —
    // bitwise identical to the decoded loops below by construction.
    if (const EncodedChunk* enc = chunk.encoded()) {
      if (kernels::TryRefineEncodedCmp(
              *enc, static_cast<size_t>(col_expr->column_index), op, *lit,
              sel)) {
        return Status::OK();
      }
      if (obs::MetricsEnabled()) {
        static obs::Counter* fallback = obs::MetricsRegistry::Global().GetCounter(
            "gola_kernel_decoded_predicate_total");
        fallback->Increment();
      }
    }
    const Column& col = chunk.column(static_cast<size_t>(col_expr->column_index));
    size_t kept = 0;
    if (col.type() == TypeId::kString || lit->type() == TypeId::kString) {
      if (col.type() != lit->type()) {
        return Status::TypeError("cannot compare STRING with non-STRING: " +
                                 expr.ToString());
      }
      const auto& data = col.strings();
      const std::string& s = lit->AsString();
      for (uint32_t r : *sel) {
        if (!col.IsNull(r) && CompareStrings(op, data[r], s)) (*sel)[kept++] = r;
      }
    } else {
      // Numeric comparisons widen both sides to double, exactly like
      // EvalComparison's NumericAt loop (int==int included).
      double d = lit->ToDouble().value();
      switch (col.type()) {
        case TypeId::kInt64: {
          const auto& data = col.ints();
          for (uint32_t r : *sel) {
            if (!col.IsNull(r) && CompareValues(op, static_cast<double>(data[r]), d)) {
              (*sel)[kept++] = r;
            }
          }
          break;
        }
        case TypeId::kFloat64: {
          const auto& data = col.floats();
          for (uint32_t r : *sel) {
            if (!col.IsNull(r) && CompareValues(op, data[r], d)) (*sel)[kept++] = r;
          }
          break;
        }
        case TypeId::kBool: {
          const auto& data = col.bools();
          for (uint32_t r : *sel) {
            if (!col.IsNull(r) && CompareValues(op, data[r] ? 1.0 : 0.0, d)) {
              (*sel)[kept++] = r;
            }
          }
          break;
        }
        default:
          return Status::Internal("unexpected column type in predicate fast path");
      }
    }
    sel->resize(kept);
    return Status::OK();
  }

  // Generic shape: evaluate the full mask once and intersect.
  GOLA_ASSIGN_OR_RETURN(std::vector<uint8_t> mask, EvaluatePredicate(expr, chunk, env));
  size_t kept = 0;
  for (uint32_t r : *sel) {
    if (mask[r]) (*sel)[kept++] = r;
  }
  sel->resize(kept);
  return Status::OK();
}

Result<Value> EvaluateScalar(const Expr& expr, const BroadcastEnv* env) {
  // Evaluate over a one-row, zero-column chunk.
  Chunk row(std::make_shared<Schema>(std::vector<Field>{}), {});
  std::vector<int64_t> serial = {0};
  row.set_serials(std::move(serial));
  GOLA_ASSIGN_OR_RETURN(Column c, Evaluate(expr, row, env));
  if (c.size() != 1) return Status::ExecutionError("scalar expression produced " +
                                                   std::to_string(c.size()) + " rows");
  return c.GetValue(0);
}

}  // namespace gola
