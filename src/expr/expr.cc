#include "expr/expr.h"

#include <algorithm>

#include "common/string_util.h"

namespace gola {

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCountStar: return "COUNT(*)";
    case AggKind::kCount: return "COUNT";
    case AggKind::kSum: return "SUM";
    case AggKind::kAvg: return "AVG";
    case AggKind::kMin: return "MIN";
    case AggKind::kMax: return "MAX";
    case AggKind::kVar: return "VAR";
    case AggKind::kStddev: return "STDDEV";
    case AggKind::kQuantile: return "QUANTILE";
    case AggKind::kUdaf: return "UDAF";
  }
  return "?";
}

const char* CmpOpSymbol(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "<>";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

CmpOp FlipCmp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return CmpOp::kGt;
    case CmpOp::kLe: return CmpOp::kGe;
    case CmpOp::kGt: return CmpOp::kLt;
    case CmpOp::kGe: return CmpOp::kLe;
    default: return op;  // = and <> are symmetric
  }
}

ExprPtr Expr::Lit(Value v) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  e->type = e->literal.type();
  return e;
}

ExprPtr Expr::Col(std::string name) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->column_name = std::move(name);
  return e;
}

ExprPtr Expr::Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kArithmetic;
  e->arith_op = op;
  e->children = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::Neg(ExprPtr operand) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kArithmetic;
  e->arith_op = ArithOp::kNeg;
  e->children = {std::move(operand)};
  return e;
}

ExprPtr Expr::Cmp(CmpOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kComparison;
  e->cmp_op = op;
  e->children = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::And(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kLogical;
  e->logical_op = LogicalOp::kAnd;
  e->children = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::Or(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kLogical;
  e->logical_op = LogicalOp::kOr;
  e->children = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::Not(ExprPtr operand) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kLogical;
  e->logical_op = LogicalOp::kNot;
  e->children = {std::move(operand)};
  return e;
}

ExprPtr Expr::Func(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kFunctionCall;
  e->func_name = ToLower(name);
  e->children = std::move(args);
  return e;
}

ExprPtr Expr::Agg(AggKind kind, ExprPtr arg, double param) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kAggregateCall;
  e->agg_kind = kind;
  e->agg_param = param;
  if (arg) e->children = {std::move(arg)};
  return e;
}

ExprPtr Expr::Udaf(std::string name, ExprPtr arg) {
  auto e = Agg(AggKind::kUdaf, std::move(arg));
  e->func_name = ToLower(name);
  return e;
}

ExprPtr Expr::SubqueryScalar(int id, ExprPtr outer_key) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kSubqueryRef;
  e->subquery_id = id;
  if (outer_key) e->children = {std::move(outer_key)};
  return e;
}

ExprPtr Expr::SubqueryIn(int id, ExprPtr key, bool negated) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kInSubquery;
  e->subquery_id = id;
  e->negated = negated;
  e->children = {std::move(key)};
  return e;
}

ExprPtr Expr::Clone() const {
  auto e = std::make_shared<Expr>(*this);
  for (auto& child : e->children) {
    if (child) child = child->Clone();
  }
  return e;
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.type() == TypeId::kString ? StrCat("'", literal.ToString(), "'")
                                               : literal.ToString();
    case ExprKind::kColumnRef:
      return column_name.empty() ? Format("$%d", column_index) : column_name;
    case ExprKind::kArithmetic: {
      if (arith_op == ArithOp::kNeg) return StrCat("(-", children[0]->ToString(), ")");
      const char* sym = "?";
      switch (arith_op) {
        case ArithOp::kAdd: sym = "+"; break;
        case ArithOp::kSub: sym = "-"; break;
        case ArithOp::kMul: sym = "*"; break;
        case ArithOp::kDiv: sym = "/"; break;
        case ArithOp::kMod: sym = "%"; break;
        case ArithOp::kNeg: break;
      }
      return StrCat("(", children[0]->ToString(), " ", sym, " ", children[1]->ToString(),
                    ")");
    }
    case ExprKind::kComparison:
      return StrCat("(", children[0]->ToString(), " ", CmpOpSymbol(cmp_op), " ",
                    children[1]->ToString(), ")");
    case ExprKind::kLogical: {
      if (logical_op == LogicalOp::kNot) return StrCat("(NOT ", children[0]->ToString(), ")");
      const char* sym = logical_op == LogicalOp::kAnd ? " AND " : " OR ";
      return StrCat("(", children[0]->ToString(), sym, children[1]->ToString(), ")");
    }
    case ExprKind::kFunctionCall: {
      std::vector<std::string> args;
      for (const auto& c : children) args.push_back(c->ToString());
      return StrCat(func_name, "(", Join(args, ", "), ")");
    }
    case ExprKind::kAggregateCall: {
      if (agg_kind == AggKind::kCountStar) return "COUNT(*)";
      std::string name = agg_kind == AggKind::kUdaf ? func_name : AggKindName(agg_kind);
      std::string arg = children.empty() ? "" : children[0]->ToString();
      if (agg_kind == AggKind::kQuantile) {
        return Format("QUANTILE(%s, %g)", arg.c_str(), agg_param);
      }
      return StrCat(name, "(", arg, ")");
    }
    case ExprKind::kCase: {
      std::string out = "CASE";
      size_t i = 0;
      for (; i + 1 < children.size(); i += 2) {
        out += StrCat(" WHEN ", children[i]->ToString(), " THEN ",
                      children[i + 1]->ToString());
      }
      if (i < children.size()) out += StrCat(" ELSE ", children[i]->ToString());
      return out + " END";
    }
    case ExprKind::kIsNull:
      return StrCat("(", children[0]->ToString(),
                    literal.type() == TypeId::kBool && literal.AsBool() ? " IS NOT NULL)"
                                                                        : " IS NULL)");
    case ExprKind::kSubqueryRef:
      return Format("$subquery%d%s", subquery_id,
                    children.empty() ? ""
                                     : StrCat("[", children[0]->ToString(), "]").c_str());
    case ExprKind::kInSubquery:
      return Format("(%s %sIN $subquery%d)", children[0]->ToString().c_str(),
                    negated ? "NOT " : "", subquery_id);
  }
  return "?";
}

bool Expr::ContainsAggregate() const {
  if (kind == ExprKind::kAggregateCall) return true;
  return std::any_of(children.begin(), children.end(),
                     [](const ExprPtr& c) { return c && c->ContainsAggregate(); });
}

bool Expr::ContainsSubqueryRef() const {
  if (kind == ExprKind::kSubqueryRef || kind == ExprKind::kInSubquery) return true;
  return std::any_of(children.begin(), children.end(),
                     [](const ExprPtr& c) { return c && c->ContainsSubqueryRef(); });
}

void Expr::CollectColumns(std::vector<std::string>* out) const {
  if (kind == ExprKind::kColumnRef) {
    if (std::find(out->begin(), out->end(), column_name) == out->end()) {
      out->push_back(column_name);
    }
  }
  for (const auto& c : children) {
    if (c) c->CollectColumns(out);
  }
}

void Expr::CollectAggregates(std::vector<Expr*>* out) {
  if (kind == ExprKind::kAggregateCall) {
    out->push_back(this);
    return;  // aggregates do not nest
  }
  for (auto& c : children) {
    if (c) c->CollectAggregates(out);
  }
}

void Expr::CollectSubqueryRefs(std::vector<Expr*>* out) {
  if (kind == ExprKind::kSubqueryRef || kind == ExprKind::kInSubquery) {
    out->push_back(this);
  }
  for (auto& c : children) {
    if (c) c->CollectSubqueryRefs(out);
  }
}

}  // namespace gola
