#include "parser/ast.h"

#include "common/string_util.h"

namespace gola {

std::string AstExpr::ToString() const {
  switch (kind) {
    case AstExprKind::kLiteral:
      return literal.type() == TypeId::kString ? StrCat("'", literal.ToString(), "'")
                                               : literal.ToString();
    case AstExprKind::kColumnRef:
      return name;
    case AstExprKind::kStar:
      return "*";
    case AstExprKind::kArithmetic: {
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
    case AstExprKind::kComparison:
      return StrCat("(", children[0]->ToString(), " ", CmpOpSymbol(cmp_op), " ",
                    children[1]->ToString(), ")");
    case AstExprKind::kLogical:
      if (logical_op == LogicalOp::kNot) return StrCat("(NOT ", children[0]->ToString(), ")");
      return StrCat("(", children[0]->ToString(),
                    logical_op == LogicalOp::kAnd ? " AND " : " OR ",
                    children[1]->ToString(), ")");
    case AstExprKind::kFunctionCall: {
      std::vector<std::string> args;
      for (const auto& c : children) args.push_back(c->ToString());
      return StrCat(name, "(", Join(args, ", "), ")");
    }
    case AstExprKind::kCase: {
      std::string out = "CASE";
      size_t i = 0;
      for (; i + 1 < children.size(); i += 2) {
        out += StrCat(" WHEN ", children[i]->ToString(), " THEN ",
                      children[i + 1]->ToString());
      }
      if (i < children.size()) out += StrCat(" ELSE ", children[i]->ToString());
      return out + " END";
    }
    case AstExprKind::kIsNull:
      return StrCat("(", children[0]->ToString(), negated ? " IS NOT NULL)" : " IS NULL)");
    case AstExprKind::kSubquery:
      return StrCat("(", subquery->ToString(), ")");
    case AstExprKind::kInSubquery:
      return StrCat("(", children[0]->ToString(), negated ? " NOT IN (" : " IN (",
                    subquery->ToString(), "))");
  }
  return "?";
}

std::string SelectStmt::ToString() const {
  std::string out = "SELECT ";
  std::vector<std::string> parts;
  for (const auto& item : items) {
    std::string s = item.expr->ToString();
    if (!item.alias.empty()) s += " AS " + item.alias;
    parts.push_back(std::move(s));
  }
  out += Join(parts, ", ");
  if (!from.empty()) {
    parts.clear();
    for (const auto& t : from) {
      parts.push_back(t.alias.empty() || t.alias == t.name ? t.name
                                                           : t.name + " " + t.alias);
    }
    out += " FROM " + Join(parts, ", ");
  }
  if (where) out += " WHERE " + where->ToString();
  if (!group_by.empty()) {
    parts.clear();
    for (const auto& g : group_by) parts.push_back(g->ToString());
    out += " GROUP BY " + Join(parts, ", ");
  }
  if (having) out += " HAVING " + having->ToString();
  if (!order_by.empty()) {
    parts.clear();
    for (const auto& o : order_by) {
      parts.push_back(o.expr->ToString() + (o.descending ? " DESC" : ""));
    }
    out += " ORDER BY " + Join(parts, ", ");
  }
  if (limit >= 0) out += Format(" LIMIT %lld", static_cast<long long>(limit));
  return out;
}

}  // namespace gola
