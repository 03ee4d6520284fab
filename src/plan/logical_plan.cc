#include "plan/logical_plan.h"

#include <algorithm>
#include <sstream>

#include "common/string_util.h"

namespace gola {

std::string UncertainConjunct::ToString() const {
  switch (form) {
    case Form::kScalarCmp: {
      std::string key = outer_key ? Format(" key=%s", outer_key->ToString().c_str()) : "";
      return Format("%s %s $subquery%d%s", lhs->ToString().c_str(), CmpOpSymbol(cmp),
                    subquery_id, key.c_str());
    }
    case Form::kMembership:
      return Format("%s %sIN $subquery%d", lhs->ToString().c_str(), negated ? "NOT " : "",
                    subquery_id);
    case Form::kOpaque:
      return "opaque: " + opaque->ToString();
  }
  return "?";
}

ExprPtr UncertainConjunct::ToPointExpr() const {
  switch (form) {
    case Form::kScalarCmp: {
      ExprPtr ref = Expr::SubqueryScalar(subquery_id,
                                         outer_key ? outer_key->Clone() : nullptr);
      ref->type = TypeId::kFloat64;
      ExprPtr e = Expr::Cmp(cmp, lhs->Clone(), std::move(ref));
      e->type = TypeId::kBool;
      return e;
    }
    case Form::kMembership: {
      ExprPtr e = Expr::SubqueryIn(subquery_id, lhs->Clone(), negated);
      e->type = TypeId::kBool;
      return e;
    }
    case Form::kOpaque:
      return opaque->Clone();
  }
  return nullptr;
}

const BlockDef* CompiledQuery::FindBlock(int id) const {
  for (const auto& b : blocks) {
    if (b.id == id) return &b;
  }
  return nullptr;
}

SchemaPtr BlockDef::ScanSchema() const {
  if (dim_joins.empty()) return input_schema;
  const auto& fields = input_schema->fields();
  return std::make_shared<Schema>(std::vector<Field>(
      fields.begin(), fields.begin() + static_cast<std::ptrdiff_t>(scan_columns.size())));
}

std::vector<int> CompiledQuery::ScanColumns() const {
  std::vector<int> out;
  for (const auto& b : blocks) out.insert(out.end(), b.scan_columns.begin(), b.scan_columns.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string BlockDef::ToString() const {
  std::ostringstream out;
  const char* kind_name = kind == BlockKind::kRoot ? "root"
                          : kind == BlockKind::kScalar ? "scalar"
                                                       : "membership";
  std::vector<std::string> scanned;
  for (size_t i = 0; i < scan_columns.size(); ++i) {
    scanned.push_back(input_schema->field(i).name);
  }
  out << "block " << (kind == BlockKind::kRoot ? std::string("root") : std::to_string(id))
      << " [" << kind_name << "] scan=" << table << "(" << Join(scanned, ", ") << ")";
  for (const auto& j : dim_joins) {
    out << " join=" << j.table << " on " << j.probe_key->ToString() << "="
        << j.build_key->ToString();
  }
  out << "\n";
  for (const auto& c : certain_conjuncts) {
    out << "  where(certain):   " << c->ToString() << "\n";
  }
  for (const auto& c : uncertain_conjuncts) {
    out << "  where(uncertain): " << c.ToString() << "\n";
  }
  if (is_aggregate) {
    std::vector<std::string> parts;
    for (const auto& g : group_by) parts.push_back(g->ToString());
    if (!parts.empty()) out << "  group by: " << Join(parts, ", ") << "\n";
    parts.clear();
    for (const auto& a : aggs) parts.push_back(a.name + "=" + a.call->ToString());
    out << "  aggregates: " << Join(parts, ", ") << "\n";
  }
  for (const auto& h : having_certain) {
    out << "  having(certain):   " << h->ToString() << "\n";
  }
  for (const auto& h : having_uncertain) {
    out << "  having(uncertain): " << h.ToString() << "\n";
  }
  if (kind == BlockKind::kScalar && value_expr) {
    out << "  value: " << value_expr->ToString();
    if (corr_key) out << " correlated by " << corr_key->ToString();
    out << "\n";
  }
  if (kind == BlockKind::kMembership) {
    out << "  emits key: " << group_names[static_cast<size_t>(membership_key_index)] << "\n";
  }
  if (kind == BlockKind::kRoot) {
    std::vector<std::string> parts;
    for (size_t i = 0; i < output_exprs.size(); ++i) {
      parts.push_back(output_names[i] + "=" + output_exprs[i]->ToString());
    }
    out << "  output: " << Join(parts, ", ") << "\n";
    if (!order_by.empty()) {
      parts.clear();
      for (const auto& s : order_by) {
        parts.push_back(s.expr->ToString() + (s.descending ? " DESC" : ""));
      }
      out << "  order by: " << Join(parts, ", ") << "\n";
    }
    if (limit >= 0) out << "  limit: " << limit << "\n";
  }
  if (!depends_on.empty()) {
    std::vector<std::string> parts;
    for (int d : depends_on) parts.push_back(std::to_string(d));
    out << "  depends on: " << Join(parts, ", ") << "\n";
  }
  return out.str();
}

std::string CompiledQuery::ToString() const {
  std::ostringstream out;
  for (const auto& b : blocks) out << b.ToString();
  return out.str();
}

}  // namespace gola
