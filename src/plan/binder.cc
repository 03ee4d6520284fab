#include "plan/binder.h"

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <unordered_set>

#include "common/logging.h"
#include "common/string_util.h"
#include "expr/functions.h"

namespace gola {

// ------------------------------------------------------------- Catalog --

Status Catalog::RegisterTable(const std::string& name, TablePtr table) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  if (table->schema() != nullptr) {
    Status names = table->schema()->CheckUniqueNames();
    if (!names.ok()) return Status::InvalidArgument("table '" + name + "': " + names.message());
  }
  std::unique_lock lock(mu_);
  ++version_;
  tables_[ToLower(name)] = std::move(table);
  return Status::OK();
}

Result<TablePtr> Catalog::GetTable(const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) return Status::KeyError("unknown table: " + name);
  return it->second;
}

Result<SchemaPtr> Catalog::GetSchema(const std::string& name) const {
  GOLA_ASSIGN_OR_RETURN(TablePtr t, GetTable(name));
  return t->schema();
}

bool Catalog::HasTable(const std::string& name) const {
  std::shared_lock lock(mu_);
  return tables_.count(ToLower(name)) > 0;
}

std::vector<std::string> Catalog::ListTables() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, _] : tables_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

uint64_t Catalog::version() const {
  std::shared_lock lock(mu_);
  return version_;
}

namespace {

// --------------------------------------------------------------- scope --

constexpr int kAmbiguous = -2;

/// One query level's column namespace: both "alias.col" and bare "col"
/// map to (input chunk position, type); bare duplicates become ambiguous.
struct ScopeFrame {
  std::unordered_map<std::string, std::pair<int, TypeId>> cols;

  void AddColumn(const std::string& table_alias, const std::string& col, int index,
                 TypeId type) {
    std::string qualified = ToLower(table_alias) + "." + ToLower(col);
    cols[qualified] = {index, type};
    std::string bare = ToLower(col);
    auto it = cols.find(bare);
    if (it == cols.end()) cols[bare] = {index, type};
    else if (it->second.first != index) it->second.first = kAmbiguous;
  }
};

struct Scope {
  const Scope* parent = nullptr;
  ScopeFrame frame;
};

// --------------------------------------------------------------- binder --

class Binder {
 public:
  explicit Binder(const Catalog& catalog) : catalog_(catalog) {}

  Result<CompiledQuery> Bind(const SelectStmt& stmt) {
    GOLA_ASSIGN_OR_RETURN(int root_id, BindSelect(stmt, nullptr, BlockKind::kRoot));
    (void)root_id;
    CompiledQuery q;
    q.blocks = std::move(blocks_);
    return q;
  }

 private:
  struct ConvertCtx {
    const Scope* scope = nullptr;
    bool allow_aggregates = false;
    // Correlated outer references found during conversion (depth == 1).
    bool saw_outer_ref = false;
  };

  // ---------------------------------------------------------- BindSelect --
  // Plans one SELECT into a BlockDef, appending inner subquery blocks first.
  // Returns the new block's id.
  Result<int> BindSelect(const SelectStmt& stmt, const Scope* outer_scope,
                         BlockKind kind) {
    BlockDef block;
    block.kind = kind;

    if (stmt.from.empty()) {
      return Status::PlanError("FROM clause is required");
    }

    // --- input layout: streamed table then dimension joins -------------
    Scope scope;
    scope.parent = outer_scope;

    block.table = stmt.from[0].name;
    GOLA_ASSIGN_OR_RETURN(SchemaPtr streamed_schema, catalog_.GetSchema(block.table));
    std::vector<Field> layout_fields(streamed_schema->fields());
    for (size_t i = 0; i < streamed_schema->num_fields(); ++i) {
      scope.frame.AddColumn(stmt.from[0].alias, streamed_schema->field(i).name,
                            static_cast<int>(i), streamed_schema->field(i).type);
    }

    // Split the WHERE AST into conjuncts up front; join conjuncts are
    // consumed by dimension-join planning, the rest bind below.
    std::vector<const AstExpr*> ast_conjuncts;
    if (stmt.where) CollectAstConjuncts(*stmt.where, &ast_conjuncts);
    std::vector<bool> conjunct_used(ast_conjuncts.size(), false);

    for (size_t t = 1; t < stmt.from.size(); ++t) {
      const TableRef& dim = stmt.from[t];
      GOLA_ASSIGN_OR_RETURN(SchemaPtr dim_schema, catalog_.GetSchema(dim.name));
      // Single-frame scopes for purity tests.
      Scope probe_scope;
      probe_scope.frame = scope.frame;
      Scope dim_scope;
      for (size_t i = 0; i < dim_schema->num_fields(); ++i) {
        dim_scope.frame.AddColumn(dim.alias, dim_schema->field(i).name,
                                  static_cast<int>(i), dim_schema->field(i).type);
      }
      // Find an equality conjunct linking the accumulated layout to this dim.
      bool found = false;
      for (size_t c = 0; c < ast_conjuncts.size() && !found; ++c) {
        if (conjunct_used[c]) continue;
        const AstExpr* conj = ast_conjuncts[c];
        if (conj->kind != AstExprKind::kComparison || conj->cmp_op != CmpOp::kEq) continue;
        for (int orient = 0; orient < 2 && !found; ++orient) {
          const AstExpr& probe_side = *conj->children[orient];
          const AstExpr& build_side = *conj->children[1 - orient];
          ConvertCtx probe_ctx{&probe_scope, false, false};
          ConvertCtx build_ctx{&dim_scope, false, false};
          auto probe = ConvertExpr(probe_side, &probe_ctx);
          auto build = ConvertExpr(build_side, &build_ctx);
          if (!probe.ok() || !build.ok() || probe_ctx.saw_outer_ref ||
              build_ctx.saw_outer_ref) {
            continue;
          }
          DimJoin join;
          join.table = dim.name;
          join.probe_key = std::move(probe).value();
          join.build_key = std::move(build).value();
          block.dim_joins.push_back(std::move(join));
          conjunct_used[c] = true;
          found = true;
        }
      }
      if (!found) {
        return Status::PlanError(
            Format("no equi-join condition found for table %s (cartesian products "
                   "are not supported)",
                   dim.name.c_str()));
      }
      // Extend the layout with the dimension columns.
      int base = static_cast<int>(layout_fields.size());
      for (size_t i = 0; i < dim_schema->num_fields(); ++i) {
        layout_fields.push_back(dim_schema->field(i));
        scope.frame.AddColumn(dim.alias, dim_schema->field(i).name,
                              base + static_cast<int>(i), dim_schema->field(i).type);
      }
    }
    block.input_schema = std::make_shared<Schema>(layout_fields);

    // --- WHERE ----------------------------------------------------------
    for (size_t c = 0; c < ast_conjuncts.size(); ++c) {
      if (conjunct_used[c]) continue;
      ConvertCtx ctx{&scope, /*allow_aggregates=*/false, false};
      GOLA_ASSIGN_OR_RETURN(ExprPtr bound, ConvertExpr(*ast_conjuncts[c], &ctx));
      if (ctx.saw_outer_ref) {
        // Correlation conjunct: inner_key = outer_key.
        GOLA_RETURN_NOT_OK(ExtractCorrelation(std::move(bound), &block));
        continue;
      }
      if (bound->type != TypeId::kBool) {
        return Status::TypeError("WHERE conjunct is not boolean: " + bound->ToString());
      }
      GOLA_RETURN_NOT_OK(ClassifyConjunct(std::move(bound), &block.certain_conjuncts,
                                          &block.uncertain_conjuncts));
    }

    // --- aggregation shape ----------------------------------------------
    bool any_agg = false;
    for (const auto& item : stmt.items) {
      if (AstContainsAggregate(*item.expr)) any_agg = true;
    }
    if (stmt.having && AstContainsAggregate(*stmt.having)) any_agg = true;
    block.is_aggregate = any_agg || !stmt.group_by.empty();

    if (kind == BlockKind::kScalar) {
      if (stmt.items.size() != 1) {
        return Status::PlanError("scalar subquery must select exactly one expression");
      }
      if (!stmt.group_by.empty()) {
        return Status::PlanError("scalar subquery cannot have GROUP BY");
      }
      if (!block.is_aggregate) {
        return Status::PlanError("scalar subquery must be an aggregate query");
      }
    }

    // Bound GROUP BY expressions. Correlated scalar subqueries group by
    // their correlation key.
    std::vector<ExprPtr> bound_groups;
    if (kind == BlockKind::kScalar && block.corr_key) {
      bound_groups.push_back(block.corr_key->Clone());
      block.group_names.push_back("__corr_key");
    } else {
      for (const auto& g : stmt.group_by) {
        ConvertCtx ctx{&scope, false, false};
        GOLA_ASSIGN_OR_RETURN(ExprPtr bound, ConvertExpr(*g, &ctx));
        if (ctx.saw_outer_ref) {
          return Status::PlanError("correlated GROUP BY is not supported");
        }
        bound_groups.push_back(std::move(bound));
        block.group_names.push_back("");  // named after select aliases below
      }
    }

    // Membership subqueries with neither GROUP BY nor aggregates act as
    // SELECT DISTINCT key: auto-group by the select item.
    if (kind == BlockKind::kMembership && bound_groups.empty() && !block.is_aggregate) {
      if (stmt.items.size() != 1) {
        return Status::PlanError("IN subquery must select exactly one expression");
      }
      ConvertCtx ctx{&scope, false, false};
      GOLA_ASSIGN_OR_RETURN(ExprPtr bound, ConvertExpr(*stmt.items[0].expr, &ctx));
      bound_groups.push_back(std::move(bound));
      block.group_names.push_back("key");
      block.is_aggregate = true;
    }

    // --- select items -----------------------------------------------------
    // Bind each item over the input scope, then rewrite group-by subtrees
    // and aggregate calls into post-aggregation column references.
    std::vector<ExprPtr> bound_items;
    std::vector<std::string> item_names;
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      ConvertCtx ctx{&scope, /*allow_aggregates=*/true, false};
      GOLA_ASSIGN_OR_RETURN(ExprPtr bound, ConvertExpr(*stmt.items[i].expr, &ctx));
      if (ctx.saw_outer_ref) {
        return Status::PlanError("correlated select items are not supported");
      }
      std::string name = stmt.items[i].alias;
      if (name.empty()) name = DeriveName(*stmt.items[i].expr, i);
      // Name group columns after matching select aliases.
      for (size_t g = 0; g < bound_groups.size(); ++g) {
        if (block.group_names[g].empty() &&
            bound->ToString() == bound_groups[g]->ToString()) {
          block.group_names[g] = name;
        }
      }
      bound_items.push_back(std::move(bound));
      item_names.push_back(std::move(name));
    }
    for (size_t g = 0; g < bound_groups.size(); ++g) {
      if (block.group_names[g].empty()) block.group_names[g] = Format("g%zu", g);
    }
    block.group_by = std::move(bound_groups);

    if (block.is_aggregate) {
      // Rewrite select items / having / value expr into post-agg space,
      // accumulating the aggregate list.
      std::vector<ExprPtr> post_items;
      for (auto& item : bound_items) {
        GOLA_ASSIGN_OR_RETURN(ExprPtr rewritten, RewritePostAgg(item, &block));
        post_items.push_back(std::move(rewritten));
      }
      bound_items = std::move(post_items);
    } else if (kind != BlockKind::kRoot) {
      if (kind == BlockKind::kScalar) {
        return Status::PlanError("scalar subquery must aggregate");
      }
    }

    // --- HAVING -----------------------------------------------------------
    if (stmt.having) {
      if (!block.is_aggregate) {
        return Status::PlanError("HAVING without aggregation");
      }
      std::vector<const AstExpr*> having_conjuncts;
      CollectAstConjuncts(*stmt.having, &having_conjuncts);
      for (const AstExpr* conj : having_conjuncts) {
        ConvertCtx ctx{&scope, /*allow_aggregates=*/true, false};
        GOLA_ASSIGN_OR_RETURN(ExprPtr bound, ConvertExpr(*conj, &ctx));
        if (ctx.saw_outer_ref) {
          return Status::PlanError("correlated HAVING is not supported");
        }
        GOLA_ASSIGN_OR_RETURN(ExprPtr rewritten, RewritePostAgg(bound, &block));
        if (rewritten->type != TypeId::kBool) {
          return Status::TypeError("HAVING conjunct is not boolean: " +
                                   rewritten->ToString());
        }
        GOLA_RETURN_NOT_OK(ClassifyConjunct(std::move(rewritten), &block.having_certain,
                                            &block.having_uncertain));
      }
    }

    // --- kind-specific output ----------------------------------------------
    switch (kind) {
      case BlockKind::kScalar: {
        block.value_expr = bound_items[0];
        if (!IsNumeric(block.value_expr->type)) {
          return Status::TypeError("scalar subquery must produce a numeric value");
        }
        break;
      }
      case BlockKind::kMembership: {
        if (bound_items.size() != 1) {
          return Status::PlanError("IN subquery must select exactly one expression");
        }
        // The select item must be one of the group columns.
        int key_index = -1;
        const ExprPtr& item = bound_items[0];
        if (item->kind == ExprKind::kColumnRef && !item->from_outer_scope) {
          // Already rewritten into post-agg space: group columns come first.
          if (item->column_index < static_cast<int>(block.group_by.size())) {
            key_index = item->column_index;
          }
        }
        if (key_index < 0) {
          return Status::PlanError(
              "IN subquery must select one of its GROUP BY columns");
        }
        block.membership_key_index = key_index;
        break;
      }
      case BlockKind::kRoot: {
        block.output_exprs = bound_items;
        block.output_names = item_names;
        std::vector<Field> out_fields;
        for (size_t i = 0; i < bound_items.size(); ++i) {
          out_fields.push_back({item_names[i], bound_items[i]->type});
        }
        block.output_schema = std::make_shared<Schema>(out_fields);
        // ORDER BY / LIMIT.
        for (const auto& o : stmt.order_by) {
          SortKey key;
          key.descending = o.descending;
          GOLA_ASSIGN_OR_RETURN(key.expr,
                                BindSortKey(*o.expr, &scope, &block, item_names));
          block.order_by.push_back(std::move(key));
        }
        block.limit = stmt.limit;
        break;
      }
    }

    // --- post-aggregation schema ------------------------------------------
    // Built last: HAVING / ORDER BY / value-expr rewriting above may have
    // introduced aggregate slots beyond those in the select list.
    if (block.is_aggregate) {
      std::vector<Field> post_fields;
      for (size_t g = 0; g < block.group_by.size(); ++g) {
        post_fields.push_back({block.group_names[g], block.group_by[g]->type});
      }
      for (const auto& agg : block.aggs) {
        post_fields.push_back({agg.name, agg.call->type});
      }
      block.post_agg_schema = std::make_shared<Schema>(post_fields);
    }

    // --- dependencies ------------------------------------------------------
    std::unordered_set<int> deps;
    auto collect_deps = [&deps](const ExprPtr& e) {
      if (!e) return;
      std::vector<Expr*> refs;
      e->CollectSubqueryRefs(&refs);
      for (Expr* r : refs) deps.insert(r->subquery_id);
    };
    for (const auto& c : block.certain_conjuncts) collect_deps(c);
    for (const auto& c : block.uncertain_conjuncts) {
      deps.insert(c.subquery_id >= 0 ? c.subquery_id : -1);
      collect_deps(c.lhs);
      collect_deps(c.opaque);
    }
    for (const auto& c : block.having_certain) collect_deps(c);
    for (const auto& c : block.having_uncertain) {
      deps.insert(c.subquery_id >= 0 ? c.subquery_id : -1);
      collect_deps(c.lhs);
      collect_deps(c.opaque);
    }
    for (const auto& e : block.output_exprs) collect_deps(e);
    collect_deps(block.value_expr);
    deps.erase(-1);
    block.depends_on.assign(deps.begin(), deps.end());
    std::sort(block.depends_on.begin(), block.depends_on.end());

    PruneScanColumns(*streamed_schema, &block);

    block.id = kind == BlockKind::kRoot ? CompiledQuery::kRootBlockId : next_block_id_++;
    int id = block.id;
    blocks_.push_back(std::move(block));
    StashOuterKey(id);
    return id;
  }

  // ------------------------------------------------------- AST utilities --
  static void CollectAstConjuncts(const AstExpr& e, std::vector<const AstExpr*>* out) {
    if (e.kind == AstExprKind::kLogical && e.logical_op == LogicalOp::kAnd) {
      CollectAstConjuncts(*e.children[0], out);
      CollectAstConjuncts(*e.children[1], out);
      return;
    }
    out->push_back(&e);
  }

  static bool AstContainsAggregate(const AstExpr& e) {
    if (e.kind == AstExprKind::kFunctionCall && IsAggregateName(e.name)) return true;
    // Do not descend into subqueries: their aggregates are their own.
    if (e.kind == AstExprKind::kSubquery || e.kind == AstExprKind::kInSubquery) {
      for (const auto& c : e.children) {
        if (c && AstContainsAggregate(*c)) return true;  // the IN key side
      }
      return false;
    }
    for (const auto& c : e.children) {
      if (c && AstContainsAggregate(*c)) return true;
    }
    return false;
  }

  static bool IsAggregateName(const std::string& name) {
    static const char* kNames[] = {"count", "sum",    "avg",      "min",     "max",
                                   "var",   "stddev", "variance", "quantile", "percentile"};
    std::string lower = ToLower(name);
    for (const char* n : kNames) {
      if (lower == n) return true;
    }
    return IsRegisteredUdafName(lower);
  }

  static bool IsRegisteredUdafName(const std::string& lower) {
    Expr probe;
    probe.kind = ExprKind::kAggregateCall;
    probe.agg_kind = AggKind::kUdaf;
    probe.func_name = lower;
    return ResolveAggregate(probe).ok();
  }

  static std::string DeriveName(const AstExpr& e, size_t index) {
    if (e.kind == AstExprKind::kColumnRef) {
      auto dot = e.name.rfind('.');
      return dot == std::string::npos ? e.name : e.name.substr(dot + 1);
    }
    if (e.kind == AstExprKind::kFunctionCall) {
      std::string base = ToLower(e.name);
      if (e.children.size() == 1 && e.children[0]->kind == AstExprKind::kColumnRef) {
        return base + "_" + DeriveName(*e.children[0], index);
      }
      return base;
    }
    return Format("col%zu", index);
  }

  // -------------------------------------------------- expression binding --
  Result<ExprPtr> ConvertExpr(const AstExpr& ast, ConvertCtx* ctx) {
    switch (ast.kind) {
      case AstExprKind::kLiteral: {
        return Expr::Lit(ast.literal);
      }
      case AstExprKind::kStar:
        return Status::PlanError("'*' is only valid inside COUNT(*)");
      case AstExprKind::kColumnRef:
        return BindColumn(ast.name, ctx);
      case AstExprKind::kArithmetic: {
        if (ast.arith_op == ArithOp::kNeg) {
          GOLA_ASSIGN_OR_RETURN(ExprPtr operand, ConvertExpr(*ast.children[0], ctx));
          if (!IsNumeric(operand->type)) {
            return Status::TypeError("unary minus on non-numeric operand");
          }
          // Constant-fold negated literals ("-2" parses as Neg(2)); keeps
          // downstream pattern matching (affine peeling) simple.
          if (operand->kind == ExprKind::kLiteral) {
            Value folded = operand->literal.type() == TypeId::kInt64
                               ? Value::Int(-operand->literal.AsInt())
                               : Value::Float(-operand->literal.ToDouble().ValueOr(0));
            return Expr::Lit(std::move(folded));
          }
          ExprPtr e = Expr::Neg(std::move(operand));
          e->type = e->children[0]->type;
          return e;
        }
        GOLA_ASSIGN_OR_RETURN(ExprPtr lhs, ConvertExpr(*ast.children[0], ctx));
        GOLA_ASSIGN_OR_RETURN(ExprPtr rhs, ConvertExpr(*ast.children[1], ctx));
        ExprPtr e = Expr::Arith(ast.arith_op, std::move(lhs), std::move(rhs));
        if (ast.arith_op == ArithOp::kDiv) {
          if (!IsNumeric(e->children[0]->type) || !IsNumeric(e->children[1]->type)) {
            return Status::TypeError("arithmetic on non-numeric operands: " + e->ToString());
          }
          e->type = TypeId::kFloat64;
        } else {
          GOLA_ASSIGN_OR_RETURN(e->type, CommonNumericType(e->children[0]->type,
                                                           e->children[1]->type));
        }
        return e;
      }
      case AstExprKind::kComparison: {
        GOLA_ASSIGN_OR_RETURN(ExprPtr lhs, ConvertExpr(*ast.children[0], ctx));
        GOLA_ASSIGN_OR_RETURN(ExprPtr rhs, ConvertExpr(*ast.children[1], ctx));
        GOLA_RETURN_NOT_OK(
            CommonComparableType(lhs->type, rhs->type).status().WithContext(
                "in " + ast.ToString()));
        ExprPtr e = Expr::Cmp(ast.cmp_op, std::move(lhs), std::move(rhs));
        e->type = TypeId::kBool;
        return e;
      }
      case AstExprKind::kLogical: {
        GOLA_ASSIGN_OR_RETURN(ExprPtr lhs, ConvertExpr(*ast.children[0], ctx));
        ExprPtr e;
        if (ast.logical_op == LogicalOp::kNot) {
          e = Expr::Not(std::move(lhs));
        } else {
          GOLA_ASSIGN_OR_RETURN(ExprPtr rhs, ConvertExpr(*ast.children[1], ctx));
          e = ast.logical_op == LogicalOp::kAnd ? Expr::And(std::move(lhs), std::move(rhs))
                                                : Expr::Or(std::move(lhs), std::move(rhs));
        }
        for (const auto& c : e->children) {
          if (c->type != TypeId::kBool) {
            return Status::TypeError("logical operand is not boolean: " + c->ToString());
          }
        }
        e->type = TypeId::kBool;
        return e;
      }
      case AstExprKind::kFunctionCall:
        return BindFunctionOrAggregate(ast, ctx);
      case AstExprKind::kCase: {
        auto e = std::make_shared<Expr>();
        e->kind = ExprKind::kCase;
        TypeId result = TypeId::kNull;
        for (size_t i = 0; i < ast.children.size(); ++i) {
          GOLA_ASSIGN_OR_RETURN(ExprPtr child, ConvertExpr(*ast.children[i], ctx));
          bool is_when = (i % 2 == 0) && (i + 1 < ast.children.size() ||
                                          ast.children.size() % 2 == 0);
          if (is_when) {
            if (child->type != TypeId::kBool) {
              return Status::TypeError("CASE WHEN condition is not boolean");
            }
          } else {
            if (result == TypeId::kNull) result = child->type;
            else if (result != child->type) {
              if (IsNumeric(result) && IsNumeric(child->type)) result = TypeId::kFloat64;
              else return Status::TypeError("CASE branches must share a type");
            }
          }
          e->children.push_back(std::move(child));
        }
        e->type = result == TypeId::kNull ? TypeId::kFloat64 : result;
        return e;
      }
      case AstExprKind::kIsNull: {
        GOLA_ASSIGN_OR_RETURN(ExprPtr operand, ConvertExpr(*ast.children[0], ctx));
        auto e = std::make_shared<Expr>();
        e->kind = ExprKind::kIsNull;
        e->literal = Value::Bool(ast.negated);  // true → IS NOT NULL
        e->children.push_back(std::move(operand));
        e->type = TypeId::kBool;
        return e;
      }
      case AstExprKind::kSubquery: {
        GOLA_ASSIGN_OR_RETURN(int id, BindSelect(*ast.subquery, ctx->scope,
                                                 BlockKind::kScalar));
        const BlockDef* inner = FindBlockMutable(id);
        ExprPtr outer_key;
        if (inner->corr_key) {
          outer_key = correlated_outer_keys_.at(id)->Clone();
        }
        ExprPtr e = Expr::SubqueryScalar(id, std::move(outer_key));
        e->type = inner->value_expr->type;
        return e;
      }
      case AstExprKind::kInSubquery: {
        GOLA_ASSIGN_OR_RETURN(ExprPtr key, ConvertExpr(*ast.children[0], ctx));
        GOLA_ASSIGN_OR_RETURN(int id, BindSelect(*ast.subquery, ctx->scope,
                                                 BlockKind::kMembership));
        ExprPtr e = Expr::SubqueryIn(id, std::move(key), ast.negated);
        e->type = TypeId::kBool;
        return e;
      }
    }
    return Status::Internal("unreachable AST kind");
  }

  Result<ExprPtr> BindColumn(const std::string& name, ConvertCtx* ctx) {
    std::string lower = ToLower(name);
    int depth = 0;
    for (const Scope* s = ctx->scope; s != nullptr; s = s->parent, ++depth) {
      auto it = s->frame.cols.find(lower);
      if (it == s->frame.cols.end()) continue;
      if (it->second.first == kAmbiguous) {
        return Status::PlanError("ambiguous column reference: " + name);
      }
      if (depth > 1) {
        return Status::NotImplemented(
            "correlation across more than one query level: " + name);
      }
      ExprPtr e = Expr::Col(name);
      e->column_index = it->second.first;
      e->type = it->second.second;
      e->from_outer_scope = depth == 1;
      if (depth == 1) ctx->saw_outer_ref = true;
      return e;
    }
    return Status::KeyError("unknown column: " + name);
  }

  Result<ExprPtr> BindFunctionOrAggregate(const AstExpr& ast, ConvertCtx* ctx) {
    std::string lower = ToLower(ast.name);
    if (IsAggregateName(lower)) {
      if (!ctx->allow_aggregates) {
        return Status::PlanError("aggregate not allowed here: " + ast.ToString());
      }
      AggKind kind;
      double param = 0;
      if (lower == "count") {
        kind = (ast.children.size() == 1 && ast.children[0]->kind == AstExprKind::kStar)
                   ? AggKind::kCountStar
                   : AggKind::kCount;
      } else if (lower == "sum") kind = AggKind::kSum;
      else if (lower == "avg") kind = AggKind::kAvg;
      else if (lower == "min") kind = AggKind::kMin;
      else if (lower == "max") kind = AggKind::kMax;
      else if (lower == "var" || lower == "variance") kind = AggKind::kVar;
      else if (lower == "stddev") kind = AggKind::kStddev;
      else if (lower == "quantile" || lower == "percentile") kind = AggKind::kQuantile;
      else kind = AggKind::kUdaf;

      ExprPtr arg;
      if (kind == AggKind::kCountStar) {
        if (ast.children.size() != 1) {
          return Status::PlanError("COUNT(*) takes exactly '*'");
        }
      } else if (kind == AggKind::kQuantile) {
        if (ast.children.size() != 2 ||
            ast.children[1]->kind != AstExprKind::kLiteral) {
          return Status::PlanError("QUANTILE(expr, q) requires a literal quantile");
        }
        GOLA_ASSIGN_OR_RETURN(double q, ast.children[1]->literal.ToDouble());
        param = q;
        ConvertCtx arg_ctx{ctx->scope, false, false};
        GOLA_ASSIGN_OR_RETURN(arg, ConvertExpr(*ast.children[0], &arg_ctx));
        if (arg_ctx.saw_outer_ref) {
          return Status::NotImplemented("correlated aggregate arguments");
        }
      } else {
        if (ast.children.size() != 1) {
          return Status::PlanError(ast.name + " takes exactly one argument");
        }
        ConvertCtx arg_ctx{ctx->scope, false, false};
        GOLA_ASSIGN_OR_RETURN(arg, ConvertExpr(*ast.children[0], &arg_ctx));
        if (arg_ctx.saw_outer_ref) {
          return Status::NotImplemented("correlated aggregate arguments");
        }
        if (arg->ContainsSubqueryRef()) {
          return Status::NotImplemented("subqueries inside aggregate arguments");
        }
      }
      ExprPtr e = kind == AggKind::kUdaf ? Expr::Udaf(lower, std::move(arg))
                                         : Expr::Agg(kind, std::move(arg), param);
      GOLA_ASSIGN_OR_RETURN(const AggregateFunction* fn, ResolveAggregate(*e));
      TypeId input = e->children.empty() ? TypeId::kNull : e->children[0]->type;
      GOLA_ASSIGN_OR_RETURN(e->type, fn->ResultType(input));
      return e;
    }

    // Scalar function.
    GOLA_ASSIGN_OR_RETURN(const ScalarFunction* fn,
                          FunctionRegistry::Global().Lookup(lower));
    if (fn->arity >= 0 && static_cast<int>(ast.children.size()) != fn->arity) {
      return Status::PlanError(Format("%s expects %d arguments, got %zu", lower.c_str(),
                                      fn->arity, ast.children.size()));
    }
    std::vector<ExprPtr> args;
    std::vector<TypeId> arg_types;
    for (const auto& child : ast.children) {
      GOLA_ASSIGN_OR_RETURN(ExprPtr a, ConvertExpr(*child, ctx));
      arg_types.push_back(a->type);
      args.push_back(std::move(a));
    }
    ExprPtr e = Expr::Func(lower, std::move(args));
    GOLA_ASSIGN_OR_RETURN(e->type, fn->bind(arg_types));
    return e;
  }

  // ------------------------------------------------------- correlation --
  // Consumes a bound conjunct containing outer references. Supported form:
  //   inner_expr = outer_column   (either orientation)
  Status ExtractCorrelation(ExprPtr conjunct, BlockDef* block) {
    if (conjunct->kind != ExprKind::kComparison || conjunct->cmp_op != CmpOp::kEq) {
      return Status::NotImplemented(
          "correlated predicates must be equality conjuncts: " + conjunct->ToString());
    }
    ExprPtr inner_side, outer_side;
    for (int orient = 0; orient < 2; ++orient) {
      const ExprPtr& a = conjunct->children[static_cast<size_t>(orient)];
      const ExprPtr& b = conjunct->children[static_cast<size_t>(1 - orient)];
      if (IsPureOuter(*b) && IsPureInner(*a)) {
        inner_side = a;
        outer_side = b;
        break;
      }
    }
    if (!inner_side) {
      return Status::NotImplemented(
          "correlation must compare an inner expression with an outer column: " +
          conjunct->ToString());
    }
    if (block->corr_key) {
      return Status::NotImplemented("multiple correlation keys are not supported");
    }
    block->corr_key = inner_side;
    pending_outer_key_ = outer_side->Clone();
    ClearOuterFlags(pending_outer_key_.get());  // binds in the outer block
    return Status::OK();
  }

  static void CountRefs(const Expr& e, int* outer, int* inner) {
    if (e.kind == ExprKind::kColumnRef) {
      if (e.from_outer_scope) ++*outer;
      else ++*inner;
    }
    for (const auto& c : e.children) {
      if (c) CountRefs(*c, outer, inner);
    }
  }
  /// An expression whose column references are all outer (and nonempty).
  static bool IsPureOuter(const Expr& e) {
    int outer = 0, inner = 0;
    CountRefs(e, &outer, &inner);
    return outer > 0 && inner == 0;
  }
  /// An expression with no outer references.
  static bool IsPureInner(const Expr& e) {
    int outer = 0, inner = 0;
    CountRefs(e, &outer, &inner);
    return outer == 0;
  }
  static void ClearOuterFlags(Expr* e) {
    e->from_outer_scope = false;
    for (auto& c : e->children) {
      if (c) ClearOuterFlags(c.get());
    }
  }

  // -------------------------------------------- conjunct classification --
  // Peels affine wrappers around a subquery reference so that e.g.
  //   x > 1.5 * (SELECT ...)      becomes   x / 1.5 > (SELECT ...)
  //   x < (SELECT ...) + 10       becomes   x - 10 < (SELECT ...)
  // keeping the conjunct in the bare form range classification understands.
  // Negative multipliers flip the comparison. Returns false when no peel
  // applies.
  static bool PeelAffine(ExprPtr* lhs, ExprPtr* rhs, CmpOp* op) {
    if ((*rhs)->kind != ExprKind::kArithmetic || (*rhs)->children.size() != 2) {
      return false;
    }
    const ExprPtr& a = (*rhs)->children[0];
    const ExprPtr& b = (*rhs)->children[1];
    auto is_num_lit = [](const ExprPtr& e) {
      return e->kind == ExprKind::kLiteral && !e->literal.is_null() &&
             IsNumeric(e->literal.type());
    };
    auto wrap = [&](ArithOp arith, ExprPtr new_lhs_rhs) {
      ExprPtr e = Expr::Arith(arith, *lhs, std::move(new_lhs_rhs));
      e->type = TypeId::kFloat64;
      *lhs = std::move(e);
    };
    switch ((*rhs)->arith_op) {
      case ArithOp::kMul: {
        const ExprPtr& lit = is_num_lit(a) ? a : b;
        const ExprPtr& sub = is_num_lit(a) ? b : a;
        if (!is_num_lit(lit) || !sub->ContainsSubqueryRef()) return false;
        double c = lit->literal.ToDouble().ValueOr(0);
        if (c == 0) return false;
        wrap(ArithOp::kDiv, lit->Clone());
        if (c < 0) *op = FlipCmp(*op);
        *rhs = sub;
        return true;
      }
      case ArithOp::kDiv: {
        if (!is_num_lit(b) || !a->ContainsSubqueryRef()) return false;
        double c = b->literal.ToDouble().ValueOr(0);
        if (c == 0) return false;
        wrap(ArithOp::kMul, b->Clone());
        if (c < 0) *op = FlipCmp(*op);
        *rhs = a;
        return true;
      }
      case ArithOp::kAdd: {
        const ExprPtr& lit = is_num_lit(a) ? a : b;
        const ExprPtr& sub = is_num_lit(a) ? b : a;
        if (!is_num_lit(lit) || !sub->ContainsSubqueryRef()) return false;
        wrap(ArithOp::kSub, lit->Clone());
        *rhs = sub;
        return true;
      }
      case ArithOp::kSub: {
        if (is_num_lit(b) && a->ContainsSubqueryRef()) {
          wrap(ArithOp::kAdd, b->Clone());
          *rhs = a;
          return true;
        }
        if (is_num_lit(a) && b->ContainsSubqueryRef()) {
          // x op (lit - S)  ⇔  (lit - x) flip(op) S
          ExprPtr e = Expr::Arith(ArithOp::kSub, a->Clone(), *lhs);
          e->type = TypeId::kFloat64;
          *lhs = std::move(e);
          *op = FlipCmp(*op);
          *rhs = b;
          return true;
        }
        return false;
      }
      default:
        return false;
    }
  }

  Status ClassifyConjunct(ExprPtr bound, std::vector<ExprPtr>* certain,
                          std::vector<UncertainConjunct>* uncertain) {
    if (!bound->ContainsSubqueryRef()) {
      certain->push_back(std::move(bound));
      return Status::OK();
    }
    UncertainConjunct uc;
    if (bound->kind == ExprKind::kComparison) {
      ExprPtr lhs = bound->children[0];
      ExprPtr rhs = bound->children[1];
      CmpOp op = bound->cmp_op;
      if (lhs->ContainsSubqueryRef() && !rhs->ContainsSubqueryRef()) {
        std::swap(lhs, rhs);
        op = FlipCmp(op);
      }
      // Normalize affine transforms of the subquery value into the lhs.
      while (rhs->kind != ExprKind::kSubqueryRef && !lhs->ContainsSubqueryRef() &&
             PeelAffine(&lhs, &rhs, &op)) {
      }
      if (rhs->kind == ExprKind::kSubqueryRef && !lhs->ContainsSubqueryRef()) {
        uc.form = UncertainConjunct::Form::kScalarCmp;
        uc.lhs = lhs;
        uc.cmp = op;
        uc.subquery_id = rhs->subquery_id;
        if (!rhs->children.empty()) uc.outer_key = rhs->children[0];
        uncertain->push_back(std::move(uc));
        return Status::OK();
      }
    }
    if (bound->kind == ExprKind::kInSubquery &&
        !bound->children[0]->ContainsSubqueryRef()) {
      uc.form = UncertainConjunct::Form::kMembership;
      uc.lhs = bound->children[0];
      uc.subquery_id = bound->subquery_id;
      uc.negated = bound->negated;
      uncertain->push_back(std::move(uc));
      return Status::OK();
    }
    // Fallback: evaluate with point estimates, always-uncertain online.
    uc.form = UncertainConjunct::Form::kOpaque;
    uc.opaque = std::move(bound);
    std::vector<Expr*> refs;
    uc.opaque->CollectSubqueryRefs(&refs);
    uc.subquery_id = refs.empty() ? -1 : refs[0]->subquery_id;
    uncertain->push_back(std::move(uc));
    return Status::OK();
  }

  // ------------------------------------------------- post-agg rewriting --
  // Rewrites a bound (input-space) expression into post-aggregation space:
  // subtrees equal to a GROUP BY expression become group-column refs,
  // aggregate calls become slot refs, anything else recurses; remaining raw
  // input column refs are an error ("not in GROUP BY").
  Result<ExprPtr> RewritePostAgg(const ExprPtr& bound, BlockDef* block) {
    // Group-by subtree?
    std::string repr = bound->ToString();
    for (size_t g = 0; g < block->group_by.size(); ++g) {
      if (repr == block->group_by[g]->ToString()) {
        ExprPtr ref = Expr::Col(block->group_names[g]);
        ref->column_index = static_cast<int>(g);
        ref->type = block->group_by[g]->type;
        return ref;
      }
    }
    if (bound->kind == ExprKind::kAggregateCall) {
      // Existing slot?
      int slot = -1;
      for (size_t a = 0; a < block->aggs.size(); ++a) {
        if (block->aggs[a].call->ToString() == repr) {
          slot = static_cast<int>(a);
          break;
        }
      }
      if (slot < 0) {
        AggItem item;
        item.call = bound->Clone();
        GOLA_ASSIGN_OR_RETURN(item.fn, ResolveAggregate(*item.call));
        item.call->agg_slot = static_cast<int>(block->aggs.size());
        item.name = Format("agg%zu", block->aggs.size());
        slot = item.call->agg_slot;
        block->aggs.push_back(std::move(item));
      }
      ExprPtr ref = bound->Clone();
      ref->children.clear();
      ref->agg_slot = slot;
      ref->column_index = static_cast<int>(block->group_by.size()) + slot;
      return ref;
    }
    if (bound->kind == ExprKind::kColumnRef && !bound->from_outer_scope) {
      return Status::PlanError("column '" + bound->column_name +
                               "' must appear in GROUP BY or inside an aggregate");
    }
    ExprPtr out = std::make_shared<Expr>(*bound);
    for (auto& child : out->children) {
      if (child) {
        GOLA_ASSIGN_OR_RETURN(child, RewritePostAgg(child, block));
      }
    }
    return out;
  }

  // ------------------------------------------------------ scan pruning --
  // Narrows the block's input layout, bound as the full streamed layout
  // followed by the dim columns, to the streamed-table columns its
  // input-space expressions read. Post-aggregation trees address the
  // post-agg chunk and are left alone; the input-space trees are replaced by
  // remapped copies, so a node one of them shares with any other tree keeps
  // its original position.
  static void PruneScanColumns(const Schema& streamed, BlockDef* block) {
    std::vector<ExprPtr*> roots;
    auto add = [&roots](ExprPtr& e) {
      if (e) roots.push_back(&e);
    };
    for (auto& join : block->dim_joins) add(join.probe_key);
    for (auto& c : block->certain_conjuncts) add(c);
    for (auto& uc : block->uncertain_conjuncts) {
      add(uc.lhs);
      add(uc.outer_key);
      add(uc.opaque);
    }
    for (auto& g : block->group_by) add(g);
    for (auto& agg : block->aggs) add(agg.call);
    add(block->corr_key);
    if (!block->is_aggregate) {
      // A plain SPJ block projects and sorts its input rows directly.
      for (auto& e : block->output_exprs) add(e);
      for (auto& key : block->order_by) add(key.expr);
    }

    const size_t width = streamed.num_fields();
    std::vector<bool> read(width, false);
    for (ExprPtr* root : roots) MarkStreamedColumns(**root, &read);
    for (size_t i = 0; i < width; ++i) {
      if (read[i]) block->scan_columns.push_back(static_cast<int>(i));
    }
    if (block->scan_columns.empty() && width > 0) {
      // COUNT(*)-only blocks: keep one column, the first fixed-width one, so
      // every chunk still knows its row count.
      size_t keep = 0;
      for (size_t i = width; i-- > 0;) {
        if (streamed.field(i).type != TypeId::kString) keep = i;
      }
      block->scan_columns.push_back(static_cast<int>(keep));
    }

    // Old position → new: scan columns first, then the dim columns, shifted.
    const auto& old_fields = block->input_schema->fields();
    std::vector<int> to(old_fields.size(), -1);
    std::vector<Field> fields;
    fields.reserve(block->scan_columns.size() + old_fields.size() - width);
    for (int col : block->scan_columns) {
      to[static_cast<size_t>(col)] = static_cast<int>(fields.size());
      fields.push_back(old_fields[static_cast<size_t>(col)]);
    }
    for (size_t i = width; i < old_fields.size(); ++i) {
      to[i] = static_cast<int>(fields.size());
      fields.push_back(old_fields[i]);
    }
    block->input_schema = std::make_shared<Schema>(std::move(fields));
    for (ExprPtr* root : roots) *root = Remapped(**root, to);
  }

  /// Marks the streamed columns `e` reads; dim columns sit past the mask.
  static void MarkStreamedColumns(const Expr& e, std::vector<bool>* read) {
    if (e.kind == ExprKind::kColumnRef && !e.from_outer_scope && e.column_index >= 0 &&
        static_cast<size_t>(e.column_index) < read->size()) {
      (*read)[static_cast<size_t>(e.column_index)] = true;
    }
    for (const auto& c : e.children) {
      if (c) MarkStreamedColumns(*c, read);
    }
  }

  /// A copy of `e` whose local column references address positions `to`.
  static ExprPtr Remapped(const Expr& e, const std::vector<int>& to) {
    auto out = std::make_shared<Expr>(e);
    if (out->kind == ExprKind::kColumnRef && !out->from_outer_scope &&
        out->column_index >= 0 && static_cast<size_t>(out->column_index) < to.size()) {
      out->column_index = to[static_cast<size_t>(out->column_index)];
    }
    for (auto& c : out->children) {
      if (c) c = Remapped(*c, to);
    }
    return out;
  }

  // --------------------------------------------------------- sort keys --
  Result<ExprPtr> BindSortKey(const AstExpr& ast, Scope* scope, BlockDef* block,
                              const std::vector<std::string>& item_names) {
    // Ordinal: ORDER BY 2.
    if (ast.kind == AstExprKind::kLiteral && ast.literal.type() == TypeId::kInt64) {
      int64_t ord = ast.literal.AsInt();
      if (ord < 1 || ord > static_cast<int64_t>(block->output_exprs.size())) {
        return Status::PlanError("ORDER BY ordinal out of range");
      }
      return block->output_exprs[static_cast<size_t>(ord - 1)]->Clone();
    }
    // Output alias.
    if (ast.kind == AstExprKind::kColumnRef) {
      for (size_t i = 0; i < item_names.size(); ++i) {
        if (EqualsIgnoreCase(item_names[i], ast.name)) {
          return block->output_exprs[i]->Clone();
        }
      }
    }
    // Arbitrary expression over the (post-)aggregation space.
    ConvertCtx ctx{scope, /*allow_aggregates=*/true, false};
    GOLA_ASSIGN_OR_RETURN(ExprPtr bound, ConvertExpr(ast, &ctx));
    if (block->is_aggregate) return RewritePostAgg(bound, block);
    return bound;
  }

  BlockDef* FindBlockMutable(int id) {
    for (auto& b : blocks_) {
      if (b.id == id) return &b;
    }
    return nullptr;
  }

  const Catalog& catalog_;
  std::vector<BlockDef> blocks_;
  int next_block_id_ = 0;
  // Set by ExtractCorrelation while binding an inner block; consumed by the
  // enclosing BindSelect when it creates the SubqueryRef.
  ExprPtr pending_outer_key_;
  std::unordered_map<int, ExprPtr> correlated_outer_keys_;

 public:
  // Called by BindSelect after planning a subquery to stash its outer key.
  void StashOuterKey(int id) {
    if (pending_outer_key_) {
      correlated_outer_keys_[id] = std::move(pending_outer_key_);
      pending_outer_key_ = nullptr;
    }
  }
};

}  // namespace

Result<CompiledQuery> BindQuery(const SelectStmt& stmt, const Catalog& catalog) {
  Binder binder(catalog);
  return binder.Bind(stmt);
}

}  // namespace gola
