// Binder / lineage-block compilation: block shapes, subquery lifting,
// correlation detection, conjunct classification and the error surface.
#include "plan/binder.h"

#include <gtest/gtest.h>

#include "parser/parser.h"
#include "workload/conviva_gen.h"
#include "workload/queries.h"
#include "workload/tpch_gen.h"

namespace gola {
namespace {

class BinderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fact = std::make_shared<Schema>(std::vector<Field>{
        {"k", TypeId::kInt64},
        {"grp", TypeId::kInt64},
        {"x", TypeId::kFloat64},
        {"y", TypeId::kFloat64},
        {"name", TypeId::kString},
    });
    catalog_.RegisterTable("fact", std::make_shared<Table>(Table(fact)));
    auto dim = std::make_shared<Schema>(std::vector<Field>{
        {"dk", TypeId::kInt64}, {"label", TypeId::kString}});
    catalog_.RegisterTable("dim", std::make_shared<Table>(Table(dim)));
  }

  Result<CompiledQuery> Bind(const std::string& sql) {
    auto stmt = ParseSql(sql);
    if (!stmt.ok()) return stmt.status();
    return BindQuery(**stmt, catalog_);
  }

  Catalog catalog_;
};

TEST_F(BinderTest, SimpleAggregateBlock) {
  auto q = Bind("SELECT AVG(x) FROM fact WHERE y > 0");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->blocks.size(), 1u);
  const BlockDef& root = q->root();
  EXPECT_EQ(root.kind, BlockKind::kRoot);
  EXPECT_TRUE(root.is_aggregate);
  EXPECT_EQ(root.certain_conjuncts.size(), 1u);
  EXPECT_TRUE(root.uncertain_conjuncts.empty());
  ASSERT_EQ(root.aggs.size(), 1u);
  EXPECT_EQ(root.aggs[0].call->agg_kind, AggKind::kAvg);
}

TEST_F(BinderTest, SubqueryLiftedIntoScalarBlock) {
  auto q = Bind("SELECT AVG(x) FROM fact WHERE y > (SELECT AVG(y) FROM fact)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->blocks.size(), 2u);
  EXPECT_EQ(q->blocks[0].kind, BlockKind::kScalar);
  EXPECT_EQ(q->blocks[0].id, 0);
  const BlockDef& root = q->root();
  ASSERT_EQ(root.uncertain_conjuncts.size(), 1u);
  const UncertainConjunct& uc = root.uncertain_conjuncts[0];
  EXPECT_EQ(uc.form, UncertainConjunct::Form::kScalarCmp);
  EXPECT_EQ(uc.cmp, CmpOp::kGt);
  EXPECT_EQ(uc.subquery_id, 0);
  EXPECT_EQ(uc.outer_key, nullptr);
  EXPECT_EQ(root.depends_on, std::vector<int>{0});
}

TEST_F(BinderTest, FlippedComparisonNormalized) {
  // Subquery on the left side must normalize to lhs-op-subquery form.
  auto q = Bind("SELECT COUNT(*) FROM fact WHERE (SELECT AVG(y) FROM fact) < y");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const UncertainConjunct& uc = q->root().uncertain_conjuncts[0];
  EXPECT_EQ(uc.form, UncertainConjunct::Form::kScalarCmp);
  EXPECT_EQ(uc.cmp, CmpOp::kGt);  // y > subquery
}

TEST_F(BinderTest, CorrelationDetected) {
  auto q = Bind(
      "SELECT COUNT(*) FROM fact f "
      "WHERE x > (SELECT AVG(x) FROM fact t WHERE t.grp = f.grp)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const BlockDef& inner = q->blocks[0];
  ASSERT_NE(inner.corr_key, nullptr);
  ASSERT_EQ(inner.group_by.size(), 1u);  // implicit group-by the corr key
  const UncertainConjunct& uc = q->root().uncertain_conjuncts[0];
  ASSERT_NE(uc.outer_key, nullptr);
  EXPECT_EQ(uc.outer_key->column_name, "f.grp");
}

TEST_F(BinderTest, MembershipBlock) {
  auto q = Bind(
      "SELECT COUNT(*) FROM fact WHERE grp IN "
      "(SELECT grp FROM fact GROUP BY grp HAVING SUM(x) > 100)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const BlockDef& inner = q->blocks[0];
  EXPECT_EQ(inner.kind, BlockKind::kMembership);
  EXPECT_EQ(inner.membership_key_index, 0);
  EXPECT_EQ(inner.having_certain.size(), 1u);
  const UncertainConjunct& uc = q->root().uncertain_conjuncts[0];
  EXPECT_EQ(uc.form, UncertainConjunct::Form::kMembership);
}

TEST_F(BinderTest, AffineWrappersPeeledIntoBareForm) {
  // Affine transforms of the subquery value normalize to the bare form so
  // range classification applies: x > 1.5*S  ⇔  x/1.5 > S.
  for (const char* sql : {
           "SELECT COUNT(*) FROM fact WHERE x > 1.5 * (SELECT AVG(x) FROM fact)",
           "SELECT COUNT(*) FROM fact WHERE x > (SELECT AVG(x) FROM fact) / 2",
           "SELECT COUNT(*) FROM fact WHERE x < (SELECT AVG(x) FROM fact) + 10",
           "SELECT COUNT(*) FROM fact WHERE x < 3 + 2 * (SELECT AVG(x) FROM fact)",
       }) {
    auto q = Bind(sql);
    ASSERT_TRUE(q.ok()) << sql << ": " << q.status().ToString();
    ASSERT_EQ(q->root().uncertain_conjuncts.size(), 1u) << sql;
    EXPECT_EQ(q->root().uncertain_conjuncts[0].form,
              UncertainConjunct::Form::kScalarCmp)
        << sql;
  }
}

TEST_F(BinderTest, NegativeMultiplierFlipsComparison) {
  auto q = Bind("SELECT COUNT(*) FROM fact WHERE x > -2 * (SELECT AVG(x) FROM fact)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const UncertainConjunct& uc = q->root().uncertain_conjuncts[0];
  ASSERT_EQ(uc.form, UncertainConjunct::Form::kScalarCmp);
  EXPECT_EQ(uc.cmp, CmpOp::kLt);  // dividing by a negative flips >
}

TEST_F(BinderTest, OpaqueConjunctFallback) {
  // A non-affine wrapper (function call) around the subquery stays opaque
  // (still executable with point estimates, always-uncertain online).
  auto q = Bind("SELECT COUNT(*) FROM fact WHERE x > abs((SELECT AVG(x) FROM fact))");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->root().uncertain_conjuncts[0].form, UncertainConjunct::Form::kOpaque);
}

TEST_F(BinderTest, HavingWithSubqueryIsUncertain) {
  auto q = Bind(
      "SELECT grp, SUM(x) AS v FROM fact GROUP BY grp "
      "HAVING SUM(x) > (SELECT SUM(x) * 0.1 FROM fact)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(q->root().having_certain.empty());
  ASSERT_EQ(q->root().having_uncertain.size(), 1u);
}

TEST_F(BinderTest, HavingAddsAggSlots) {
  // The HAVING aggregate is not in the select list: it must get its own
  // slot and the post-agg schema must cover it.
  auto q = Bind("SELECT grp FROM fact GROUP BY grp HAVING AVG(y) > 1");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->root().aggs.size(), 1u);
  EXPECT_EQ(q->root().post_agg_schema->num_fields(), 2u);
}

TEST_F(BinderTest, DuplicateAggregatesShareSlot) {
  auto q = Bind("SELECT SUM(x), SUM(x) + 1 FROM fact");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->root().aggs.size(), 1u);
}

TEST_F(BinderTest, DimensionJoinPlanned) {
  auto q = Bind("SELECT AVG(x) FROM fact, dim WHERE k = dk AND label = 'a'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const BlockDef& root = q->root();
  ASSERT_EQ(root.dim_joins.size(), 1u);
  EXPECT_EQ(root.dim_joins[0].table, "dim");
  // Input layout = the fact columns the block reads (k, x), then every dim
  // column (dk, label); each reference addresses its new position.
  EXPECT_EQ(root.scan_columns, (std::vector<int>{0, 2}));
  ASSERT_EQ(root.input_schema->num_fields(), 4u);
  EXPECT_EQ(root.input_schema->field(1).name, "x");
  EXPECT_EQ(root.input_schema->field(3).name, "label");
  EXPECT_EQ(root.dim_joins[0].probe_key->column_index, 0);
  EXPECT_EQ(root.dim_joins[0].build_key->column_index, 0);
  ASSERT_EQ(root.certain_conjuncts.size(), 1u);  // the label filter
  EXPECT_EQ(root.certain_conjuncts[0]->children[0]->column_index, 3);
  EXPECT_EQ(root.aggs[0].call->children[0]->column_index, 1);
}

TEST_F(BinderTest, BlockThatReadsNoColumnKeepsOne) {
  // COUNT(*) reads nothing, but its chunks must keep their row count: the
  // first fixed-width column stays.
  auto q = Bind("SELECT COUNT(*) FROM fact WHERE x > (SELECT COUNT(*) FROM fact)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->blocks[0].scan_columns, std::vector<int>{0});
  EXPECT_EQ(q->root().scan_columns, std::vector<int>{2});
  auto names = std::make_shared<Schema>(std::vector<Field>{
      {"s", TypeId::kString}, {"t", TypeId::kString}, {"n", TypeId::kInt64}});
  catalog_.RegisterTable("names", std::make_shared<Table>(Table(names)));
  auto s = Bind("SELECT COUNT(*) FROM names");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(s->root().scan_columns, std::vector<int>{2});
}

TEST_F(BinderTest, PostAggregationTreesKeepTheirPositions) {
  // The select item, ORDER BY and HAVING address the post-aggregation
  // chunk ([grp, agg0, agg1]); pruning the input layout leaves them alone.
  auto q = Bind(
      "SELECT grp, SUM(y) AS s FROM fact WHERE name = 'a' GROUP BY grp "
      "HAVING AVG(y) > 1 ORDER BY s DESC");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const BlockDef& root = q->root();
  EXPECT_EQ(root.scan_columns, (std::vector<int>{1, 3, 4}));
  EXPECT_EQ(root.group_by[0]->column_index, 0);              // grp
  EXPECT_EQ(root.aggs[0].call->children[0]->column_index, 1);  // y
  EXPECT_EQ(root.certain_conjuncts[0]->children[0]->column_index, 2);  // name
  EXPECT_EQ(root.output_exprs[1]->column_index, 1);          // agg0 slot
  EXPECT_EQ(root.order_by[0].expr->column_index, 1);
  EXPECT_EQ(root.having_certain[0]->children[0]->column_index, 2);  // agg1 slot
}

TEST_F(BinderTest, LibraryBlocksScanOnlyTheColumnsTheyRead) {
  ConvivaGenOptions conviva;
  conviva.num_rows = 16;
  catalog_.RegisterTable("conviva", std::make_shared<Table>(GenerateConviva(conviva)));
  TpchGenOptions tpch;
  tpch.num_rows = 16;
  catalog_.RegisterTable("tpch", std::make_shared<Table>(GenerateTpch(tpch)));
  // EXPLAIN's "scan=table(columns...)" of every block, inner blocks first.
  auto scans = [this](const std::string& sql) {
    std::vector<std::string> out;
    auto q = Bind(sql);
    if (!q.ok()) {
      ADD_FAILURE() << sql << ": " << q.status().ToString();
      return out;
    }
    for (const BlockDef& block : q->blocks) {
      const std::string text = block.ToString();
      const size_t begin = text.find("scan=");
      out.push_back(text.substr(begin, text.find(')', begin) + 1 - begin));
    }
    return out;
  };
  using Scans = std::vector<std::string>;
  EXPECT_EQ(scans(SbiQuery()),
            (Scans{"scan=conviva(buffer_time)", "scan=conviva(buffer_time, play_time)"}));
  EXPECT_EQ(scans(C3Query()), (Scans{"scan=conviva(ad_id, buffer_time)",
                                     "scan=conviva(ad_id, buffer_time, play_time)"}));
  EXPECT_EQ(scans(Q17Query()),
            (Scans{"scan=tpch(partkey, quantity)",
                   "scan=tpch(partkey, quantity, extendedprice, container)"}));
  EXPECT_EQ(scans(Q18Query()), (Scans{"scan=tpch(quantity)", "scan=tpch(custkey, quantity)",
                                      "scan=tpch(custkey, quantity)"}));
  EXPECT_EQ(scans(Q20Query()), (Scans{"scan=tpch(partkey, quantity)",
                                      "scan=tpch(partkey, suppkey, availqty, shipdate)"}));
}

TEST_F(BinderTest, OrderByOrdinalAndAlias) {
  auto q = Bind("SELECT grp, SUM(x) AS v FROM fact GROUP BY grp ORDER BY 2 DESC, v");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->root().order_by.size(), 2u);
}

// ------------------------------------------------------------ errors ----

TEST_F(BinderTest, ColumnNotInGroupByRejected) {
  auto q = Bind("SELECT y, SUM(x) FROM fact GROUP BY grp");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("GROUP BY"), std::string::npos);
}

TEST_F(BinderTest, AggregateInWhereRejected) {
  EXPECT_FALSE(Bind("SELECT 1 FROM fact WHERE SUM(x) > 3").ok());
}

TEST_F(BinderTest, ScalarSubqueryMustSelectOneItem) {
  EXPECT_FALSE(Bind("SELECT 1 FROM fact WHERE x > (SELECT x, y FROM fact)").ok());
}

TEST_F(BinderTest, UnknownTableAndColumn) {
  EXPECT_EQ(Bind("SELECT 1 FROM nothere").status().code(), StatusCode::kKeyError);
  EXPECT_EQ(Bind("SELECT nope FROM fact").status().code(), StatusCode::kKeyError);
}

TEST_F(BinderTest, AmbiguousColumnRejected) {
  auto other = std::make_shared<Schema>(std::vector<Field>{
      {"k", TypeId::kInt64}, {"x", TypeId::kFloat64}});
  catalog_.RegisterTable("other", std::make_shared<Table>(Table(other)));
  auto q = Bind("SELECT AVG(x) FROM fact, other WHERE fact.k = other.k");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("ambiguous"), std::string::npos);
}

TEST_F(BinderTest, CartesianProductRejected) {
  EXPECT_FALSE(Bind("SELECT COUNT(*) FROM fact, dim").ok());
}

TEST_F(BinderTest, HavingWithoutAggregationRejected) {
  EXPECT_FALSE(Bind("SELECT x FROM fact HAVING x > 1").ok());
}

TEST_F(BinderTest, TypeErrorsSurface) {
  EXPECT_EQ(Bind("SELECT name + 1 FROM fact").status().code(), StatusCode::kTypeError);
  EXPECT_EQ(Bind("SELECT 1 FROM fact WHERE name > 3").status().code(),
            StatusCode::kTypeError);
  EXPECT_EQ(Bind("SELECT SUM(name) FROM fact").status().code(), StatusCode::kTypeError);
}

}  // namespace
}  // namespace gola
