// Physical operator units: dimension hash join, group aggregation (fold,
// merge, finalize), and sorting.
#include <gtest/gtest.h>

#include "common/logging.h"
#include "exec/group_arena.h"
#include "exec/hash_join.h"
#include "exec/sort.h"
#include "parser/parser.h"
#include "plan/binder.h"

namespace gola {
namespace {

TEST(HashJoinTest, InnerJoinSemantics) {
  auto dim_schema = std::make_shared<Schema>(
      std::vector<Field>{{"dk", TypeId::kInt64}, {"label", TypeId::kString}});
  TableBuilder dim_builder(dim_schema);
  dim_builder.AppendRow({Value::Int(1), Value::String("one")});
  dim_builder.AppendRow({Value::Int(2), Value::String("two")});
  dim_builder.AppendRow({Value::Int(2), Value::String("dos")});  // duplicate key
  Table dim = dim_builder.Finish();

  ExprPtr build_key = Expr::Col("dk");
  build_key->column_index = 0;
  build_key->type = TypeId::kInt64;
  auto table = DimHashTable::Build(dim, *build_key);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_keys(), 2u);

  auto probe_schema = std::make_shared<Schema>(
      std::vector<Field>{{"k", TypeId::kInt64}, {"v", TypeId::kFloat64}});
  Chunk probe(probe_schema,
              {Column::MakeInt({2, 3, 1}), Column::MakeFloat({0.2, 0.3, 0.1})});
  probe.set_serials({100, 101, 102});

  ExprPtr probe_key = Expr::Col("k");
  probe_key->column_index = 0;
  probe_key->type = TypeId::kInt64;
  auto out_schema = std::make_shared<Schema>(std::vector<Field>{
      {"k", TypeId::kInt64}, {"v", TypeId::kFloat64},
      {"dk", TypeId::kInt64}, {"label", TypeId::kString}});
  auto joined = table->Probe(probe, *probe_key, out_schema);
  ASSERT_TRUE(joined.ok());
  // Key 2 fans out to two rows, key 3 drops, key 1 matches once.
  ASSERT_EQ(joined->num_rows(), 3u);
  EXPECT_EQ(joined->column(3).strings()[0], "two");
  EXPECT_EQ(joined->column(3).strings()[1], "dos");
  EXPECT_EQ(joined->column(3).strings()[2], "one");
  // Serials follow the probe rows.
  EXPECT_EQ(joined->serials()[0], 100);
  EXPECT_EQ(joined->serials()[1], 100);
  EXPECT_EQ(joined->serials()[2], 102);
}

TEST(HashJoinTest, NullKeysNeverMatch) {
  auto dim_schema =
      std::make_shared<Schema>(std::vector<Field>{{"dk", TypeId::kInt64}});
  Column dk(TypeId::kInt64);
  dk.AppendInt(1);
  dk.AppendNull();
  Table dim(dim_schema, {Chunk(dim_schema, {std::move(dk)})});
  ExprPtr key = Expr::Col("dk");
  key->column_index = 0;
  key->type = TypeId::kInt64;
  auto table = DimHashTable::Build(dim, *key);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_keys(), 1u);
}

class GroupAggregateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = std::make_shared<Schema>(
        std::vector<Field>{{"g", TypeId::kInt64}, {"v", TypeId::kFloat64}});
    catalog_.RegisterTable("t", std::make_shared<Table>(Table(schema)));
    auto stmt = ParseSql("SELECT g, SUM(v), COUNT(*) FROM t GROUP BY g");
    GOLA_CHECK(stmt.ok());
    auto q = BindQuery(**stmt, catalog_);
    GOLA_CHECK(q.ok());
    query_ = std::make_unique<CompiledQuery>(std::move(*q));
    schema_ = schema;
  }

  Chunk MakeChunk(std::vector<int64_t> groups, std::vector<double> values) {
    return Chunk(schema_, {Column::MakeInt(std::move(groups)),
                           Column::MakeFloat(std::move(values))});
  }

  Catalog catalog_;
  std::unique_ptr<CompiledQuery> query_;
  SchemaPtr schema_;
};

/// Folds `chunk` into `agg` as one morsel: a tile, then the merge.
void Fold(GroupAggregate* agg, const Chunk& chunk) {
  GroupArena tile;
  ASSERT_TRUE(agg->FoldTileOf(chunk, nullptr, &tile).ok());
  agg->MergeTile(tile);
}

TEST_F(GroupAggregateTest, GroupsAndScale) {
  GroupAggregate agg(&query_->root(), /*weights=*/nullptr);
  // Group 2 occurs first.
  Fold(&agg, MakeChunk({2, 1, 1, 1}, {20, 10, 30, 40}));
  EXPECT_EQ(agg.num_groups(), 2u);
  Chunk post = agg.Finalize(2.0);
  ASSERT_EQ(post.num_rows(), 2u);
  // Groups come out in key order, not first-occurrence order.
  EXPECT_EQ(post.column(0).GetValue(0).AsInt(), 1);
  EXPECT_EQ(post.column(0).GetValue(1).AsInt(), 2);
  for (size_t i = 0; i < 2; ++i) {
    int64_t g = post.column(0).GetValue(i).AsInt();
    double sum = post.column(1).NumericAt(i);
    double cnt = post.column(2).NumericAt(i);
    if (g == 1) {
      EXPECT_DOUBLE_EQ(sum, 80 * 2.0);  // SUM scales
      EXPECT_DOUBLE_EQ(cnt, 3 * 2.0);   // COUNT scales
    } else {
      EXPECT_DOUBLE_EQ(sum, 40.0);
    }
  }
}

TEST_F(GroupAggregateTest, MergeCombinesDisjointPartitions) {
  GroupAggregate agg(&query_->root(), /*weights=*/nullptr);
  Fold(&agg, MakeChunk({1, 2}, {1, 2}));
  Fold(&agg, MakeChunk({2, 3}, {20, 30}));
  EXPECT_EQ(agg.num_groups(), 3u);
  Chunk post = agg.Finalize(1.0);
  for (size_t i = 0; i < post.num_rows(); ++i) {
    if (post.column(0).GetValue(i).AsInt() == 2) {
      EXPECT_DOUBLE_EQ(post.column(1).NumericAt(i), 22.0);
    }
  }
}

TEST(SortTest, MultiKeyWithDirections) {
  Column a = Column::MakeInt({1, 2, 1, 2});
  Column b = Column::MakeFloat({5, 6, 7, 8});
  auto idx = SortIndices({a, b}, {false, true});  // a asc, b desc
  ASSERT_EQ(idx.size(), 4u);
  // a=1 rows first with b desc: row2 (b=7) then row0 (b=5).
  EXPECT_EQ(idx[0], 2);
  EXPECT_EQ(idx[1], 0);
  EXPECT_EQ(idx[2], 3);
  EXPECT_EQ(idx[3], 1);
}

TEST(SortTest, NullsFirstAscending) {
  Column a(TypeId::kFloat64);
  a.AppendFloat(2);
  a.AppendNull();
  a.AppendFloat(1);
  auto idx = SortIndices({a}, {false});
  EXPECT_EQ(idx[0], 1);  // NULL first
  EXPECT_EQ(idx[1], 2);
  EXPECT_EQ(idx[2], 0);
}

TEST(SortTest, LimitAppliedAfterSort) {
  auto schema = std::make_shared<Schema>(std::vector<Field>{{"v", TypeId::kInt64}});
  Chunk chunk(schema, {Column::MakeInt({3, 1, 2})});
  auto sorted = SortChunk(chunk, {chunk.column(0)}, {false}, 2);
  ASSERT_TRUE(sorted.ok());
  ASSERT_EQ(sorted->num_rows(), 2u);
  EXPECT_EQ(sorted->column(0).ints()[0], 1);
  EXPECT_EQ(sorted->column(0).ints()[1], 2);
}

}  // namespace
}  // namespace gola
