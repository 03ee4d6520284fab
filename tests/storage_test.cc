// Value / Column / Schema / Chunk / Table behaviours, including the null
// mask, filtering/gather/slicing and the row-wise builder.
#include <gtest/gtest.h>

#include "storage/chunk.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace gola {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).type(), TypeId::kBool);
  EXPECT_EQ(Value::Int(4).AsInt(), 4);
  EXPECT_DOUBLE_EQ(Value::Float(2.5).AsFloat(), 2.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_TRUE(Value::Int(3) == Value::Float(3.0));
  EXPECT_FALSE(Value::Int(3) == Value::Float(3.5));
  EXPECT_EQ(Value::Int(3).Hash(), Value::Float(3.0).Hash());
}

TEST(ValueTest, OrderingNullsFirst) {
  EXPECT_TRUE(Value::Null() < Value::Int(-100));
  EXPECT_TRUE(Value::Int(1) < Value::Float(1.5));
  EXPECT_TRUE(Value::String("a") < Value::String("b"));
  EXPECT_FALSE(Value::Int(2) < Value::Int(2));
}

TEST(ValueTest, ToDouble) {
  EXPECT_DOUBLE_EQ(*Value::Int(7).ToDouble(), 7.0);
  EXPECT_DOUBLE_EQ(*Value::Bool(true).ToDouble(), 1.0);
  EXPECT_FALSE(Value::String("x").ToDouble().ok());
}

TEST(ColumnTest, AppendAndGet) {
  Column c(TypeId::kInt64);
  c.AppendInt(1);
  c.Append(Value::Int(2));
  c.AppendNull();
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.GetValue(0), Value::Int(1));
  EXPECT_TRUE(c.IsNull(2));
  EXPECT_TRUE(c.GetValue(2).is_null());
  EXPECT_DOUBLE_EQ(c.NumericAt(1), 2.0);
}

TEST(ColumnTest, NullMaskLazyAllocation) {
  Column c(TypeId::kFloat64);
  c.AppendFloat(1.0);
  EXPECT_FALSE(c.has_nulls());
  c.AppendNull();
  EXPECT_TRUE(c.has_nulls());
  EXPECT_FALSE(c.IsNull(0));
  EXPECT_TRUE(c.IsNull(1));
}

TEST(ColumnTest, FilterTakeSlice) {
  Column c = Column::MakeInt({10, 20, 30, 40, 50});
  Column f = c.Filter({1, 0, 1, 0, 1});
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f.ints()[1], 30);

  Column t = c.Take({4, 0, 2});
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t.ints()[0], 50);
  EXPECT_EQ(t.ints()[2], 30);

  Column s = c.Slice(1, 3);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.ints()[0], 20);
}

TEST(ColumnTest, FilterPreservesNulls) {
  Column c(TypeId::kFloat64);
  c.AppendFloat(1);
  c.AppendNull();
  c.AppendFloat(3);
  Column f = c.Filter({0, 1, 1});
  ASSERT_EQ(f.size(), 2u);
  EXPECT_TRUE(f.IsNull(0));
  EXPECT_FALSE(f.IsNull(1));
}

TEST(ColumnTest, AppendColumnTypeChecked) {
  Column a = Column::MakeInt({1});
  Column b = Column::MakeFloat({2.0});
  EXPECT_FALSE(a.AppendColumn(b).ok());
  Column c = Column::MakeInt({5, 6});
  ASSERT_TRUE(a.AppendColumn(c).ok());
  EXPECT_EQ(a.size(), 3u);
}

TEST(ColumnTest, AppendNullableDataToEmptyColumnKeepsMask) {
  // Regression: appending a nullable column into an empty one must not
  // materialize a zero-length mask that reads as "no nulls".
  Column dst(TypeId::kFloat64);
  Column src(TypeId::kFloat64);
  src.AppendFloat(1);
  src.AppendNull();
  ASSERT_TRUE(dst.AppendColumn(src).ok());
  ASSERT_TRUE(dst.has_nulls());
  EXPECT_FALSE(dst.IsNull(0));
  EXPECT_TRUE(dst.IsNull(1));
  // And appending non-nullable data afterwards keeps rows aligned.
  Column more = Column::MakeFloat({3.0});
  ASSERT_TRUE(dst.AppendColumn(more).ok());
  EXPECT_FALSE(dst.IsNull(2));
}

TEST(ColumnTest, MakeConstantBroadcast) {
  auto c = Column::MakeConstant(Value::Float(2.5), TypeId::kFloat64, 4);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->size(), 4u);
  EXPECT_DOUBLE_EQ(c->floats()[3], 2.5);
}

TEST(SchemaTest, CaseInsensitiveLookup) {
  Schema schema({{"Alpha", TypeId::kInt64}, {"beta", TypeId::kString}});
  EXPECT_EQ(*schema.FieldIndex("alpha"), 0);
  EXPECT_EQ(*schema.FieldIndex("BETA"), 1);
  EXPECT_FALSE(schema.FieldIndex("gamma").ok());
  EXPECT_TRUE(schema.HasField("Beta"));
}

SchemaPtr TwoColSchema() {
  return std::make_shared<Schema>(
      std::vector<Field>{{"id", TypeId::kInt64}, {"v", TypeId::kFloat64}});
}

TEST(ChunkTest, FilterCarriesSerials) {
  Chunk chunk(TwoColSchema(), {Column::MakeInt({1, 2, 3}),
                               Column::MakeFloat({1.5, 2.5, 3.5})});
  chunk.set_serials({100, 101, 102});
  Chunk f = chunk.Filter({1, 0, 1});
  ASSERT_EQ(f.num_rows(), 2u);
  EXPECT_EQ(f.serials()[1], 102);
  Chunk t = chunk.Take({2, 1});
  EXPECT_EQ(t.serials()[0], 102);
  Chunk s = chunk.Slice(1, 2);
  EXPECT_EQ(s.serials()[0], 101);
}

TEST(ChunkTest, AppendConcatenates) {
  Chunk a(TwoColSchema(), {Column::MakeInt({1}), Column::MakeFloat({1.0})});
  Chunk b(TwoColSchema(), {Column::MakeInt({2}), Column::MakeFloat({2.0})});
  ASSERT_TRUE(a.Append(b).ok());
  EXPECT_EQ(a.num_rows(), 2u);
  EXPECT_EQ(a.column(0).ints()[1], 2);
}

TEST(TableTest, BuilderChunksAndAt) {
  TableBuilder builder(TwoColSchema(), /*chunk_size=*/2);
  for (int i = 0; i < 5; ++i) {
    builder.AppendRow({Value::Int(i), Value::Float(i * 0.5)});
  }
  Table t = builder.Finish();
  EXPECT_EQ(t.num_rows(), 5);
  EXPECT_EQ(t.num_chunks(), 3u);  // 2 + 2 + 1
  EXPECT_EQ(t.At(4, 0), Value::Int(4));
  EXPECT_EQ(t.At(3, 1), Value::Float(1.5));
}

TEST(TableTest, CombinedAndRechunk) {
  TableBuilder builder(TwoColSchema(), 2);
  for (int i = 0; i < 6; ++i) builder.AppendRow({Value::Int(i), Value::Float(0)});
  Table t = builder.Finish();
  Chunk all = t.Combined();
  EXPECT_EQ(all.num_rows(), 6u);
  Table re = t.Rechunk(4);
  EXPECT_EQ(re.num_chunks(), 2u);
  EXPECT_EQ(re.num_rows(), 6);
  EXPECT_EQ(re.At(5, 0), Value::Int(5));
}

TEST(TableTest, CopiesShareChunksUntilAppend) {
  auto schema = std::make_shared<Schema>(std::vector<Field>{{"id", TypeId::kInt64}});
  TableBuilder builder(schema, 4);
  for (int64_t i = 0; i < 10; ++i) builder.AppendRow({Value::Int(i)});
  Table a = builder.Finish();
  Table b = a;
  EXPECT_EQ(&a.chunk(0), &b.chunk(0));  // O(1) copy: same chunk storage
  b.AppendChunk(Chunk(schema, {Column::MakeInt({10, 11})}));
  EXPECT_EQ(a.num_rows(), 10);
  EXPECT_EQ(b.num_rows(), 12);
  EXPECT_EQ(a.num_chunks(), 3u);
  EXPECT_EQ(b.num_chunks(), 4u);
  EXPECT_EQ(b.At(11, 0).AsInt(), 11);
}

}  // namespace
}  // namespace gola
