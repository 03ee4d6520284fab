// KeyIndex against a Value::operator== oracle that skips NULL: randomized
// key columns of every type (NULLs, NaN and ±0.0 among the floats), indexed
// and then probed by columns of the same type and of the other numeric type,
// whole or through a selection.
#include "exec/kernels/key_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "support/boxed_key_map.h"

namespace gola {
namespace {

constexpr uint32_t kNone = KeyIndex::kNone;

/// n random keys of `type` from a small domain, so keys repeat; a tenth are
/// NULL. Floats are halves in [-10, 10] plus NaN, -0.0 and 0.0, so an int
/// column finds some of them and misses others.
Column RandomKeys(TypeId type, size_t n, uint64_t seed) {
  Rng rng(seed);
  Column c(type);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.1)) {
      c.AppendNull();
      continue;
    }
    switch (type) {
      case TypeId::kBool: c.AppendBool(rng.Bernoulli(0.5)); break;
      case TypeId::kInt64: c.AppendInt(rng.UniformInt(-20, 20)); break;
      case TypeId::kFloat64: {
        const int64_t pick = rng.UniformInt(0, 43);
        if (pick == 41) c.AppendFloat(std::numeric_limits<double>::quiet_NaN());
        else if (pick == 42) c.AppendFloat(-0.0);
        else if (pick == 43) c.AppendFloat(0.0);
        else c.AppendFloat(0.5 * static_cast<double>(pick - 20));
        break;
      }
      case TypeId::kString:
        c.AppendString(std::to_string(rng.UniformInt(0, 30)) + "s");
        break;
      default: break;
    }
  }
  return c;
}

/// The id a one-key probe finds.
uint32_t Find(const KeyIndex& index, const Value& key) {
  if (key.is_null()) return kNone;
  Column one(key.type());
  one.Append(key);
  std::vector<uint32_t> ids;
  index.Probe(one, nullptr, &ids);
  return ids[0];
}

class KeyIndexTypesTest : public ::testing::TestWithParam<TypeId> {};

// The oracle is the boxed map the index replaced: Value::operator== through
// ValueHash, with NULL and NaN keys never indexed (the domains are small, so
// ValueHash agrees with operator== on every int and float pair here).
TEST_P(KeyIndexTypesTest, InsertAndProbeMatchTheBoxedMap) {
  const TypeId type = GetParam();
  Column keys = RandomKeys(type, 3000, 11);
  KeyIndex index;
  std::vector<uint32_t> ids;
  index.Insert(keys, nullptr, &ids);
  oracle::BoxedKeyMap boxed;
  ASSERT_EQ(ids.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const Value v = keys.GetValue(i);
    ASSERT_EQ(ids[i], boxed.Insert(v)) << "row " << i << " key " << v.ToString();
    if (ids[i] != kNone) {
      EXPECT_TRUE(index.KeyAt(ids[i]) == v) << "row " << i;
    }
  }
  ASSERT_EQ(index.size(), boxed.size());
  ASSERT_EQ(index.keys().size(), index.size());

  // Probes of the same type and, for a numeric index, of the other numeric
  // type; whole columns and every third row.
  std::vector<TypeId> probe_types = {type};
  if (type == TypeId::kInt64) probe_types.push_back(TypeId::kFloat64);
  if (type == TypeId::kFloat64) probe_types.push_back(TypeId::kInt64);
  for (TypeId probe_type : probe_types) {
    SCOPED_TRACE(TypeIdToString(probe_type));
    Column probe = RandomKeys(probe_type, 2000, 12);
    std::vector<uint32_t> got;
    index.Probe(probe, nullptr, &got);
    std::vector<uint32_t> want;
    boxed.Probe(probe, &want);
    ASSERT_EQ(got, want);
    const size_t found = got.size() - std::count(got.begin(), got.end(), kNone);
    EXPECT_GT(found, 0u);
    EXPECT_LT(found, probe.size());

    std::vector<uint32_t> sel;
    for (uint32_t i = 2; i < probe.size(); i += 3) sel.push_back(i);
    index.Probe(probe, &sel, &got);
    ASSERT_EQ(got.size(), sel.size());
    for (size_t k = 0; k < sel.size(); ++k) {
      ASSERT_EQ(got[k], want[sel[k]]) << "selected row " << sel[k];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKeyTypes, KeyIndexTypesTest,
                         ::testing::Values(TypeId::kInt64, TypeId::kFloat64,
                                           TypeId::kString, TypeId::kBool));

TEST(KeyIndexTest, EqualityFollowsValueExceptForNull) {
  KeyIndex ints;
  ints.Insert(Column::MakeInt({1, 7, -3}), nullptr, nullptr);
  EXPECT_EQ(Find(ints, Value::Float(1.0)), 0u);  // widened: 1 == 1.0
  EXPECT_EQ(Find(ints, Value::Float(7.5)), kNone);
  EXPECT_EQ(Find(ints, Value::Int(-3)), 2u);
  EXPECT_EQ(Find(ints, Value::String("1")), kNone);
  EXPECT_EQ(Find(ints, Value::Bool(true)), kNone);
  EXPECT_EQ(Find(ints, Value::Null()), kNone);

  KeyIndex floats;
  EXPECT_EQ(floats.Insert(Value::Float(-0.0)), 0u);
  EXPECT_EQ(floats.Insert(Value::Float(0.0)), 0u);  // -0.0 == 0.0
  EXPECT_EQ(floats.Insert(Value::Float(std::nan(""))), kNone);
  EXPECT_EQ(floats.Insert(Value::Null()), kNone);
  EXPECT_EQ(floats.Insert(Value::Float(2.0)), 1u);
  EXPECT_EQ(Find(floats, Value::Int(0)), 0u);
  EXPECT_EQ(Find(floats, Value::Int(2)), 1u);
  EXPECT_EQ(Find(floats, Value::Float(std::nan(""))), kNone);
  EXPECT_EQ(floats.size(), 2u);

  // An index holds one type: a key of another one is not indexed.
  EXPECT_EQ(floats.Insert(Value::Int(5)), kNone);
  EXPECT_EQ(floats.Insert(Value::String("x")), kNone);
  EXPECT_EQ(floats.size(), 2u);

  KeyIndex empty;
  std::vector<uint32_t> ids;
  empty.Probe(Column::MakeInt({1, 2}), nullptr, &ids);
  EXPECT_EQ(ids, (std::vector<uint32_t>{kNone, kNone}));
}

TEST(KeyIndexTest, IdsStayDenseAcrossGrowth) {
  // Far more keys than the initial table: every rehash keeps ids and finds.
  std::vector<int64_t> values(100000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int64_t>(i * 7919 % 100003) - 50000;
  }
  KeyIndex index;
  std::vector<uint32_t> ids;
  index.Insert(Column::MakeInt(values), nullptr, &ids);
  ASSERT_EQ(index.size(), values.size());
  for (size_t i = 0; i < ids.size(); ++i) ASSERT_EQ(ids[i], i);
  std::vector<uint32_t> again;
  index.Probe(Column::MakeInt(values), nullptr, &again);
  EXPECT_EQ(again, ids);
  index.Insert(Column::MakeInt({values[5], 1 << 20}), nullptr, &ids);
  EXPECT_EQ(ids, (std::vector<uint32_t>{5u, static_cast<uint32_t>(values.size())}));
}

}  // namespace
}  // namespace gola
