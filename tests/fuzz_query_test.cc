// Randomized query fuzzing: generate structurally random (but valid)
// nested-aggregate queries over random data and assert the per-batch
// online-equals-batch invariant on every one. Complements the hand-picked
// templates in property_test.cc with combinatorial coverage of predicate
// shapes, comparison operators, aggregate kinds and grouping.
#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "common/string_util.h"
#include "gola/gola.h"

namespace gola {
namespace {

Table MakeData(int64_t n, uint64_t seed) {
  Rng rng(seed);
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"g1", TypeId::kInt64},
      {"g2", TypeId::kInt64},
      {"a", TypeId::kFloat64},
      {"b", TypeId::kFloat64},
      {"c", TypeId::kFloat64},
  });
  TableBuilder builder(schema, 200);
  for (int64_t i = 0; i < n; ++i) {
    builder.AppendRow({Value::Int(rng.UniformInt(1, 4)), Value::Int(rng.UniformInt(1, 7)),
                       Value::Float(rng.LogNormal(1.5, 0.6)),
                       Value::Float(rng.Normal(40, 12)),
                       Value::Float(rng.UniformDouble(0, 100))});
  }
  return builder.Finish();
}

/// Builds one random query from composable pieces.
std::string RandomQuery(Rng* rng) {
  const char* measures[] = {"a", "b", "c"};
  const char* aggs[] = {"AVG", "SUM", "MIN", "MAX", "COUNT", "STDDEV"};
  const char* cmps[] = {">", "<", ">=", "<="};
  auto measure = [&] { return measures[rng->NextBelow(3)]; };
  auto agg = [&] { return aggs[rng->NextBelow(6)]; };

  std::string select;
  std::string group;
  if (rng->Bernoulli(0.5)) {
    const char* key = rng->Bernoulli(0.5) ? "g1" : "g2";
    select = Format("SELECT %s, %s(%s) AS m", key, agg(), measure());
    group = Format(" GROUP BY %s ORDER BY %s", key, key);
  } else {
    select = Format("SELECT %s(%s) AS m, COUNT(*) AS n", agg(), measure());
  }

  // 1-2 uncertain conjuncts; each compares a measure with a (possibly
  // correlated, possibly affine-wrapped) nested aggregate.
  int num_preds = 1 + static_cast<int>(rng->NextBelow(2));
  std::string where;
  for (int p = 0; p < num_preds; ++p) {
    const char* lhs = measure();
    const char* inner_measure = measure();
    const char* inner_agg = rng->Bernoulli(0.7) ? "AVG" : "SUM";
    std::string sub;
    if (rng->Bernoulli(0.4)) {
      const char* key = rng->Bernoulli(0.5) ? "g1" : "g2";
      sub = Format("(SELECT %s(%s) FROM d u WHERE u.%s = d.%s)", inner_agg,
                   inner_measure, key, key);
    } else {
      sub = Format("(SELECT %s(%s) FROM d)", inner_agg, inner_measure);
    }
    if (rng->Bernoulli(0.3)) {
      sub = Format("%.2f * %s", rng->UniformDouble(0.5, 1.5), sub.c_str());
    }
    where += Format("%s %s %s %s", p == 0 ? " WHERE" : " AND", lhs,
                    cmps[rng->NextBelow(4)], sub.c_str());
  }
  return select + " FROM d d" + where + group;
}

TEST(FuzzQueryTest, OnlineMatchesBatchOnRandomQueries) {
  const int kQueries = 25;
  Rng rng(20260705);
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("d", MakeData(1200, 55)));
  BatchExecutor batch(&engine.catalog());

  int executed = 0;
  for (int q = 0; q < kQueries; ++q) {
    std::string sql = RandomQuery(&rng);
    SCOPED_TRACE(sql);
    auto compiled = engine.Compile(sql);
    ASSERT_TRUE(compiled.ok()) << sql << ": " << compiled.status().ToString();

    GolaOptions opts;
    opts.num_batches = 5;
    opts.bootstrap_replicates = 20;
    opts.seed = 1000 + static_cast<uint64_t>(q);
    auto online = engine.ExecuteOnline(sql, opts);
    ASSERT_TRUE(online.ok()) << sql << ": " << online.status().ToString();

    TablePtr table = *engine.GetTable("d");
    MiniBatchOptions part_opts;
    part_opts.num_batches = opts.num_batches;
    part_opts.seed = opts.seed;
    MiniBatchPartitioner partitioner(*table, part_opts);

    while (!(*online)->done()) {
      auto update = (*online)->Step();
      ASSERT_TRUE(update.ok()) << sql << ": " << update.status().ToString();
      BatchExecOptions bopts;
      bopts.scale = update->scale;
      auto expected = batch.ExecuteOnChunks(
          *compiled, "d", partitioner.BatchesSharedUpTo(update->batch_index), bopts);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      ASSERT_EQ(update->result.num_rows(), expected->num_rows())
          << sql << " @batch " << update->batch_index;
      for (int64_t r = 0; r < expected->num_rows(); ++r) {
        for (size_t c = 0; c < expected->schema()->num_fields(); ++c) {
          Value got = update->result.At(r, static_cast<int>(c));
          Value want = expected->At(r, static_cast<int>(c));
          if (want.is_null()) {
            ASSERT_TRUE(got.is_null()) << sql;
            continue;
          }
          double dg = got.ToDouble().ValueOr(1e100);
          double dw = want.ToDouble().ValueOr(-1e100);
          ASSERT_NEAR(dg, dw, 1e-8 * (1 + std::fabs(dw)))
              << sql << " @batch " << update->batch_index << " row " << r
              << " col " << c;
        }
      }
    }
    ++executed;
  }
  EXPECT_EQ(executed, kQueries);
}

}  // namespace
}  // namespace gola
