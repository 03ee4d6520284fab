// Property-based sweeps (TEST_P): for random datasets, seeds and batch
// counts, the online engine's answer after *every* mini-batch must equal
// Q(D_i, k/i) recomputed from scratch by the batch engine — the invariant
// that makes G-OLA's delta maintenance semantically invisible. Swept across
// query templates covering every uncertain-conjunct form (global scalar,
// correlated scalar, membership, opaque, HAVING).
#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "gola/gola.h"

namespace gola {
namespace {

struct PropertyCase {
  std::string name;
  std::string sql;
  uint64_t data_seed;
  uint64_t stream_seed;
  int num_batches;
};

Table MakeData(int64_t n, uint64_t seed) {
  Rng rng(seed);
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"k", TypeId::kInt64},
      {"grp", TypeId::kInt64},
      {"x", TypeId::kFloat64},
      {"y", TypeId::kFloat64},
      {"flag", TypeId::kInt64},
  });
  TableBuilder builder(schema, 256);
  for (int64_t i = 0; i < n; ++i) {
    builder.AppendRow({Value::Int(i), Value::Int(rng.UniformInt(1, 6)),
                       Value::Float(rng.LogNormal(2.0, 0.7)),
                       Value::Float(rng.Normal(50, 15)),
                       Value::Int(rng.Bernoulli(0.3) ? 1 : 0)});
  }
  return builder.Finish();
}

std::vector<PropertyCase> MakeCases() {
  const char* kTemplates[][2] = {
      {"global_scalar",
       "SELECT AVG(y) AS a, COUNT(*) AS n FROM d "
       "WHERE x > (SELECT AVG(x) FROM d)"},
      {"correlated_scalar",
       "SELECT grp, SUM(y) AS s FROM d t "
       "WHERE x < (SELECT AVG(x) FROM d u WHERE u.grp = t.grp) "
       "GROUP BY grp ORDER BY grp"},
      {"membership",
       "SELECT COUNT(*) AS n FROM d WHERE grp IN "
       "(SELECT grp FROM d GROUP BY grp HAVING AVG(x) > 9)"},
      {"not_in_membership",
       "SELECT SUM(y) AS s FROM d WHERE grp NOT IN "
       "(SELECT grp FROM d GROUP BY grp HAVING AVG(x) > 9)"},
      {"peeled_affine",
       "SELECT COUNT(*) AS n FROM d "
       "WHERE x > 1.2 * (SELECT AVG(x) FROM d)"},
      {"opaque_conjunct",
       "SELECT COUNT(*) AS n FROM d "
       "WHERE x > abs((SELECT AVG(x) FROM d))"},
      {"having_subquery",
       "SELECT grp, AVG(y) AS a FROM d GROUP BY grp "
       "HAVING SUM(y) > (SELECT SUM(y) * 0.15 FROM d) ORDER BY grp"},
      {"two_conjuncts",
       "SELECT COUNT(*) AS n FROM d "
       "WHERE x > (SELECT AVG(x) FROM d) AND y < (SELECT AVG(y) FROM d) "},
  };
  std::vector<PropertyCase> cases;
  for (const auto& t : kTemplates) {
    for (uint64_t seed : {1u, 2u}) {
      PropertyCase c;
      c.name = std::string(t[0]) + "_seed" + std::to_string(seed);
      c.sql = t[1];
      c.data_seed = seed * 31;
      c.stream_seed = seed * 101 + 7;
      c.num_batches = seed % 2 == 0 ? 6 : 11;
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

class GolaPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(GolaPropertyTest, PerBatchEquivalenceWithBatchEngine) {
  const PropertyCase& pc = GetParam();
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("d", MakeData(1500, pc.data_seed)));

  auto compiled = engine.Compile(pc.sql);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  GolaOptions opts;
  opts.num_batches = pc.num_batches;
  opts.bootstrap_replicates = 30;
  opts.seed = pc.stream_seed;
  auto online = engine.ExecuteOnline(pc.sql, opts);
  ASSERT_TRUE(online.ok()) << online.status().ToString();

  TablePtr table = *engine.GetTable("d");
  MiniBatchOptions part_opts;
  part_opts.num_batches = pc.num_batches;
  part_opts.seed = pc.stream_seed;
  MiniBatchPartitioner partitioner(*table, part_opts);
  BatchExecutor batch(&engine.catalog());

  while (!(*online)->done()) {
    auto update = (*online)->Step();
    ASSERT_TRUE(update.ok()) << update.status().ToString();
    BatchExecOptions bopts;
    bopts.scale = update->scale;
    auto expected = batch.ExecuteOnChunks(
        *compiled, "d", partitioner.BatchesSharedUpTo(update->batch_index), bopts);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_EQ(update->result.num_rows(), expected->num_rows())
        << "batch " << update->batch_index;
    for (int64_t r = 0; r < expected->num_rows(); ++r) {
      for (size_t c = 0; c < expected->schema()->num_fields(); ++c) {
        Value got = update->result.At(r, static_cast<int>(c));
        Value want = expected->At(r, static_cast<int>(c));
        if (want.is_null()) {
          EXPECT_TRUE(got.is_null()) << "batch " << update->batch_index;
          continue;
        }
        double dg = got.ToDouble().ValueOr(1e100);
        double dw = want.ToDouble().ValueOr(-1e100);
        ASSERT_NEAR(dg, dw, 1e-8 * (1 + std::fabs(dw)))
            << pc.name << " batch " << update->batch_index << " row " << r
            << " col " << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GolaPropertyTest, ::testing::ValuesIn(MakeCases()),
                         [](const ::testing::TestParamInfo<PropertyCase>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace gola
