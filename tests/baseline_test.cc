// The CDM baseline must be semantically identical to the batch engine on
// every prefix — it differs from G-OLA only in cost. Also checks the §3.1
// cost asymmetry: CDM's per-batch scan cost grows linearly while G-OLA's
// stays near-constant.
#include <gtest/gtest.h>

#include "baseline/cdm.h"
#include "common/random.h"
#include "gola/gola.h"

namespace gola {
namespace {

Table MakeData(int64_t n, uint64_t seed) {
  Rng rng(seed);
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"k", TypeId::kInt64}, {"x", TypeId::kFloat64}, {"y", TypeId::kFloat64}});
  TableBuilder builder(schema, 512);
  for (int64_t i = 0; i < n; ++i) {
    builder.AppendRow({Value::Int(rng.UniformInt(1, 10)),
                       Value::Float(rng.Exponential(20.0)),
                       Value::Float(rng.UniformDouble(0, 100))});
  }
  return builder.Finish();
}

constexpr const char* kNested =
    "SELECT AVG(y) AS avg_y, COUNT(*) AS n FROM data "
    "WHERE x > (SELECT AVG(x) FROM data)";

class BaselineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GOLA_CHECK_OK(engine_.RegisterTable("data", MakeData(3000, 11)));
  }

  void ExpectMatch(const Table& a, const Table& b) {
    ASSERT_EQ(a.num_rows(), b.num_rows());
    for (int64_t r = 0; r < b.num_rows(); ++r) {
      for (size_t c = 0; c < b.schema()->num_fields(); ++c) {
        double da = a.At(r, static_cast<int>(c)).ToDouble().ValueOr(1e100);
        double db = b.At(r, static_cast<int>(c)).ToDouble().ValueOr(-1e100);
        EXPECT_NEAR(da, db, 1e-9 * (1 + std::fabs(db)));
      }
    }
  }

  Engine engine_;
};

TEST_F(BaselineTest, CdmMatchesBatchOnEveryPrefix) {
  auto query = engine_.Compile(kNested);
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  CdmOptions opts;
  opts.num_batches = 8;
  opts.seed = 5;
  auto cdm = CdmExecutor::Create(&engine_.catalog(), *query, opts);
  ASSERT_TRUE(cdm.ok()) << cdm.status().ToString();

  TablePtr table = *engine_.GetTable("data");
  MiniBatchOptions part_opts;
  part_opts.num_batches = opts.num_batches;
  part_opts.seed = opts.seed;
  MiniBatchPartitioner partitioner(*table, part_opts);
  BatchExecutor batch(&engine_.catalog());

  while (!(*cdm)->done()) {
    auto update = (*cdm)->Step();
    ASSERT_TRUE(update.ok()) << update.status().ToString();
    int64_t rows = 0;
    auto prefix = partitioner.BatchesSharedUpTo(update->batch_index);
    for (const auto& c : prefix) rows += static_cast<int64_t>(c->num_rows());
    BatchExecOptions bopts;
    bopts.scale = static_cast<double>(table->num_rows()) / static_cast<double>(rows);
    auto expected = batch.ExecuteOnChunks(*query, "data", prefix, bopts);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ExpectMatch(update->result, *expected);
  }
}

TEST_F(BaselineTest, CdmScanCostGrowsLinearly) {
  auto query = engine_.Compile(kNested);
  ASSERT_TRUE(query.ok());
  CdmOptions opts;
  opts.num_batches = 10;
  auto cdm = CdmExecutor::Create(&engine_.catalog(), *query, opts);
  ASSERT_TRUE(cdm.ok());
  std::vector<int64_t> scans;
  while (!(*cdm)->done()) {
    auto update = (*cdm)->Step();
    ASSERT_TRUE(update.ok());
    scans.push_back(update->rows_scanned);
  }
  // §3.1: the outer block rescans D_i each batch → last ≈ num_batches × first.
  EXPECT_GT(scans.back(), scans.front() * 4);
}

TEST_F(BaselineTest, GolaUncertainWorkStaysSmall) {
  GolaOptions opts;
  opts.num_batches = 10;
  opts.bootstrap_replicates = 40;
  auto online = engine_.ExecuteOnline(kNested, opts);
  ASSERT_TRUE(online.ok()) << online.status().ToString();
  std::vector<int64_t> uncertain;
  while (!(*online)->done()) {
    auto update = (*online)->Step();
    ASSERT_TRUE(update.ok());
    uncertain.push_back(update->uncertain_tuples);
  }
  // The delta-maintenance workload per batch is |U| + |ΔD|, not |D_i|:
  // after warm-up the uncertain set must stay well below the prefix size.
  int64_t batch_rows = 3000 / 10;
  for (size_t i = 2; i < uncertain.size(); ++i) {
    EXPECT_LT(uncertain[i], 3 * batch_rows) << "batch " << i + 1;
  }
}

}  // namespace
}  // namespace gola
