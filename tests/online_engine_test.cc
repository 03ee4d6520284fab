// Correctness tests of the G-OLA online engine. The central invariants:
//  (1) exactness at convergence — after the last mini-batch the online
//      answer equals the batch engine's exact answer (scale = 1);
//  (2) per-batch equivalence — after batch i the online answer equals
//      Q(D_i, k/i) recomputed from scratch by the batch engine (delta
//      maintenance must be semantically invisible).
#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "gola/gola.h"

namespace gola {
namespace {

SchemaPtr SessionsSchema() {
  return std::make_shared<Schema>(std::vector<Field>{
      {"session_id", TypeId::kInt64},
      {"ad_id", TypeId::kInt64},
      {"buffer_time", TypeId::kFloat64},
      {"play_time", TypeId::kFloat64},
  });
}

Table MakeSessions(int64_t n, uint64_t seed) {
  Rng rng(seed);
  TableBuilder builder(SessionsSchema(), /*chunk_size=*/256);
  for (int64_t i = 0; i < n; ++i) {
    double buffer = rng.Exponential(30.0);
    double play = std::max(0.0, 600.0 - 4.0 * buffer + rng.Normal(0, 50));
    builder.AppendRow({Value::Int(i), Value::Int(rng.UniformInt(1, 8)),
                       Value::Float(buffer), Value::Float(play)});
  }
  return builder.Finish();
}

constexpr const char* kSbi =
    "SELECT AVG(play_time) FROM sessions "
    "WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)";

constexpr const char* kCorrelated =
    "SELECT COUNT(*), AVG(play_time) FROM sessions s "
    "WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions t "
    "                     WHERE t.ad_id = s.ad_id)";

constexpr const char* kMembership =
    "SELECT SUM(play_time) FROM sessions WHERE ad_id IN "
    "(SELECT ad_id FROM sessions GROUP BY ad_id HAVING AVG(buffer_time) > 28)";

constexpr const char* kGroupHaving =
    "SELECT ad_id, SUM(play_time) AS total FROM sessions GROUP BY ad_id "
    "HAVING SUM(play_time) > (SELECT SUM(play_time) * 0.1 FROM sessions) "
    "ORDER BY total DESC";

class OnlineEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GOLA_CHECK_OK(engine_.RegisterTable("sessions", MakeSessions(4000, 7)));
    options_.num_batches = 10;
    options_.bootstrap_replicates = 50;
    options_.seed = 123;
  }

  /// Expects two result tables to agree cell-wise on the shared columns
  /// (the online table carries extra _lo/_hi/_rsd columns).
  void ExpectResultsMatch(const Table& online, const Table& exact, double tol) {
    ASSERT_EQ(online.num_rows(), exact.num_rows());
    for (int64_t r = 0; r < exact.num_rows(); ++r) {
      for (size_t c = 0; c < exact.schema()->num_fields(); ++c) {
        Value a = online.At(r, static_cast<int>(c));
        Value b = exact.At(r, static_cast<int>(c));
        if (b.is_null()) {
          EXPECT_TRUE(a.is_null());
          continue;
        }
        if (IsNumeric(b.type())) {
          double da = a.ToDouble().ValueOr(1e100);
          double db = b.ToDouble().ValueOr(-1e100);
          EXPECT_NEAR(da, db, tol * (1.0 + std::fabs(db)))
              << "row " << r << " col " << c;
        } else {
          EXPECT_TRUE(a == b) << "row " << r << " col " << c;
        }
      }
    }
  }

  Engine engine_;
  GolaOptions options_;
};

TEST_F(OnlineEngineTest, SbiExactAtConvergence) {
  auto online = engine_.ExecuteOnline(kSbi, options_);
  ASSERT_TRUE(online.ok()) << online.status().ToString();
  auto last = (*online)->Run();
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  auto exact = engine_.ExecuteBatch(kSbi);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ExpectResultsMatch(last->result, *exact, 1e-9);
  // The uncertain set need not be empty at the end — the bootstrap
  // replicates keep non-zero spread even over the full data — but it must
  // be a small residue around the predicate threshold.
  EXPECT_LT(last->uncertain_tuples, 4000 / 4);
}

TEST_F(OnlineEngineTest, SbiPerBatchEquivalence) {
  auto compiled = engine_.Compile(kSbi);
  ASSERT_TRUE(compiled.ok());
  auto online = engine_.ExecuteOnline(kSbi, options_);
  ASSERT_TRUE(online.ok()) << online.status().ToString();

  // Reference: recompute from scratch on the same prefix with the same
  // multiplicity (the partitioner is deterministic given the seed).
  TablePtr table = *engine_.GetTable("sessions");
  MiniBatchOptions part_opts;
  part_opts.num_batches = options_.num_batches;
  part_opts.seed = options_.seed;
  MiniBatchPartitioner partitioner(*table, part_opts);

  BatchExecutor batch_exec(&engine_.catalog());
  while (!(*online)->done()) {
    auto update = (*online)->Step();
    ASSERT_TRUE(update.ok()) << update.status().ToString();
    BatchExecOptions bopts;
    bopts.scale = update->scale;
    auto reference = batch_exec.ExecuteOnChunks(
        *compiled, "sessions", partitioner.BatchesSharedUpTo(update->batch_index), bopts);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ExpectResultsMatch(update->result, *reference, 1e-9);
  }
}

TEST_F(OnlineEngineTest, CorrelatedExactAtConvergence) {
  auto online = engine_.ExecuteOnline(kCorrelated, options_);
  ASSERT_TRUE(online.ok()) << online.status().ToString();
  auto last = (*online)->Run();
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  auto exact = engine_.ExecuteBatch(kCorrelated);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ExpectResultsMatch(last->result, *exact, 1e-9);
}

TEST_F(OnlineEngineTest, MembershipExactAtConvergence) {
  auto online = engine_.ExecuteOnline(kMembership, options_);
  ASSERT_TRUE(online.ok()) << online.status().ToString();
  auto last = (*online)->Run();
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  auto exact = engine_.ExecuteBatch(kMembership);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ExpectResultsMatch(last->result, *exact, 1e-9);
}

TEST_F(OnlineEngineTest, GroupHavingExactAtConvergence) {
  auto online = engine_.ExecuteOnline(kGroupHaving, options_);
  ASSERT_TRUE(online.ok()) << online.status().ToString();
  auto last = (*online)->Run();
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  auto exact = engine_.ExecuteBatch(kGroupHaving);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ExpectResultsMatch(last->result, *exact, 1e-9);
}

TEST_F(OnlineEngineTest, RsdDecreasesOverBatches) {
  auto online = engine_.ExecuteOnline(kSbi, options_);
  ASSERT_TRUE(online.ok()) << online.status().ToString();
  double first_rsd = -1;
  double last_rsd = -1;
  while (!(*online)->done()) {
    auto update = (*online)->Step();
    ASSERT_TRUE(update.ok()) << update.status().ToString();
    if (first_rsd < 0) first_rsd = update->max_rsd;
    last_rsd = update->max_rsd;
  }
  EXPECT_GT(first_rsd, 0);
  EXPECT_LT(last_rsd, first_rsd);
}

TEST_F(OnlineEngineTest, TinyEpsilonStillExactViaRecompute) {
  // Force frequent range failures: classification envelopes are razor thin,
  // so the recompute path must repair the state and the final answer must
  // still be exact.
  GolaOptions opts = options_;
  opts.epsilon_mult = 0.0;
  auto online = engine_.ExecuteOnline(kSbi, opts);
  ASSERT_TRUE(online.ok()) << online.status().ToString();
  auto last = (*online)->Run();
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  auto exact = engine_.ExecuteBatch(kSbi);
  ASSERT_TRUE(exact.ok());
  ExpectResultsMatch(last->result, *exact, 1e-9);
}

TEST_F(OnlineEngineTest, UncertainSetSmallFractionOfData) {
  auto online = engine_.ExecuteOnline(kSbi, options_);
  ASSERT_TRUE(online.ok()) << online.status().ToString();
  int64_t max_uncertain = 0;
  while (!(*online)->done()) {
    auto update = (*online)->Step();
    ASSERT_TRUE(update.ok());
    if (update->batch_index > 2) {
      max_uncertain = std::max(max_uncertain, update->uncertain_tuples);
    }
  }
  // §5: "uncertain sets are very small in practice" — here under a quarter
  // of the full dataset at any point after warm-up (usually far less).
  EXPECT_LT(max_uncertain, 1000);
}

TEST_F(OnlineEngineTest, NonAggregateQueryRejectedOnline) {
  auto online = engine_.ExecuteOnline("SELECT play_time FROM sessions", options_);
  ASSERT_FALSE(online.ok());
  EXPECT_EQ(online.status().code(), StatusCode::kNotImplemented);
}

}  // namespace
}  // namespace gola
