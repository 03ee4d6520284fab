// Resilient online execution under injected faults: morsel/pipeline retry
// reproduces bit-identical answers, a forced envelope-check failure recovers
// through the query-wide rebuild path, retry exhaustion surfaces as a real
// error, and deadline pressure degrades in the documented order without ever
// turning a well-formed query into an error.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "gola/gola.h"

namespace gola {
namespace {

Table MakeData(int64_t n, uint64_t seed) {
  Rng rng(seed);
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"g1", TypeId::kInt64},
      {"a", TypeId::kFloat64},
      {"b", TypeId::kFloat64},
  });
  TableBuilder builder(schema, 200);
  for (int64_t i = 0; i < n; ++i) {
    builder.AppendRow({Value::Int(rng.UniformInt(1, 5)),
                       Value::Float(rng.LogNormal(1.5, 0.6)),
                       Value::Float(rng.Normal(40, 12))});
  }
  return builder.Finish();
}

constexpr const char* kQuery =
    "SELECT g1, AVG(a) AS m, COUNT(*) AS n FROM d d "
    "WHERE b > 0.9 * (SELECT AVG(b) FROM d) GROUP BY g1 ORDER BY g1";

void ExpectTablesIdentical(const Table& got, const Table& want,
                           const std::string& what) {
  ASSERT_EQ(got.num_rows(), want.num_rows()) << what;
  ASSERT_TRUE(got.schema()->Equals(*want.schema())) << what;
  for (int64_t r = 0; r < want.num_rows(); ++r) {
    for (size_t c = 0; c < want.schema()->num_fields(); ++c) {
      ASSERT_TRUE(got.At(r, static_cast<int>(c)) ==
                  want.At(r, static_cast<int>(c)))
          << what << " differs at row " << r << " col "
          << want.schema()->field(c).name;
    }
  }
}

class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fail::DisarmAll();
    GOLA_CHECK_OK(engine_.RegisterTable("d", MakeData(1500, 77)));
  }
  void TearDown() override { fail::DisarmAll(); }

  /// Runs kQuery to completion, returning every per-batch update.
  std::vector<OnlineUpdate> RunAll(const GolaOptions& opts) {
    std::vector<OnlineUpdate> updates;
    auto online = engine_.ExecuteOnline(kQuery, opts);
    GOLA_CHECK_OK(online.status());
    while (!(*online)->done()) {
      auto update = (*online)->Step();
      GOLA_CHECK_OK(update.status());
      updates.push_back(std::move(*update));
    }
    return updates;
  }

  GolaOptions BaseOptions() {
    GolaOptions opts;
    opts.num_batches = 6;
    opts.bootstrap_replicates = 24;
    opts.seed = 2026;
    opts.max_morsel_retries = 4;
    opts.retry_backoff_ms = 0;
    return opts;
  }

  Engine engine_;
};

TEST_F(ResilienceTest, MorselRetryReproducesBitIdenticalUpdates) {
  GolaOptions opts = BaseOptions();
  std::vector<OnlineUpdate> clean = RunAll(opts);

  // The run only hits the site a dozen or so times (one morsel per block per
  // batch at this data size), so the per-hit probability is high; the seeded
  // PRNG keeps the fault schedule — and therefore the test — deterministic.
  fail::SetSeed(31337);
  GOLA_CHECK_OK(fail::Arm("exec.morsel", "prob(0.3)"));
  std::vector<OnlineUpdate> faulty = RunAll(opts);
  int64_t fires = fail::Fires("exec.morsel");
  fail::DisarmAll();

  EXPECT_GT(fires, 0) << "p=0.3 over every morsel should have fired";
  ASSERT_EQ(faulty.size(), clean.size());
  for (size_t i = 0; i < clean.size(); ++i) {
    ExpectTablesIdentical(faulty[i].result, clean[i].result,
                          Format("update %zu", i));
    EXPECT_EQ(faulty[i].uncertain_tuples, clean[i].uncertain_tuples);
    EXPECT_EQ(faulty[i].max_rsd, clean[i].max_rsd);
  }
}

TEST_F(ResilienceTest, ForcedEnvelopeFailureRecoversViaRebuild) {
  GolaOptions opts = BaseOptions();
  std::vector<OnlineUpdate> clean = RunAll(opts);
  ASSERT_EQ(clean.back().recomputes_so_far, 0)
      << "baseline run must be recompute-free for this test to mean anything";

  // Force one variation-range violation mid-query: the controller must take
  // the full §3.2 recompute path and still land on the same final answer.
  GOLA_CHECK_OK(fail::Arm("gola.check_envelopes", "nth(2)"));
  std::vector<OnlineUpdate> recovered = RunAll(opts);
  fail::DisarmAll();

  ASSERT_EQ(recovered.size(), clean.size());
  EXPECT_GT(recovered.back().recomputes_so_far, 0)
      << "the injected range failure must have triggered a rebuild";
  ExpectTablesIdentical(recovered.back().result, clean.back().result,
                        "final update after forced rebuild");
}

TEST_F(ResilienceTest, RebuildFaultIsRetriedToTheSameAnswer) {
  GolaOptions opts = BaseOptions();
  std::vector<OnlineUpdate> clean = RunAll(opts);

  // First envelope check forces a rebuild; the rebuild itself then fails
  // once and must be retried (Rebuild resets before running, so a rerun is
  // safe by construction).
  GOLA_CHECK_OK(fail::Arm("gola.check_envelopes", "once"));
  GOLA_CHECK_OK(fail::Arm("gola.rebuild", "once"));
  std::vector<OnlineUpdate> recovered = RunAll(opts);
  int64_t rebuild_fires = fail::Fires("gola.rebuild");
  fail::DisarmAll();

  EXPECT_EQ(rebuild_fires, 1);
  ExpectTablesIdentical(recovered.back().result, clean.back().result,
                        "final update after faulted rebuild");
}

TEST_F(ResilienceTest, ThreadPoolTaskFaultsAreRetriedBitIdentically) {
  ThreadPool pool(4);
  GolaOptions opts = BaseOptions();
  opts.pool = &pool;
  std::vector<OnlineUpdate> clean = RunAll(opts);

  fail::SetSeed(99);
  GOLA_CHECK_OK(fail::Arm("threadpool.task", "prob(0.02)"));
  std::vector<OnlineUpdate> faulty = RunAll(opts);
  int64_t fires = fail::Fires("threadpool.task");
  fail::DisarmAll();

  EXPECT_GT(fires, 0);
  ASSERT_EQ(faulty.size(), clean.size());
  for (size_t i = 0; i < clean.size(); ++i) {
    ExpectTablesIdentical(faulty[i].result, clean[i].result,
                          Format("pooled update %zu", i));
  }
}

TEST_F(ResilienceTest, BootstrapReplicateFaultsAreRetriedBitIdentically) {
  GolaOptions opts = BaseOptions();
  std::vector<OnlineUpdate> clean = RunAll(opts);

  GOLA_CHECK_OK(fail::Arm("bootstrap.replicate", "nth(7)"));
  std::vector<OnlineUpdate> faulty = RunAll(opts);
  int64_t fires = fail::Fires("bootstrap.replicate");
  fail::DisarmAll();

  EXPECT_EQ(fires, 1);
  for (size_t i = 0; i < clean.size(); ++i) {
    ExpectTablesIdentical(faulty[i].result, clean[i].result,
                          Format("update %zu", i));
  }
}

TEST_F(ResilienceTest, RetryExhaustionSurfacesTheInjectedError) {
  GolaOptions opts = BaseOptions();
  opts.max_morsel_retries = 2;
  GOLA_CHECK_OK(fail::Arm("exec.morsel", "always"));
  auto online = engine_.ExecuteOnline(kQuery, opts);
  GOLA_CHECK_OK(online.status());
  auto update = (*online)->Step();
  fail::DisarmAll();

  ASSERT_FALSE(update.ok()) << "a permanently failing site must not loop forever";
  EXPECT_EQ(update.status().code(), StatusCode::kExecutionError);
  EXPECT_NE(update.status().message().find("failpoint"), std::string::npos);
}

TEST_F(ResilienceTest, ZeroRetriesFailsOnFirstFault) {
  GolaOptions opts = BaseOptions();
  opts.max_morsel_retries = 0;
  GOLA_CHECK_OK(fail::Arm("exec.morsel", "once"));
  auto online = engine_.ExecuteOnline(kQuery, opts);
  GOLA_CHECK_OK(online.status());
  auto update = (*online)->Step();
  fail::DisarmAll();
  ASSERT_FALSE(update.ok());
}

// --- deadline_ms: graceful degradation, never an error -------------------

TEST_F(ResilienceTest, DeadlineLadderDegradesInDocumentedOrder) {
  GolaOptions opts = BaseOptions();
  opts.num_batches = 10;
  opts.deadline_ms = 2000;

  auto online = engine_.ExecuteOnline(kQuery, opts);
  GOLA_CHECK_OK(online.status());

  // Sleep between Steps to walk the wall clock through the 50% / 75% / 100%
  // rungs. Sleeps are generous relative to batch cost, so the *order* is
  // deterministic even on a loaded CI machine; the exact batch at which each
  // rung engages is not asserted.
  const int sleeps_ms[] = {0, 1100, 500, 500, 0, 0, 0, 0, 0, 0};
  std::vector<OnlineUpdate> updates;
  int step = 0;
  while (!(*online)->done()) {
    auto update = (*online)->Step();
    GOLA_CHECK_OK(update.status());  // a deadline overrun is never an error
    updates.push_back(std::move(*update));
    if (step < 10 && sleeps_ms[step] > 0 && !(*online)->done()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleeps_ms[step]));
    }
    ++step;
  }

  // The ladder is monotone and ends at stop-early well before the data runs
  // out (3 seconds of sleep against a 2-second deadline).
  for (size_t i = 1; i < updates.size(); ++i) {
    EXPECT_GE(static_cast<int>(updates[i].degradation),
              static_cast<int>(updates[i - 1].degradation))
        << "degradation went backwards at update " << i;
  }
  EXPECT_EQ(updates.back().degradation, Degradation::kStoppedEarly);
  EXPECT_TRUE((*online)->stopped_early());
  EXPECT_LT(static_cast<int>(updates.size()), opts.num_batches);

  // Intermediate updates under skip-materialize pressure carry no result
  // copy; the final (stop-early) update always materializes the answer.
  bool saw_skipped = false;
  for (size_t i = 0; i + 1 < updates.size(); ++i) {
    if (updates[i].degradation >= Degradation::kSkipMaterialize) {
      saw_skipped = true;
      EXPECT_EQ(updates[i].result.num_rows(), 0) << "update " << i;
    }
  }
  EXPECT_TRUE(saw_skipped);
  EXPECT_GT(updates.back().result.num_rows(), 0)
      << "stop-early must still return the best available estimate";
  // The answer carries its CI columns (best estimate *with* error bars).
  EXPECT_TRUE(updates.back().result.schema()->FieldIndex("m_lo").ok());
  EXPECT_TRUE(updates.back().result.schema()->FieldIndex("m_hi").ok());

  // An update emitted under the reduced-replicates rung (raised after the
  // previous batch) keeps the undegraded estimates, and its error bars come
  // from half the replicates.
  GolaOptions undegraded = opts;
  undegraded.deadline_ms = 0;
  std::vector<OnlineUpdate> reference = RunAll(undegraded);
  size_t i = 1;
  while (i < updates.size() && updates[i - 1].degradation < Degradation::kReducedReplicates) {
    ++i;
  }
  ASSERT_LT(i, updates.size()) << "no update was emitted under reduced replicates";
  const Table& reduced = updates[i].result;
  const Table& full = reference[i].result;
  ASSERT_EQ(reduced.num_rows(), full.num_rows());
  bool bars_differ = false;
  for (int64_t r = 0; r < full.num_rows(); ++r) {
    for (const char* col : {"g1", "m", "n"}) {
      const int c = *full.schema()->FieldIndex(col);
      EXPECT_TRUE(reduced.At(r, c) == full.At(r, c)) << col << " row " << r;
    }
    for (const char* col : {"m_lo", "m_hi", "n_lo", "n_hi"}) {
      const int c = *full.schema()->FieldIndex(col);
      bars_differ = bars_differ || !(reduced.At(r, c) == full.At(r, c));
    }
  }
  EXPECT_TRUE(bars_differ);
}

TEST_F(ResilienceTest, TinyDeadlineStopsAfterOneBatchWithAnAnswer) {
  GolaOptions opts = BaseOptions();
  opts.num_batches = 12;
  opts.deadline_ms = 0.001;  // already blown when the first batch lands

  auto online = engine_.ExecuteOnline(kQuery, opts);
  GOLA_CHECK_OK(online.status());
  auto update = (*online)->Step();
  GOLA_CHECK_OK(update.status());

  EXPECT_EQ(update->degradation, Degradation::kStoppedEarly);
  EXPECT_TRUE((*online)->done());
  EXPECT_EQ((*online)->batches_processed(), 1)
      << "the in-flight batch always completes before the stop";
  EXPECT_GT(update->result.num_rows(), 0);
}

TEST_F(ResilienceTest, NoDeadlineNeverDegrades) {
  GolaOptions opts = BaseOptions();
  std::vector<OnlineUpdate> updates = RunAll(opts);
  for (const auto& u : updates) {
    EXPECT_EQ(u.degradation, Degradation::kNone);
  }
}

TEST_F(ResilienceTest, InvalidResilienceOptionsAreRejected) {
  GolaOptions opts = BaseOptions();
  opts.max_morsel_retries = -1;
  EXPECT_EQ(engine_.ExecuteOnline(kQuery, opts).status().code(),
            StatusCode::kInvalidArgument);
  opts = BaseOptions();
  opts.deadline_ms = -5;
  EXPECT_EQ(engine_.ExecuteOnline(kQuery, opts).status().code(),
            StatusCode::kInvalidArgument);
  // B < 2 makes every variation range a point.
  for (int b : {0, 1}) {
    opts = BaseOptions();
    opts.bootstrap_replicates = b;
    EXPECT_EQ(engine_.ExecuteOnline(kQuery, opts).status().code(),
              StatusCode::kInvalidArgument)
        << "bootstrap_replicates = " << b;
  }
}

}  // namespace
}  // namespace gola
