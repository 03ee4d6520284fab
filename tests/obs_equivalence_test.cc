// Observability must not perturb results: an online drain with metrics and
// tracing enabled must be BIT-IDENTICAL to one with both disabled (the
// instrumentation only reads clocks and bumps counters — never touches the
// morsel plan or any merge order). Also sanity-checks the per-update
// QueryStats attached to OnlineUpdate.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "gola/gola.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/conviva_gen.h"
#include "workload/queries.h"
#include "workload/tpch_gen.h"

namespace gola {
namespace {

class ObsEquivalenceTest : public ::testing::Test {
 protected:
  static Engine* engine() {
    static Engine* instance = [] {
      auto* e = new Engine();
      ConvivaGenOptions conviva;
      conviva.num_rows = 6000;
      conviva.num_ads = 12;
      conviva.num_contents = 200;
      GOLA_CHECK_OK(e->RegisterTable("conviva", GenerateConviva(conviva)));
      TpchGenOptions tpch;
      tpch.num_rows = 6000;
      tpch.num_parts = 60;
      tpch.num_suppliers = 15;
      GOLA_CHECK_OK(e->RegisterTable("tpch", GenerateTpch(tpch)));
      return e;
    }();
    return instance;
  }

  static Table Drain(const std::string& sql, bool instrumented,
                     ThreadPool* pool) {
    obs::SetMetricsEnabled(instrumented);
    if (instrumented) {
      obs::Tracer::Global().Enable();
    } else {
      obs::Tracer::Global().Disable();
    }
    GolaOptions opts;
    opts.num_batches = 8;
    opts.bootstrap_replicates = 40;
    opts.seed = 99;
    opts.pool = pool;
    auto online = engine()->ExecuteOnline(sql, opts);
    GOLA_CHECK_OK(online.status());
    auto last = (*online)->Run();
    GOLA_CHECK_OK(last.status());
    return last->result;
  }

  static void ExpectBitIdentical(const Table& a, const Table& b,
                                 const std::string& name) {
    ASSERT_EQ(a.num_rows(), b.num_rows()) << name;
    ASSERT_EQ(a.schema()->num_fields(), b.schema()->num_fields()) << name;
    for (int64_t r = 0; r < a.num_rows(); ++r) {
      for (size_t c = 0; c < a.schema()->num_fields(); ++c) {
        Value va = a.At(r, static_cast<int>(c));
        Value vb = b.At(r, static_cast<int>(c));
        if (va.is_null() || vb.is_null()) {
          EXPECT_TRUE(va.is_null() && vb.is_null()) << name;
          continue;
        }
        if (va.type() == TypeId::kString) {
          EXPECT_TRUE(va == vb) << name;
          continue;
        }
        double da = va.ToDouble().ValueOr(1e100);
        double db = vb.ToDouble().ValueOr(-1e100);
        if (std::isnan(da) && std::isnan(db)) continue;
        // Bitwise, not approximate: instrumentation must not change a
        // single FP accumulation.
        EXPECT_EQ(da, db) << name << " row " << r << " col " << c;
      }
    }
  }

  void TearDown() override {
    obs::SetMetricsEnabled(true);
    obs::Tracer::Global().Disable();
    obs::Tracer::Global().Clear();
  }
};

TEST_F(ObsEquivalenceTest, MetricsOnOffBitIdenticalSerialAndParallel) {
  for (const NamedQuery& q : AllQueries()) {
    Table off_serial = Drain(q.sql, /*instrumented=*/false, nullptr);
    Table on_serial = Drain(q.sql, /*instrumented=*/true, nullptr);
    ExpectBitIdentical(off_serial, on_serial, std::string(q.name) + "/serial");

    ThreadPool pool(4);
    Table off_parallel = Drain(q.sql, /*instrumented=*/false, &pool);
    Table on_parallel = Drain(q.sql, /*instrumented=*/true, &pool);
    ExpectBitIdentical(off_parallel, on_parallel,
                       std::string(q.name) + "/parallel");
    // And instrumented parallel == instrumented serial (the pre-existing
    // pool-size contract survives instrumentation).
    ExpectBitIdentical(on_serial, on_parallel, std::string(q.name) + "/pool");
  }
}

TEST_F(ObsEquivalenceTest, QueryStatsAccountForTheBatch) {
  obs::SetMetricsEnabled(true);
  GolaOptions opts;
  opts.num_batches = 6;
  opts.bootstrap_replicates = 30;
  opts.seed = 7;
  auto online = engine()->ExecuteOnline(SbiQuery(), opts);
  ASSERT_TRUE(online.ok()) << online.status().ToString();

  int64_t total_rows_in = 0;
  while (!(*online)->done()) {
    auto update = (*online)->Step();
    ASSERT_TRUE(update.ok()) << update.status().ToString();
    const obs::QueryStats& s = update->stats;
    EXPECT_GT(s.morsels, 0);
    EXPECT_GT(s.rows_in, 0);
    EXPECT_GE(s.delta_exec_seconds, 0.0);
    EXPECT_GE(s.envelope_check_seconds, 0.0);
    EXPECT_GE(s.emit_seconds, 0.0);
    EXPECT_GE(s.materialize_seconds, 0.0);
    // The phase breakdown cannot exceed the whole step.
    EXPECT_LE(s.envelope_check_seconds + s.delta_exec_seconds + s.emit_seconds +
                  s.rebuild_seconds + s.materialize_seconds,
              update->batch_seconds + 1e-6);
    // Emit splits into its four parts, which add up to it. SBI has a scalar
    // block (broadcast) and a root block, and both emit every batch.
    EXPECT_GE(s.emit_overlay_seconds, 0.0);
    EXPECT_GT(s.emit_finalize_seconds, 0.0);
    EXPECT_GT(s.emit_broadcast_seconds, 0.0);
    EXPECT_GT(s.emit_root_seconds, 0.0);
    EXPECT_NEAR(s.emit_overlay_seconds + s.emit_finalize_seconds +
                    s.emit_broadcast_seconds + s.emit_root_seconds,
                s.emit_seconds, 1e-9);
    if (s.failure_cause == nullptr) {
      EXPECT_EQ(s.rebuild_seconds, 0.0);
    } else {
      EXPECT_GT(s.rebuild_seconds, 0.0);
    }
    total_rows_in += s.rows_in;
  }
  // Every streamed row enters the pipeline at least once (rebuilds rescan).
  EXPECT_GE(total_rows_in, 6000);
}

TEST_F(ObsEquivalenceTest, RegistryCoversEngineLayersAfterADrain) {
  obs::SetMetricsEnabled(true);
  ThreadPool pool(2);
  GolaOptions opts;
  opts.num_batches = 5;
  opts.bootstrap_replicates = 20;
  opts.pool = &pool;
  auto online = engine()->ExecuteOnline(SbiQuery(), opts);
  ASSERT_TRUE(online.ok());
  ASSERT_TRUE((*online)->Run().ok());

  std::string text = obs::MetricsRegistry::Global().RenderText();
  // The acceptance criterion: ThreadPool, pipeline-stage and uncertain-set
  // metrics all visible in one exposition.
  EXPECT_NE(text.find("gola_threadpool_tasks_total"), std::string::npos);
  EXPECT_NE(text.find("gola_pipeline_stage_us"), std::string::npos);
  EXPECT_NE(text.find("gola_pipeline_morsel_us"), std::string::npos);
  EXPECT_NE(text.find("gola_online_uncertain_tuples"), std::string::npos);
  EXPECT_NE(text.find("gola_online_batches_total"), std::string::npos);
}

}  // namespace
}  // namespace gola
