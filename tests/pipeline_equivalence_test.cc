// Delta-pipeline equivalence: for every workload query, the exact batch
// engine and a fully drained online run must agree, and — the layer's
// determinism contract — every online update must be BIT-IDENTICAL across
// pool sizes {none, 1, 2, 4, 8}: the morsel plan, the emit-side piece plans
// and all merge orders are computed from input sizes alone, never from the
// pool. The tables are sized so that every pooled emit path (overlay fold,
// replicate finalization, scalar and membership pieces, the barrier's slot
// copy) splits into more than one piece.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "gola/gola.h"
#include "workload/conviva_gen.h"
#include "workload/queries.h"
#include "workload/tpch_gen.h"

namespace gola {
namespace {

class PipelineEquivalenceTest : public ::testing::TestWithParam<NamedQuery> {
 protected:
  static Engine* engine() {
    static Engine* instance = [] {
      auto* e = new Engine();
      ConvivaGenOptions conviva;
      conviva.num_rows = 12000;
      conviva.num_ads = 12;
      conviva.num_contents = 200;
      GOLA_CHECK_OK(e->RegisterTable("conviva", GenerateConviva(conviva)));
      TpchGenOptions tpch;
      tpch.num_rows = 12000;
      tpch.num_parts = 60;
      tpch.num_suppliers = 15;
      GOLA_CHECK_OK(e->RegisterTable("tpch", GenerateTpch(tpch)));
      return e;
    }();
    return instance;
  }

  static GolaOptions Options(ThreadPool* pool) {
    GolaOptions opts;
    opts.num_batches = 8;
    opts.bootstrap_replicates = 40;
    opts.seed = 99;
    opts.pool = pool;
    return opts;
  }

  static Table DrainOnline(const NamedQuery& q, ThreadPool* pool) {
    auto online = engine()->ExecuteOnline(q.sql, Options(pool));
    GOLA_CHECK_OK(online.status());
    auto last = (*online)->Run();
    GOLA_CHECK_OK(last.status());
    return last->result;
  }

  /// Every update of an online run, not only the drained answer.
  static std::vector<OnlineUpdate> AllUpdates(const NamedQuery& q, ThreadPool* pool) {
    auto online = engine()->ExecuteOnline(q.sql, Options(pool));
    GOLA_CHECK_OK(online.status());
    std::vector<OnlineUpdate> updates;
    while (!(*online)->done()) {
      auto update = (*online)->Step();
      GOLA_CHECK_OK(update.status());
      updates.push_back(std::move(*update));
    }
    return updates;
  }

  // Bitwise, not approximate: same FP accumulation order regardless of how
  // many workers ran the morsels and the emit pieces.
  static void ExpectBitIdentical(const Table& a, const Table& b,
                                 const std::string& where) {
    ASSERT_EQ(a.num_rows(), b.num_rows()) << where;
    ASSERT_EQ(a.schema()->num_fields(), b.schema()->num_fields()) << where;
    for (int64_t r = 0; r < a.num_rows(); ++r) {
      for (size_t c = 0; c < a.schema()->num_fields(); ++c) {
        Value va = a.At(r, static_cast<int>(c));
        Value vb = b.At(r, static_cast<int>(c));
        if (va.is_null() || vb.is_null()) {
          EXPECT_TRUE(va.is_null() && vb.is_null())
              << where << " row " << r << " col " << c;
          continue;
        }
        if (va.type() == TypeId::kString) {
          EXPECT_TRUE(va == vb) << where << " row " << r << " col " << c;
          continue;
        }
        double da = va.ToDouble().ValueOr(1e100);
        double db = vb.ToDouble().ValueOr(-1e100);
        if (std::isnan(da) && std::isnan(db)) continue;
        EXPECT_EQ(std::memcmp(&da, &db, sizeof da), 0)
            << where << " row " << r << " col " << c << ": " << da << " vs " << db;
      }
    }
  }
};

TEST_P(PipelineEquivalenceTest, OnlineBitIdenticalAcrossPoolSizes) {
  const NamedQuery& q = GetParam();
  const std::vector<OnlineUpdate> serial = AllUpdates(q, nullptr);
  ASSERT_EQ(serial.size(), 8u) << q.name;
  for (size_t threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    const std::vector<OnlineUpdate> parallel = AllUpdates(q, &pool);
    ASSERT_EQ(parallel.size(), serial.size()) << q.name;
    for (size_t i = 0; i < serial.size(); ++i) {
      const std::string where =
          std::string(q.name) + " threads=" + std::to_string(threads) +
          " update " + std::to_string(i + 1);
      ExpectBitIdentical(serial[i].result, parallel[i].result, where);
      const double a = serial[i].max_rsd;
      const double b = parallel[i].max_rsd;
      EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0)
          << where << ": max_rsd " << a << " vs " << b;
      EXPECT_EQ(serial[i].uncertain_tuples, parallel[i].uncertain_tuples) << where;
      EXPECT_EQ(serial[i].uncertain_groups, parallel[i].uncertain_groups) << where;
    }
  }
}

TEST_P(PipelineEquivalenceTest, ParallelOnlineConvergesToBatchAnswer) {
  const NamedQuery& q = GetParam();
  ThreadPool pool(4);
  Table online = DrainOnline(q, &pool);

  BatchExecOptions batch_opts;
  batch_opts.pool = &pool;
  auto exact = engine()->ExecuteBatch(q.sql, batch_opts);
  ASSERT_TRUE(exact.ok()) << q.name << ": " << exact.status().ToString();

  ASSERT_EQ(online.num_rows(), exact->num_rows()) << q.name;
  for (int64_t r = 0; r < exact->num_rows(); ++r) {
    for (size_t c = 0; c < exact->schema()->num_fields(); ++c) {
      Value a = online.At(r, static_cast<int>(c));
      Value b = exact->At(r, static_cast<int>(c));
      if (b.type() == TypeId::kString) {
        EXPECT_TRUE(a == b) << q.name << " row " << r << " col " << c;
        continue;
      }
      double da = a.ToDouble().ValueOr(1e100);
      double db = b.ToDouble().ValueOr(-1e100);
      EXPECT_NEAR(da, db, 1e-6 * (1 + std::fabs(db)))
          << q.name << " row " << r << " col " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPaperQueries, PipelineEquivalenceTest,
                         ::testing::ValuesIn(AllQueries()),
                         [](const ::testing::TestParamInfo<NamedQuery>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace gola
