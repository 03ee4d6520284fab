// Statistical validity of the error estimates: over many independent
// datasets, the 95% bootstrap CI reported mid-stream must cover the
// dataset's true answer roughly 95% of the time, and the running estimate
// must be unbiased.
#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "gola/gola.h"

namespace gola {
namespace {

Table MakeData(int64_t n, uint64_t seed, double* true_mean_out) {
  Rng rng(seed);
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"x", TypeId::kFloat64}});
  TableBuilder builder(schema, 512);
  double sum = 0;
  for (int64_t i = 0; i < n; ++i) {
    double v = rng.LogNormal(3.0, 1.0);  // skewed, CLT is slow here
    sum += v;
    builder.AppendRow({Value::Float(v)});
  }
  *true_mean_out = sum / static_cast<double>(n);
  return builder.Finish();
}

TEST(StatisticsTest, CiCoversTruthAtRoughlyNominalRate) {
  const int kTrials = 60;
  int covered = 0;
  double bias_acc = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    double true_mean = 0;
    Engine engine;
    GOLA_CHECK_OK(engine.RegisterTable(
        "d", MakeData(4000, 1000 + static_cast<uint64_t>(trial), &true_mean)));
    GolaOptions opts;
    opts.num_batches = 10;
    opts.bootstrap_replicates = 100;
    opts.seed = 77 + static_cast<uint64_t>(trial);
    auto online = engine.ExecuteOnline("SELECT AVG(x) AS m FROM d", opts);
    ASSERT_TRUE(online.ok());
    // Evaluate coverage at the 20%-of-data point (batch 2).
    auto u1 = (*online)->Step();
    ASSERT_TRUE(u1.ok());
    auto u2 = (*online)->Step();
    ASSERT_TRUE(u2.ok());
    double lo = u2->result.At(0, 1).ToDouble().ValueOr(0);
    double hi = u2->result.At(0, 2).ToDouble().ValueOr(0);
    if (true_mean >= lo && true_mean <= hi) ++covered;
    bias_acc += (u2->result.At(0, 0).ToDouble().ValueOr(0) - true_mean) / true_mean;
  }
  double coverage = static_cast<double>(covered) / kTrials;
  // Nominal 95%; allow a generous band for 60 trials (binomial sd ≈ 2.8%).
  EXPECT_GE(coverage, 0.82) << "coverage " << coverage;
  // Unbiasedness: the average relative error must be near zero.
  EXPECT_NEAR(bias_acc / kTrials, 0.0, 0.02);
}

TEST(StatisticsTest, RsdTracksTrueErrorScale) {
  // RSD reported by the bootstrap should approximate the actual relative
  // deviation magnitude across independent streams of the same data.
  double true_mean = 0;
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("d", MakeData(8000, 5, &true_mean)));
  double rsd_reported = 0;
  std::vector<double> errors;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    GolaOptions opts;
    opts.num_batches = 10;
    opts.bootstrap_replicates = 100;
    opts.seed = 900 + seed;
    auto online = engine.ExecuteOnline("SELECT AVG(x) AS m FROM d", opts);
    ASSERT_TRUE(online.ok());
    auto u = (*online)->Step();
    ASSERT_TRUE(u.ok());
    double est = u->result.At(0, 0).ToDouble().ValueOr(0);
    errors.push_back((est - true_mean) / true_mean);
    rsd_reported += u->result.At(0, 3).ToDouble().ValueOr(0);
  }
  rsd_reported /= 20;
  double err_sd = 0;
  for (double e : errors) err_sd += e * e;
  err_sd = std::sqrt(err_sd / errors.size());
  // Same order of magnitude (finite-population effects make the empirical
  // spread slightly smaller than the bootstrap's i.i.d. estimate).
  EXPECT_GT(rsd_reported, err_sd * 0.4);
  EXPECT_LT(rsd_reported, err_sd * 3.0);
}

// Empirical-coverage audit of the Poisson-replicate CI on a known
// distribution: over `trials` independent datasets drawn by `gen`, the
// mid-stream (batch 2 of 8, 25% of data) 95% CI must cover the dataset's
// true mean at roughly the nominal rate. Returns the observed coverage.
template <typename Gen>
double CoverageOnDistribution(Gen gen, int trials, uint64_t seed_base) {
  int covered = 0;
  for (int trial = 0; trial < trials; ++trial) {
    Rng rng(seed_base + static_cast<uint64_t>(trial));
    auto schema = std::make_shared<Schema>(
        std::vector<Field>{{"x", TypeId::kFloat64}});
    TableBuilder builder(schema, 512);
    double sum = 0;
    const int64_t n = 3000;
    for (int64_t i = 0; i < n; ++i) {
      const double v = gen(rng);
      sum += v;
      builder.AppendRow({Value::Float(v)});
    }
    const double true_mean = sum / static_cast<double>(n);

    Engine engine;
    GOLA_CHECK_OK(engine.RegisterTable("d", builder.Finish()));
    GolaOptions opts;
    opts.num_batches = 8;
    opts.bootstrap_replicates = 100;
    opts.seed = 5000 + static_cast<uint64_t>(trial);
    auto online = engine.ExecuteOnline("SELECT AVG(x) AS m FROM d", opts);
    EXPECT_TRUE(online.ok());
    if (!online.ok()) return 0;
    auto u1 = (*online)->Step();
    auto u2 = (*online)->Step();
    EXPECT_TRUE(u2.ok());
    if (!u2.ok()) return 0;
    const obs::GroupCell& cell = u2->headline;
    EXPECT_TRUE(cell.has_estimate);
    if (true_mean >= cell.ci_lo && true_mean <= cell.ci_hi) ++covered;
  }
  return static_cast<double>(covered) / trials;
}

TEST(StatisticsTest, CiCoversUniformDistribution) {
  // Uniform is the friendly case: light tails, CLT kicks in immediately.
  const double coverage = CoverageOnDistribution(
      [](Rng& rng) { return rng.UniformDouble(10.0, 90.0); }, 40, 20000);
  EXPECT_GE(coverage, 0.82) << "uniform coverage " << coverage;
}

TEST(StatisticsTest, CiCoversHeavyTailedDistribution) {
  // LogNormal with sigma 1.6: variance is dominated by rare huge values —
  // the regime where a miscalibrated bootstrap under-covers first.
  const double coverage = CoverageOnDistribution(
      [](Rng& rng) { return rng.LogNormal(2.0, 1.6); }, 40, 30000);
  EXPECT_GE(coverage, 0.75) << "heavy-tailed coverage " << coverage;
}

TEST(StatisticsTest, CiCoversRareGroupUnderSkew) {
  // The BlinkDB failure mode: a group holding ~3% of rows in a skewed
  // group-by. Its per-group CI must still cover its true mean at roughly
  // the nominal rate — per-group bootstrap replicates, not global ones,
  // are what make this work.
  const int kTrials = 40;
  int covered = 0, observed = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    Rng rng(40000 + static_cast<uint64_t>(trial));
    auto schema = std::make_shared<Schema>(std::vector<Field>{
        {"g", TypeId::kString}, {"x", TypeId::kFloat64}});
    TableBuilder builder(schema, 512);
    double rare_sum = 0;
    int64_t rare_n = 0;
    for (int64_t i = 0; i < 4000; ++i) {
      const bool rare = rng.NextDouble() < 0.03;
      // Distinct group means so a cross-group mixup cannot pass by luck.
      const double v = rare ? rng.LogNormal(4.0, 0.8) : rng.LogNormal(2.0, 1.0);
      if (rare) {
        rare_sum += v;
        ++rare_n;
      }
      builder.AppendRow({Value::String(rare ? "rare" : "common"),
                         Value::Float(v)});
    }
    ASSERT_GT(rare_n, 0);
    const double rare_mean = rare_sum / static_cast<double>(rare_n);

    Engine engine;
    GOLA_CHECK_OK(engine.RegisterTable("d", builder.Finish()));
    GolaOptions opts;
    opts.num_batches = 8;
    opts.bootstrap_replicates = 100;
    opts.seed = 60000 + static_cast<uint64_t>(trial);
    auto online =
        engine.ExecuteOnline("SELECT g, AVG(x) AS m FROM d GROUP BY g", opts);
    ASSERT_TRUE(online.ok());
    // Half the data folded: the rare group has seen only ~60 rows.
    OnlineUpdate update;
    for (int b = 0; b < 4; ++b) {
      auto u = (*online)->Step();
      ASSERT_TRUE(u.ok());
      update = std::move(*u);
    }
    for (const obs::GroupCell& cell : (*online)->cells()) {
      if (cell.group_key != "rare" || !cell.has_estimate) continue;
      ++observed;
      if (rare_mean >= cell.ci_lo && rare_mean <= cell.ci_hi) ++covered;
    }
  }
  ASSERT_GT(observed, kTrials / 2) << "rare group rarely materialized";
  const double coverage = static_cast<double>(covered) / observed;
  // Small-sample bootstrap on ~60 rows is noisier than the scalar case;
  // gate against collapse (a miscalibrated per-group CI sits near 0.5).
  EXPECT_GE(coverage, 0.7) << "rare-group coverage " << coverage;
}

TEST(StatisticsTest, EstimatesConvergeAtSqrtRate) {
  double true_mean = 0;
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("d", MakeData(20000, 9, &true_mean)));
  GolaOptions opts;
  opts.num_batches = 16;
  opts.bootstrap_replicates = 80;
  auto online = engine.ExecuteOnline("SELECT AVG(x) AS m FROM d", opts);
  ASSERT_TRUE(online.ok());
  double rsd_at_1 = 0, rsd_at_16 = 0;
  int i = 0;
  while (!(*online)->done()) {
    auto u = (*online)->Step();
    ASSERT_TRUE(u.ok());
    ++i;
    if (i == 1) rsd_at_1 = u->max_rsd;
    if (i == 16) rsd_at_16 = u->max_rsd;
  }
  // 16x the data → ~4x tighter (allow slack for bootstrap noise).
  EXPECT_LT(rsd_at_16, rsd_at_1 / 2.0);
}

}  // namespace
}  // namespace gola
