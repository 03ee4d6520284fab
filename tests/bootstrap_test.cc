// Poissonized-bootstrap machinery: deterministic weights, replicate state
// algebra (flat fast path vs generic), CI math and variation ranges.
#include <gtest/gtest.h>

#include <cmath>

#include "bootstrap/ci.h"
#include "bootstrap/poisson.h"
#include "common/random.h"
#include "support/replicated_agg.h"

namespace gola {
namespace {

TEST(PoissonWeightsTest, PureFunctionOfSeedSerialReplicate) {
  PoissonWeights a(100, 42), b(100, 42), c(100, 43);
  std::vector<int32_t> wa, wb;
  for (int64_t serial : {0, 1, 999999}) {
    a.WeightsFor(serial, &wa);
    b.WeightsFor(serial, &wb);
    EXPECT_EQ(wa, wb);
    for (int j = 0; j < 100; ++j) EXPECT_EQ(wa[static_cast<size_t>(j)], a.Weight(serial, j));
  }
  // A different seed yields different weights somewhere.
  a.WeightsFor(7, &wa);
  c.WeightsFor(7, &wb);
  EXPECT_NE(wa, wb);
}

TEST(PoissonWeightsTest, MeanNearOne) {
  PoissonWeights weights(100, 7);
  double sum = 0;
  std::vector<int32_t> w;
  const int n = 2000;
  for (int64_t s = 0; s < n; ++s) {
    weights.WeightsFor(s, &w);
    for (int32_t x : w) sum += x;
  }
  EXPECT_NEAR(sum / (n * 100.0), 1.0, 0.01);
}

TEST(CiTest, PercentileCiBracketsCenter) {
  std::vector<double> reps;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) reps.push_back(rng.Normal(50, 5));
  ConfidenceInterval ci = PercentileCI(reps, 50.0, 0.95);
  EXPECT_LT(ci.lo, 50.0);
  EXPECT_GT(ci.hi, 50.0);
  // 95% normal interval ≈ ±1.96σ.
  EXPECT_NEAR(ci.lo, 50 - 1.96 * 5, 1.0);
  EXPECT_NEAR(ci.hi, 50 + 1.96 * 5, 1.0);
}

TEST(CiTest, DegenerateReplicates) {
  ConfidenceInterval ci = PercentileCI({}, 3.0);
  EXPECT_DOUBLE_EQ(ci.lo, 3.0);
  EXPECT_DOUBLE_EQ(ci.hi, 3.0);
  EXPECT_DOUBLE_EQ(RelativeStdDev({}, 3.0), 0.0);
}

TEST(CiTest, NanReplicatesSkipped) {
  double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> reps = {nan, 10, 12, nan, 14};
  EXPECT_DOUBLE_EQ(ReplicateMean(reps), 12.0);
  EXPECT_NEAR(ReplicateStddev(reps), 2.0, 1e-12);
  VariationRange r = VariationRange::FromReplicates(reps, 12.0, 0.0);
  EXPECT_DOUBLE_EQ(r.lo, 10);
  EXPECT_DOUBLE_EQ(r.hi, 14);
}

TEST(VariationRangeTest, EpsilonPadding) {
  std::vector<double> reps = {10, 12, 14};
  VariationRange tight = VariationRange::FromReplicates(reps, 12, 0.0);
  VariationRange padded = VariationRange::FromReplicates(reps, 12, 1.0);
  EXPECT_DOUBLE_EQ(tight.lo, 10);
  EXPECT_DOUBLE_EQ(tight.hi, 14);
  EXPECT_LT(padded.lo, tight.lo);
  EXPECT_GT(padded.hi, tight.hi);
  EXPECT_TRUE(padded.Contains(tight));
  EXPECT_FALSE(tight.Contains(padded));
}

TEST(VariationRangeTest, EstimateAlwaysInsideRange) {
  // Even if the point estimate lies outside the replicate extremes.
  VariationRange r = VariationRange::FromReplicates({5, 6, 7}, 9.0, 0.0);
  EXPECT_TRUE(r.Contains(9.0));
}

TEST(VariationRangeTest, ContainsAndOverlaps) {
  VariationRange a{0, 10};
  VariationRange b{2, 8};
  VariationRange c{9, 12};
  VariationRange d{11, 13};
  EXPECT_TRUE(a.Contains(b));
  EXPECT_TRUE(a.Overlaps(c));
  EXPECT_FALSE(a.Overlaps(d));
  EXPECT_FALSE(b.Contains(a));
}

const AggregateFunction* ResolveKind(AggKind kind) {
  Expr call;
  call.kind = ExprKind::kAggregateCall;
  call.agg_kind = kind;
  return *ResolveAggregate(call);
}

/// Folds one observation under the replicate weights of its serial.
void Fold(ReplicatedAgg* agg, const PoissonWeights& weights, double v, int64_t serial) {
  std::vector<int32_t> w;
  weights.WeightsFor(serial, &w);
  agg->UpdateNumericWeighted(v, w);
}

TEST(ReplicatedAggTest, ReplicatesMatchManualComputation) {
  // The flat fast path must reproduce exactly what per-replicate weighted
  // updates would produce.
  PoissonWeights weights(32, 11);
  ReplicatedAgg agg(ResolveKind(AggKind::kSum), &weights);
  std::vector<double> manual(32, 0.0);
  std::vector<double> counts(32, 0.0);
  Rng rng(5);
  for (int64_t s = 0; s < 500; ++s) {
    double v = rng.UniformDouble(0, 10);
    Fold(&agg, weights, v, s);
    for (int j = 0; j < 32; ++j) {
      manual[static_cast<size_t>(j)] += v * weights.Weight(s, j);
      counts[static_cast<size_t>(j)] += weights.Weight(s, j);
    }
  }
  std::vector<double> reps = agg.FinalizeReplicates(2.0);
  ASSERT_EQ(reps.size(), 32u);
  for (int j = 0; j < 32; ++j) {
    if (counts[static_cast<size_t>(j)] == 0) {
      EXPECT_TRUE(std::isnan(reps[static_cast<size_t>(j)]));
    } else {
      EXPECT_NEAR(reps[static_cast<size_t>(j)], manual[static_cast<size_t>(j)] * 2.0,
                  1e-9);
    }
  }
}

TEST(ReplicatedAggTest, RecomputeReconstructsIdenticalState) {
  // Folding the same (value, serial) pairs in a different order yields the
  // same replicate outputs — the property failure recovery relies on.
  PoissonWeights weights(64, 3);
  ReplicatedAgg forward(ResolveKind(AggKind::kAvg), &weights);
  ReplicatedAgg backward(ResolveKind(AggKind::kAvg), &weights);
  std::vector<std::pair<double, int64_t>> rows;
  Rng rng(8);
  for (int64_t s = 0; s < 300; ++s) rows.push_back({rng.Normal(5, 2), s});
  for (const auto& [v, s] : rows) Fold(&forward, weights, v, s);
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) {
    Fold(&backward, weights, it->first, it->second);
  }
  std::vector<double> f = forward.FinalizeReplicates(1.0);
  std::vector<double> b = backward.FinalizeReplicates(1.0);
  for (size_t j = 0; j < f.size(); ++j) EXPECT_NEAR(f[j], b[j], 1e-9);
}

TEST(ReplicatedAggTest, MergeEqualsSingleStream) {
  PoissonWeights weights(32, 5);
  ReplicatedAgg whole(ResolveKind(AggKind::kSum), &weights);
  ReplicatedAgg left(ResolveKind(AggKind::kSum), &weights);
  ReplicatedAgg right(ResolveKind(AggKind::kSum), &weights);
  for (int64_t s = 0; s < 200; ++s) {
    double v = static_cast<double>(s % 13);
    Fold(&whole, weights, v, s);
    Fold(s % 2 ? &left : &right, weights, v, s);
  }
  left.Merge(right);
  std::vector<double> a = whole.FinalizeReplicates(1.0);
  std::vector<double> b = left.FinalizeReplicates(1.0);
  for (size_t j = 0; j < a.size(); ++j) EXPECT_NEAR(a[j], b[j], 1e-9);
}

TEST(ReplicatedAggTest, CloneIsIndependent) {
  PoissonWeights weights(16, 9);
  ReplicatedAgg a(ResolveKind(AggKind::kCount), &weights);
  Fold(&a, weights, 1, 0);
  ReplicatedAgg b = a.Clone();
  Fold(&b, weights, 1, 1);
  EXPECT_DOUBLE_EQ(*a.Finalize(1.0).ToDouble(), 1.0);
  EXPECT_DOUBLE_EQ(*b.Finalize(1.0).ToDouble(), 2.0);
}

TEST(ReplicatedAggTest, RsdShrinksWithSampleSize) {
  PoissonWeights weights(100, 13);
  ReplicatedAgg agg(ResolveKind(AggKind::kAvg), &weights);
  Rng rng(2);
  int64_t serial = 0;
  auto rsd = [&agg] {
    return RelativeStdDev(agg.FinalizeReplicates(1.0), *agg.Finalize(1.0).ToDouble());
  };
  for (int i = 0; i < 100; ++i) Fold(&agg, weights, rng.Normal(100, 20), serial++);
  double early = rsd();
  for (int i = 0; i < 9900; ++i) Fold(&agg, weights, rng.Normal(100, 20), serial++);
  double late = rsd();
  EXPECT_LT(late, early / 3);  // ~1/sqrt(100) shrink expected
}

TEST(ReplicatedAggTest, GenericPathForMinMax) {
  // MIN has no flat fast path; exercises the per-state replicate vector.
  PoissonWeights weights(16, 21);
  ReplicatedAgg agg(ResolveKind(AggKind::kMin), &weights);
  for (int64_t s = 0; s < 50; ++s) {
    Fold(&agg, weights, static_cast<double>(100 - s), s);
  }
  EXPECT_DOUBLE_EQ(*agg.Finalize(1.0).ToDouble(), 51.0);
  std::vector<double> reps = agg.FinalizeReplicates(1.0);
  for (double r : reps) {
    if (!std::isnan(r)) {
      EXPECT_GE(r, 51.0);  // replicates subsample → min ≥ true min
    }
  }
}

}  // namespace
}  // namespace gola
