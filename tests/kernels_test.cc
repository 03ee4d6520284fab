// Vectorized kernel layer: group-id computation vs the boxed oracle,
// selection-vector predicate evaluation vs full-mask evaluation, gather,
// whole-chunk Poisson weight matrices, tiled replicate updates, and the
// fast-path fixes of the oracle's ReplicatedAgg that ride along with them.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "bootstrap/poisson.h"
#include "common/random.h"
#include "exec/kernels/agg_kernels.h"
#include "exec/kernels/group_ids.h"
#include "expr/evaluator.h"
#include "storage/chunk.h"
#include "support/replicated_agg.h"

namespace gola {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

const AggregateFunction* ResolveKind(AggKind kind) {
  Expr call;
  call.kind = ExprKind::kAggregateCall;
  call.agg_kind = kind;
  return *ResolveAggregate(call);
}

// Random key columns with NULLs across all typed paths.
std::vector<Column> RandomKeyColumns(size_t n, int arity, uint64_t seed) {
  Rng rng(seed);
  std::vector<Column> cols;
  for (int k = 0; k < arity; ++k) {
    int kind = static_cast<int>(rng.UniformInt(0, 3));
    Column c(kind == 0   ? TypeId::kInt64
             : kind == 1 ? TypeId::kFloat64
             : kind == 2 ? TypeId::kString
                         : TypeId::kBool);
    for (size_t i = 0; i < n; ++i) {
      if (rng.UniformInt(0, 9) == 0) {
        c.AppendNull();
        continue;
      }
      switch (kind) {
        case 0: c.AppendInt(rng.UniformInt(-3, 3)); break;
        case 1: c.AppendFloat(static_cast<double>(rng.UniformInt(-2, 2)) / 2.0); break;
        case 2: c.AppendString(std::string(1, static_cast<char>('a' + rng.UniformInt(0, 4)))); break;
        default: c.AppendBool(rng.UniformInt(0, 1) == 1); break;
      }
    }
    cols.push_back(std::move(c));
  }
  return cols;
}

TEST(GroupIdsTest, TypedMatchesGenericOracle) {
  for (int arity = 0; arity <= 3; ++arity) {
    for (uint64_t seed : {1u, 2u, 3u, 4u}) {
      size_t n = 500;
      std::vector<Column> cols = RandomKeyColumns(n, arity, seed * 100 + arity);
      kernels::GroupIds typed, generic;
      ASSERT_TRUE(kernels::ComputeGroupIds(cols, n, false, &typed).ok());
      ASSERT_TRUE(kernels::ComputeGroupIds(cols, n, true, &generic).ok());
      ASSERT_EQ(typed.num_groups, generic.num_groups) << "arity " << arity;
      // Same ids row-for-row: both paths assign ids in first-occurrence
      // order, so equal grouping implies equal id sequences.
      EXPECT_EQ(typed.ids, generic.ids) << "arity " << arity << " seed " << seed;
      EXPECT_EQ(typed.first_row, generic.first_row);
    }
  }
}

TEST(GroupIdsTest, NaNRowsFoundFreshGroups) {
  std::vector<Column> cols;
  cols.push_back(Column::MakeFloat({kNan, 1.0, kNan, 1.0}));
  kernels::GroupIds g;
  ASSERT_TRUE(kernels::ComputeGroupIds(cols, 4, false, &g).ok());
  // NaN != NaN: rows 0 and 2 each get their own group (matching what the
  // boxed map produces, since Value::== follows IEEE).
  EXPECT_EQ(g.num_groups, 3u);
  EXPECT_NE(g.ids[0], g.ids[2]);
  EXPECT_EQ(g.ids[1], g.ids[3]);
}

TEST(GroupIdsTest, NegativeZeroCoincidesAndNullsFormOneGroup) {
  Column c(TypeId::kFloat64);
  c.AppendFloat(-0.0);
  c.AppendNull();
  c.AppendFloat(0.0);
  c.AppendNull();
  std::vector<Column> cols{std::move(c)};
  kernels::GroupIds g;
  ASSERT_TRUE(kernels::ComputeGroupIds(cols, 4, false, &g).ok());
  EXPECT_EQ(g.num_groups, 2u);
  EXPECT_EQ(g.ids[0], g.ids[2]);  // -0.0 == 0.0
  EXPECT_EQ(g.ids[1], g.ids[3]);  // NULL == NULL
}

TEST(GroupIdsTest, CsrIsSortedAndComplete) {
  size_t n = 300;
  std::vector<Column> cols = RandomKeyColumns(n, 2, 7);
  kernels::GroupIds g;
  ASSERT_TRUE(kernels::ComputeGroupIds(cols, n, false, &g).ok());
  kernels::BuildGroupRows(&g);
  ASSERT_EQ(g.group_offsets.size(), g.num_groups + 1);
  ASSERT_EQ(g.group_rows.size(), n);
  size_t total = 0;
  for (size_t gi = 0; gi < g.num_groups; ++gi) {
    for (size_t i = g.group_offsets[gi]; i < g.group_offsets[gi + 1]; ++i) {
      EXPECT_EQ(g.ids[g.group_rows[i]], gi);
      if (i > g.group_offsets[gi]) {
        EXPECT_LT(g.group_rows[i - 1], g.group_rows[i]);
      }
      ++total;
    }
  }
  EXPECT_EQ(total, n);
}

TEST(PoissonMatrixTest, FillMatrixMatchesWeightsFor) {
  for (int b : {1, 3, 7, 100, 700}) {
    PoissonWeights weights(b, 42);
    std::vector<int64_t> serials = {0, 1, 17, 999999, 123456789};
    std::vector<int32_t> matrix(serials.size() * static_cast<size_t>(b));
    std::vector<int32_t> col_sums(static_cast<size_t>(b), -1);
    weights.FillMatrix(serials.data(), serials.size(), matrix.data(),
                       col_sums.data());
    std::vector<int32_t> row;
    for (size_t i = 0; i < serials.size(); ++i) {
      weights.WeightsFor(serials[i], &row);
      for (int j = 0; j < b; ++j) {
        EXPECT_EQ(matrix[i * static_cast<size_t>(b) + static_cast<size_t>(j)],
                  row[static_cast<size_t>(j)])
            << "serial " << serials[i] << " replicate " << j;
      }
    }
    for (int j = 0; j < b; ++j) {
      int32_t expect = 0;
      for (size_t i = 0; i < serials.size(); ++i) {
        expect += matrix[i * static_cast<size_t>(b) + static_cast<size_t>(j)];
      }
      EXPECT_EQ(col_sums[static_cast<size_t>(j)], expect) << "replicate " << j;
    }
  }
}

TEST(PoissonMatrixTest, FillMatrixSpansManyRowBlocks) {
  // 67 rows crosses the internal row-block boundary (blocks of 16) with a
  // ragged tail; every row must still match the per-tuple path.
  const int b = 33;
  PoissonWeights weights(b, 7);
  std::vector<int64_t> serials(67);
  for (size_t i = 0; i < serials.size(); ++i) {
    serials[i] = static_cast<int64_t>(i * i) + 5;
  }
  std::vector<int32_t> matrix(serials.size() * b);
  weights.FillMatrix(serials.data(), serials.size(), matrix.data());
  std::vector<int32_t> row;
  for (size_t i = 0; i < serials.size(); ++i) {
    weights.WeightsFor(serials[i], &row);
    for (int j = 0; j < b; ++j) {
      ASSERT_EQ(matrix[i * b + static_cast<size_t>(j)],
                row[static_cast<size_t>(j)])
          << "serial " << serials[i] << " replicate " << j;
    }
  }
}

TEST(GatherTest, MatchesTake) {
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"i", TypeId::kInt64}, {"x", TypeId::kFloat64}});
  Column x(TypeId::kFloat64);
  x.AppendFloat(1.5);
  x.AppendNull();
  x.AppendFloat(-2.0);
  x.AppendFloat(7.0);
  Chunk chunk(schema, {Column::MakeInt({1, 2, 3, 4}), std::move(x)});
  chunk.set_serials({10, 11, 12, 13});

  std::vector<uint32_t> sel = {3, 0, 2};
  Chunk gathered = chunk.Gather(sel);
  Chunk taken = chunk.Take({3, 0, 2});
  ASSERT_EQ(gathered.num_rows(), 3u);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_TRUE(gathered.column(c).GetValue(r) == taken.column(c).GetValue(r));
    }
    EXPECT_EQ(gathered.serials()[r], taken.serials()[r]);
  }
}

class PredicateIntoTest : public ::testing::Test {
 protected:
  static ExprPtr BoundCol(const char* name, int index, TypeId type) {
    ExprPtr e = Expr::Col(name);
    e->column_index = index;
    e->type = type;
    return e;
  }

  void SetUp() override {
    auto schema = std::make_shared<Schema>(std::vector<Field>{
        {"i", TypeId::kInt64}, {"x", TypeId::kFloat64}, {"s", TypeId::kString}});
    Column x(TypeId::kFloat64);
    x.AppendFloat(1.5);
    x.AppendNull();
    x.AppendFloat(-2.0);
    x.AppendFloat(9.5);
    x.AppendFloat(0.0);
    chunk_ = Chunk(schema, {Column::MakeInt({1, 2, 3, 4, 5}), std::move(x),
                            Column::MakeString({"a", "b", "c", "d", "e"})});
  }

  // Asserts the selection-vector path picks exactly the mask path's rows.
  void ExpectAgreement(const Expr& expr) {
    auto mask = EvaluatePredicate(expr, chunk_);
    ASSERT_TRUE(mask.ok());
    SelectionVector expected;
    for (size_t i = 0; i < mask->size(); ++i) {
      if ((*mask)[i]) expected.push_back(static_cast<uint32_t>(i));
    }
    SelectionVector sel(chunk_.num_rows());
    for (size_t i = 0; i < sel.size(); ++i) sel[i] = static_cast<uint32_t>(i);
    ASSERT_TRUE(EvaluatePredicateInto(expr, chunk_, nullptr, &sel).ok());
    EXPECT_EQ(sel, expected);
  }

  Chunk chunk_;
};

TEST_F(PredicateIntoTest, TypedComparisonsMatchMaskPath) {
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                   CmpOp::kGe}) {
    ExprPtr e = Expr::Cmp(op, BoundCol("x", 1, TypeId::kFloat64),
                          Expr::Lit(Value::Float(0.0)));
    e->type = TypeId::kBool;
    ExpectAgreement(*e);
    // Literal on the left exercises the flipped match.
    ExprPtr f = Expr::Cmp(op, Expr::Lit(Value::Int(3)),
                          BoundCol("i", 0, TypeId::kInt64));
    f->type = TypeId::kBool;
    ExpectAgreement(*f);
    ExprPtr g = Expr::Cmp(op, BoundCol("s", 2, TypeId::kString),
                          Expr::Lit(Value::String("c")));
    g->type = TypeId::kBool;
    ExpectAgreement(*g);
  }
}

TEST_F(PredicateIntoTest, ConjunctionRefinesInPlace) {
  ExprPtr lhs = Expr::Cmp(CmpOp::kGt, BoundCol("i", 0, TypeId::kInt64),
                          Expr::Lit(Value::Int(1)));
  lhs->type = TypeId::kBool;
  ExprPtr rhs = Expr::Cmp(CmpOp::kLt, BoundCol("x", 1, TypeId::kFloat64),
                          Expr::Lit(Value::Float(5.0)));
  rhs->type = TypeId::kBool;
  ExprPtr both = Expr::And(std::move(lhs), std::move(rhs));
  both->type = TypeId::kBool;
  ExpectAgreement(*both);
}

TEST_F(PredicateIntoTest, GenericFallbackMatchesMaskPath) {
  // col + col comparisons have no typed fast path → full-mask fallback.
  ExprPtr sum = Expr::Arith(ArithOp::kAdd, BoundCol("i", 0, TypeId::kInt64),
                            BoundCol("x", 1, TypeId::kFloat64));
  sum->type = TypeId::kFloat64;
  ExprPtr e = Expr::Cmp(CmpOp::kGe, std::move(sum), Expr::Lit(Value::Float(3.0)));
  e->type = TypeId::kBool;
  ExpectAgreement(*e);
}

TEST_F(PredicateIntoTest, StringNumericMismatchIsTypeError) {
  ExprPtr e = Expr::Cmp(CmpOp::kEq, BoundCol("s", 2, TypeId::kString),
                        Expr::Lit(Value::Int(1)));
  e->type = TypeId::kBool;
  SelectionVector sel = {0, 1, 2, 3, 4};
  Status st = EvaluatePredicateInto(*e, chunk_, nullptr, &sel);
  EXPECT_FALSE(st.ok());
}

TEST_F(PredicateIntoTest, RefinesOnlyGivenCandidates) {
  ExprPtr e = Expr::Cmp(CmpOp::kGt, BoundCol("i", 0, TypeId::kInt64),
                        Expr::Lit(Value::Int(0)));
  e->type = TypeId::kBool;
  SelectionVector sel = {1, 4};  // rows 0/2/3 were already filtered out
  ASSERT_TRUE(EvaluatePredicateInto(*e, chunk_, nullptr, &sel).ok());
  EXPECT_EQ(sel, (SelectionVector{1, 4}));
}

TEST(TiledReplicateUpdateTest, BitIdenticalToRowAtATimeFastPath) {
  // Three fused targets — AVG and SUM over distinct value columns plus a
  // COUNT(*)-style constant — swept in one pass, against per-row
  // UpdateNumericWeighted references.
  const int b = 100;
  const AggKind kinds[3] = {AggKind::kAvg, AggKind::kSum, AggKind::kCount};
  PoissonWeights weights(b, 42);
  std::vector<ReplicatedAgg> reference;
  std::vector<ReplicatedAgg> tiled;
  for (AggKind kind : kinds) {
    reference.emplace_back(ResolveKind(kind), &weights);
    tiled.emplace_back(ResolveKind(kind), &weights);
    ASSERT_TRUE(tiled.back().has_flat_replicates());
  }

  const size_t n = 257;  // not a multiple of the kernel's row tile
  std::vector<int64_t> serials;
  std::vector<double> avg_vals;
  std::vector<double> sum_vals;
  Rng rng(5);
  for (size_t i = 0; i < n; ++i) {
    serials.push_back(static_cast<int64_t>(i * 3 + 1));
    avg_vals.push_back(rng.Normal(10, 4));
    sum_vals.push_back(rng.Exponential(3));
  }

  std::vector<int32_t> matrix(n * b);
  weights.FillMatrix(serials.data(), n, matrix.data());
  std::vector<uint32_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = static_cast<uint32_t>(i);

  for (size_t i = 0; i < n; ++i) {
    reference[0].UpdateNumericWeighted(avg_vals[i], matrix.data() + i * b, b);
    reference[1].UpdateNumericWeighted(sum_vals[i], matrix.data() + i * b, b);
    reference[2].UpdateNumericWeighted(1.0, matrix.data() + i * b, b);
  }
  kernels::AccumulateSimpleMain(tiled[0].main_state()->simple_slots(),
                                avg_vals.data(), 0.0, rows.data(), n);
  kernels::AccumulateSimpleMain(tiled[1].main_state()->simple_slots(),
                                sum_vals.data(), 0.0, rows.data(), n);
  kernels::AccumulateSimpleMain(tiled[2].main_state()->simple_slots(), nullptr, 1.0,
                                rows.data(), n);
  kernels::ReplicateTarget targets[3] = {
      {avg_vals.data(), 0.0, tiled[0].flat_sum_data(), tiled[0].flat_count_data()},
      {sum_vals.data(), 0.0, tiled[1].flat_sum_data(), tiled[1].flat_count_data()},
      {nullptr, 1.0, tiled[2].flat_sum_data(), tiled[2].flat_count_data()},
  };
  kernels::TiledReplicateUpdate(targets, 3, rows.data(), /*wrows=*/nullptr, n,
                                matrix.data(), b);

  // Same update through the precomputed-column-sums entry point.
  std::vector<ReplicatedAgg> tiled_cs;
  for (AggKind kind : kinds) tiled_cs.emplace_back(ResolveKind(kind), &weights);
  std::vector<int32_t> col_sums(b);
  weights.FillMatrix(serials.data(), n, matrix.data(), col_sums.data());
  kernels::ReplicateTarget targets_cs[3] = {
      {avg_vals.data(), 0.0, tiled_cs[0].flat_sum_data(),
       tiled_cs[0].flat_count_data()},
      {sum_vals.data(), 0.0, tiled_cs[1].flat_sum_data(),
       tiled_cs[1].flat_count_data()},
      {nullptr, 1.0, tiled_cs[2].flat_sum_data(), tiled_cs[2].flat_count_data()},
  };
  for (size_t t = 0; t < 3; ++t) {
    kernels::AccumulateSimpleMain(tiled_cs[t].main_state()->simple_slots(),
                                  targets_cs[t].values,
                                  targets_cs[t].constant_value, rows.data(), n);
  }
  kernels::TiledReplicateUpdate(targets_cs, 3, rows.data(), /*wrows=*/nullptr, n,
                                matrix.data(), b, col_sums.data());

  // Bitwise equality, not approximate: the kernel replays the reference's
  // exact floating-point op sequence for every sum stream, and the count
  // streams are pure small-integer arithmetic, which is exact under any
  // summation order.
  for (size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(*reference[t].Finalize(1.0).ToDouble(), *tiled[t].Finalize(1.0).ToDouble())
        << "agg " << t;
    std::vector<double> a = reference[t].FinalizeReplicates(1.5);
    std::vector<double> c = tiled[t].FinalizeReplicates(1.5);
    std::vector<double> cs = tiled_cs[t].FinalizeReplicates(1.5);
    ASSERT_EQ(a.size(), c.size());
    ASSERT_EQ(a.size(), cs.size());
    for (size_t j = 0; j < a.size(); ++j) {
      if (!(std::isnan(a[j]) && std::isnan(c[j]))) {
        EXPECT_EQ(a[j], c[j]) << "agg " << t << " replicate " << j;
      }
      if (!(std::isnan(a[j]) && std::isnan(cs[j]))) {
        EXPECT_EQ(a[j], cs[j]) << "agg " << t << " replicate " << j
                               << " (col_sums path)";
      }
    }
  }
}

// A null-filtered selection uses its own (value-row, weight-row) index
// pair; the sweep must read weight row wrows[i], not the value row.
TEST(TiledReplicateUpdateTest, FilteredSelectionUsesWeightRowIndices) {
  const int b = 37;  // not a multiple of the generator's quad width
  PoissonWeights weights(b, 11);
  ReplicatedAgg reference(ResolveKind(AggKind::kSum), &weights);
  ReplicatedAgg tiled(ResolveKind(AggKind::kSum), &weights);

  const size_t n = 9;
  std::vector<int64_t> serials = {3, 8, 15, 21, 22, 40, 41, 57, 90};
  std::vector<double> values = {1.5, -2.0, 0.25, 7.0, 3.5, -1.0, 2.0, 4.0, 8.0};
  std::vector<int32_t> matrix(n * b);
  weights.FillMatrix(serials.data(), n, matrix.data());

  // Keep every other row, as a null filter would.
  std::vector<uint32_t> vrows = {0, 2, 4, 6, 8};
  std::vector<uint32_t> wrows = {0, 2, 4, 6, 8};
  for (uint32_t r : vrows) {
    reference.UpdateNumericWeighted(values[r], matrix.data() + r * b, b);
  }
  kernels::AccumulateSimpleMain(tiled.main_state()->simple_slots(), values.data(),
                                0.0, vrows.data(), vrows.size());
  kernels::ReplicateTarget one{values.data(), 0.0, tiled.flat_sum_data(),
                               tiled.flat_count_data()};
  kernels::TiledReplicateUpdate(&one, 1, vrows.data(), wrows.data(), vrows.size(),
                                matrix.data(), b);

  EXPECT_EQ(*reference.Finalize(1.0).ToDouble(), *tiled.Finalize(1.0).ToDouble());
  std::vector<double> a = reference.FinalizeReplicates(2.0);
  std::vector<double> c = tiled.FinalizeReplicates(2.0);
  ASSERT_EQ(a.size(), c.size());
  for (size_t j = 0; j < a.size(); ++j) {
    if (std::isnan(a[j]) && std::isnan(c[j])) continue;
    EXPECT_EQ(a[j], c[j]) << "replicate " << j;
  }
}

// Regression (fast-path NULL handling): a value that cannot widen to double
// — NULL or a string — must be skipped outright. Previously the SimpleAggKind
// fast path accumulated 0.0 and bumped every count, silently turning
// AVG(x) over {“oops”, 4.0} into 2.0.
TEST(ReplicatedAggTest, UnwidenableValuesAreSkippedByFastPath) {
  PoissonWeights weights(16, 9);
  ReplicatedAgg agg(ResolveKind(AggKind::kAvg), &weights);
  ASSERT_TRUE(agg.has_flat_replicates());
  std::vector<int32_t> w;
  weights.WeightsFor(0, &w);
  agg.UpdateValueWeighted(Value::String("oops"), w);
  agg.UpdateValueWeighted(Value::Null(), w);
  weights.WeightsFor(1, &w);
  agg.UpdateValueWeighted(Value::Float(4.0), w);
  EXPECT_DOUBLE_EQ(*agg.Finalize(1.0).ToDouble(), 4.0);
  // Replicates likewise saw exactly one observation.
  std::vector<int32_t> w1;
  weights.WeightsFor(1, &w1);
  std::vector<double> reps = agg.FinalizeReplicates(1.0);
  for (size_t j = 0; j < reps.size(); ++j) {
    if (w1[j] == 0) {
      EXPECT_TRUE(std::isnan(reps[j]));
    } else {
      EXPECT_DOUBLE_EQ(reps[j], 4.0);
    }
  }
}

TEST(ReplicatedAggDeathTest, MergeRejectsReplicateCountMismatch) {
  PoissonWeights w16(16, 9);
  PoissonWeights w32(32, 9);
  ReplicatedAgg a(ResolveKind(AggKind::kSum), &w16);
  ReplicatedAgg b(ResolveKind(AggKind::kSum), &w32);
  EXPECT_DEATH(a.Merge(b), "");
}

}  // namespace
}  // namespace gola
