// Vectorized kernel layer: group-id computation vs the boxed oracle,
// selection-vector predicate evaluation vs full-mask evaluation, gather,
// the fused weight-and-fold replicate kernel vs WeightsFor plus per-row
// oracle updates, and the fast-path fixes of the oracle's ReplicatedAgg that
// ride along with them.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
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

// One aggregate of a FoldReplicates case and the argument it reads.
enum class FoldArg { kStar, kString, kX, kXNulls, kY, kYNulls };

struct FoldSpec {
  AggKind kind;
  FoldArg arg;
};

// COUNT(*), COUNT over a string column with nulls, SUM and AVG with and
// without nulls, and two generic aggregates: VAR over a numeric argument and
// MIN over the string one.
constexpr FoldSpec kFoldSpecs[] = {
    {AggKind::kCountStar, FoldArg::kStar}, {AggKind::kCount, FoldArg::kString},
    {AggKind::kSum, FoldArg::kX},          {AggKind::kAvg, FoldArg::kYNulls},
    {AggKind::kVar, FoldArg::kXNulls},     {AggKind::kSum, FoldArg::kXNulls},
    {AggKind::kAvg, FoldArg::kY},          {AggKind::kMin, FoldArg::kString},
};
constexpr size_t kNumFoldSpecs = sizeof(kFoldSpecs) / sizeof(kFoldSpecs[0]);

// A chunk's worth of argument columns, indexed by row id, and row serials.
struct FoldColumns {
  explicit FoldColumns(size_t n, uint64_t seed) : s(TypeId::kString) {
    Rng rng(seed);
    for (size_t r = 0; r < n; ++r) {
      serials.push_back(rng.UniformInt(0, int64_t{1} << 40));
      x.push_back(rng.Normal(10, 40));
      y.push_back(rng.Exponential(3));
      x_nulls.push_back(rng.UniformInt(0, 3) == 0 ? 1 : 0);
      y_nulls.push_back(rng.UniformInt(0, 4) == 0 ? 1 : 0);
      if (rng.UniformInt(0, 3) == 0) {
        s.AppendNull();
      } else {
        s.AppendString(std::string(1, static_cast<char>('a' + rng.UniformInt(0, 9))));
      }
    }
  }

  // Whether the oracle skips row r: SQL aggregates skip a null argument.
  bool Skips(FoldArg arg, uint32_t r) const {
    switch (arg) {
      case FoldArg::kString: return s.IsNull(r);
      case FoldArg::kXNulls: return x_nulls[r] != 0;
      case FoldArg::kYNulls: return y_nulls[r] != 0;
      default: return false;
    }
  }
  void Fold(FoldArg arg, uint32_t r, const std::vector<int32_t>& w,
            ReplicatedAgg* agg) const {
    if (Skips(arg, r)) return;
    switch (arg) {
      case FoldArg::kStar: agg->UpdateValueWeighted(Value::Int(1), w); break;
      case FoldArg::kString: agg->UpdateValueWeighted(s.GetValue(r), w); break;
      case FoldArg::kX:
      case FoldArg::kXNulls: agg->UpdateNumericWeighted(x[r], w); break;
      case FoldArg::kY:
      case FoldArg::kYNulls: agg->UpdateNumericWeighted(y[r], w); break;
    }
  }
  // The kernel's view of the same argument, as FoldGroup builds it.
  kernels::ReplicateTarget Target(FoldArg arg, ReplicatedAgg* agg) const {
    kernels::ReplicateTarget t;
    switch (arg) {
      case FoldArg::kStar: break;
      case FoldArg::kString:
        t.nulls = s.nulls().data();
        if (!agg->has_flat_replicates()) t.column = &s;
        break;
      case FoldArg::kX: t.values = x.data(); break;
      case FoldArg::kXNulls: t.values = x.data(); t.nulls = x_nulls.data(); break;
      case FoldArg::kY: t.values = y.data(); break;
      case FoldArg::kYNulls: t.values = y.data(); t.nulls = y_nulls.data(); break;
    }
    if (agg->has_flat_replicates()) {
      t.sums = agg->flat_sum_data();
      t.counts = agg->flat_count_data();
    } else {
      t.states = agg->replicate_states();
    }
    return t;
  }

  std::vector<int64_t> serials;
  std::vector<double> x, y;
  std::vector<uint8_t> x_nulls, y_nulls;
  Column s;
};

// Bitwise equality of two doubles arrays (NaN payloads included).
void ExpectSameBits(const double* a, const double* b, size_t n, const std::string& what) {
  for (size_t j = 0; j < n; ++j) {
    uint64_t ba, bb;
    std::memcpy(&ba, &a[j], sizeof ba);
    std::memcpy(&bb, &b[j], sizeof bb);
    ASSERT_EQ(ba, bb) << what << " replicate " << j << ": " << a[j] << " vs " << b[j];
  }
}

// The fused kernel against WeightsFor plus per-row oracle updates, bit for
// bit, over every replicate count that exercises a distinct chunking (B not
// a multiple of four, one chunk, a 512-replicate chunk plus a 1-replicate
// tail), group sizes around the 8-row draw block, and 1-6 aggregates. Every
// state starts from a base folded through the oracle, as an overlay row
// copied from its base does.
TEST(FoldReplicatesTest, BitIdenticalToWeightsForAndRowUpdates) {
  const size_t kMaxRows = 500;
  FoldColumns cols(2 * kMaxRows + 2, 17);
  FoldColumns base_cols(40, 99);
  for (int b : {2, 3, 5, 80, 100, 513}) {
    PoissonWeights weights(b, 1234 + static_cast<uint64_t>(b));
    std::vector<int32_t> w;
    for (size_t n : {1, 7, 8, 9, 128, 129, 500}) {
      // Ascending, non-contiguous row ids.
      std::vector<uint32_t> rows(n);
      for (size_t i = 0; i < n; ++i) rows[i] = static_cast<uint32_t>(2 * i + (i % 3 == 0));
      for (size_t num_targets = 1; num_targets <= 6; ++num_targets) {
        const size_t first = (n + num_targets + static_cast<size_t>(b)) % kNumFoldSpecs;
        std::vector<FoldSpec> specs;
        for (size_t a = 0; a < num_targets; ++a) {
          specs.push_back(kFoldSpecs[(first + a) % kNumFoldSpecs]);
        }
        std::vector<ReplicatedAgg> expect, got;
        for (const FoldSpec& spec : specs) {
          ReplicatedAgg base(ResolveKind(spec.kind), &weights);
          for (uint32_t r = 0; r < base_cols.serials.size(); ++r) {
            weights.WeightsFor(base_cols.serials[r], &w);
            base_cols.Fold(spec.arg, r, w, &base);
          }
          expect.push_back(base.Clone());
          got.push_back(base.Clone());
        }
        for (uint32_t r : rows) {
          weights.WeightsFor(cols.serials[r], &w);
          for (size_t a = 0; a < num_targets; ++a) cols.Fold(specs[a].arg, r, w, &expect[a]);
        }
        std::vector<kernels::ReplicateTarget> targets;
        for (size_t a = 0; a < num_targets; ++a) {
          targets.push_back(cols.Target(specs[a].arg, &got[a]));
        }
        kernels::FoldReplicates(weights, cols.serials.data(), rows.data(), n,
                                targets.data(), targets.size());

        for (size_t a = 0; a < num_targets; ++a) {
          const std::string what = "B=" + std::to_string(b) + " rows=" + std::to_string(n) +
                                   " targets=" + std::to_string(num_targets) + " agg " +
                                   std::to_string(a) + " (" + AggKindName(specs[a].kind) + ")";
          const auto ub = static_cast<size_t>(b);
          if (expect[a].has_flat_replicates()) {
            ExpectSameBits(expect[a].flat_sum_data(), got[a].flat_sum_data(), ub, what + " sum");
            ExpectSameBits(expect[a].flat_count_data(), got[a].flat_count_data(), ub,
                           what + " count");
          } else {
            std::vector<double> e = expect[a].FinalizeReplicates(1.0);
            std::vector<double> g = got[a].FinalizeReplicates(1.0);
            ExpectSameBits(e.data(), g.data(), ub, what);
          }
        }
      }
    }
  }
}

// The kernel draws exactly WeightsFor's weights: a lone COUNT(*) row's
// replicate counts are its weights, for any replicate count.
TEST(FoldReplicatesTest, SingleCountRowReceivesItsWeights) {
  for (int b : {1, 4, 511, 512, 513, 1030}) {
    PoissonWeights weights(b, 7);
    const std::vector<int64_t> serials = {0, 123456789};
    const uint32_t row = 1;
    std::vector<double> sums(static_cast<size_t>(b)), counts(static_cast<size_t>(b));
    kernels::ReplicateTarget target;
    target.sums = sums.data();
    target.counts = counts.data();
    kernels::FoldReplicates(weights, serials.data(), &row, 1, &target, 1);
    std::vector<int32_t> w;
    weights.WeightsFor(serials[1], &w);
    for (size_t j = 0; j < w.size(); ++j) {
      ASSERT_EQ(counts[j], static_cast<double>(w[j])) << "B=" << b << " replicate " << j;
      ASSERT_EQ(sums[j], static_cast<double>(w[j])) << "B=" << b << " replicate " << j;
    }
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
