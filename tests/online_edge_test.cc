// Edge cases of the online engine: degenerate sizes, NULL-heavy data,
// string group keys, dimension joins (§2: only the fact table streams),
// every aggregate kind maintained online, and option extremes.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/random.h"
#include "gola/gola.h"
#include "workload/conviva_gen.h"

namespace gola {
namespace {

class OnlineEdgeTest : public ::testing::Test {
 protected:
  void Register(const std::string& name, Table t) {
    GOLA_CHECK_OK(engine_.RegisterTable(name, std::move(t)));
  }

  /// Online final answer must equal the batch answer.
  void ExpectConverges(const std::string& sql, GolaOptions opts = {}) {
    if (opts.num_batches == 100) opts.num_batches = 7;
    opts.bootstrap_replicates = 25;
    auto online = engine_.ExecuteOnline(sql, opts);
    ASSERT_TRUE(online.ok()) << sql << ": " << online.status().ToString();
    auto last = (*online)->Run();
    ASSERT_TRUE(last.ok()) << sql << ": " << last.status().ToString();
    auto exact = engine_.ExecuteBatch(sql);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    ASSERT_EQ(last->result.num_rows(), exact->num_rows()) << sql;
    for (int64_t r = 0; r < exact->num_rows(); ++r) {
      for (size_t c = 0; c < exact->schema()->num_fields(); ++c) {
        Value a = last->result.At(r, static_cast<int>(c));
        Value b = exact->At(r, static_cast<int>(c));
        if (b.is_null()) {
          EXPECT_TRUE(a.is_null()) << sql;
        } else if (b.type() == TypeId::kString) {
          EXPECT_TRUE(a == b) << sql;
        } else {
          EXPECT_NEAR(a.ToDouble().ValueOr(1e99), b.ToDouble().ValueOr(-1e99),
                      1e-7 * (1 + std::fabs(b.ToDouble().ValueOr(0))))
              << sql << " row " << r << " col " << c;
        }
      }
    }
  }

  Engine engine_;
};

TEST_F(OnlineEdgeTest, TinyTableFewerRowsThanBatches) {
  auto schema = std::make_shared<Schema>(std::vector<Field>{{"x", TypeId::kFloat64}});
  TableBuilder b(schema);
  for (int i = 1; i <= 5; ++i) b.AppendRow({Value::Float(i)});
  Register("tiny", b.Finish());
  GolaOptions opts;
  opts.num_batches = 20;  // more batches than rows
  ExpectConverges("SELECT SUM(x), AVG(x), COUNT(*) FROM tiny", opts);
}

TEST_F(OnlineEdgeTest, SingleBatchDegeneratesToBatchEngine) {
  auto schema = std::make_shared<Schema>(std::vector<Field>{{"x", TypeId::kFloat64}});
  TableBuilder b(schema);
  Rng rng(4);
  for (int i = 0; i < 200; ++i) b.AppendRow({Value::Float(rng.NextDouble())});
  Register("t", b.Finish());
  GolaOptions opts;
  opts.num_batches = 1;
  ExpectConverges("SELECT AVG(x) FROM t WHERE x > (SELECT AVG(x) FROM t)", opts);
}

TEST_F(OnlineEdgeTest, EmptySelectionStillEmitsGlobalRow) {
  auto schema = std::make_shared<Schema>(std::vector<Field>{{"x", TypeId::kFloat64}});
  TableBuilder b(schema);
  for (int i = 0; i < 100; ++i) b.AppendRow({Value::Float(1.0)});
  Register("t", b.Finish());
  // Nothing passes the filter: SUM is NULL, COUNT is 0, every batch.
  GolaOptions opts;
  opts.num_batches = 4;
  opts.bootstrap_replicates = 10;
  auto online = engine_.ExecuteOnline("SELECT SUM(x), COUNT(*) FROM t WHERE x > 5", opts);
  ASSERT_TRUE(online.ok());
  while (!(*online)->done()) {
    auto u = (*online)->Step();
    ASSERT_TRUE(u.ok());
    ASSERT_EQ(u->result.num_rows(), 1);
    EXPECT_TRUE(u->result.At(0, 0).is_null());
    EXPECT_DOUBLE_EQ(u->result.At(0, 1).ToDouble().ValueOr(-1), 0.0);
  }
}

TEST_F(OnlineEdgeTest, NullHeavyColumn) {
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"g", TypeId::kInt64}, {"x", TypeId::kFloat64}});
  TableBuilder b(schema);
  Rng rng(6);
  for (int i = 0; i < 600; ++i) {
    // Two thirds of the measurements are NULL.
    Value x = rng.Bernoulli(0.66) ? Value::Null() : Value::Float(rng.Normal(10, 2));
    b.AppendRow({Value::Int(rng.UniformInt(1, 3)), x});
  }
  Register("t", b.Finish());
  ExpectConverges(
      "SELECT g, COUNT(*) AS n, COUNT(x) AS nx, AVG(x) AS m FROM t GROUP BY g ORDER BY g");
}

TEST_F(OnlineEdgeTest, StringGroupKeysOnline) {
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"label", TypeId::kString}, {"x", TypeId::kFloat64}});
  TableBuilder b(schema);
  Rng rng(7);
  const char* labels[] = {"red", "green", "blue"};
  for (int i = 0; i < 500; ++i) {
    b.AppendRow({Value::String(labels[rng.NextBelow(3)]),
                 Value::Float(rng.Exponential(5))});
  }
  Register("t", b.Finish());
  ExpectConverges(
      "SELECT label, SUM(x) AS s FROM t "
      "WHERE x > (SELECT AVG(x) FROM t) GROUP BY label ORDER BY label");
}

/// 2 000 rows: a two-valued key g, and a string name with 400 NULLs. Group
/// 0's names are p/q/r, group 1's only q/r, so MIN(name) is 'p' in group 0
/// alone.
Table NamesTable() {
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"g", TypeId::kInt64}, {"name", TypeId::kString}});
  TableBuilder b(schema);
  const char* names[] = {"p", "q", "r"};
  for (int i = 0; i < 2000; ++i) {
    const int g = i % 2;
    Value name = i % 5 == 4 ? Value::Null() : Value::String(names[g + (i / 2) % (3 - g)]);
    b.AppendRow({Value::Int(g), name});
  }
  return b.Finish();
}

TEST_F(OnlineEdgeTest, CountOfStringColumnCountsNonNullValues) {
  Register("t", NamesTable());
  // The flat COUNT fold dropped every value that does not widen to double,
  // so the online COUNT(name) stayed 0 while the exact answer was 1600.
  ExpectConverges("SELECT COUNT(name) AS n, COUNT(*) AS m FROM t");
  ExpectConverges("SELECT g, COUNT(name) AS n FROM t GROUP BY g ORDER BY g");

  GolaOptions opts;
  opts.num_batches = 7;
  opts.bootstrap_replicates = 25;
  auto online = engine_.ExecuteOnline("SELECT COUNT(name) AS n FROM t", opts);
  ASSERT_TRUE(online.ok()) << online.status().ToString();
  auto last = (*online)->Run();
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_EQ(last->result.At(0, 0).ToDouble().ValueOr(0), 1600);
  EXPECT_EQ(last->headline.column, "n");
  EXPECT_TRUE(last->headline.has_estimate);
}

TEST_F(OnlineEdgeTest, StringValuedAggregatesFinishOnline) {
  Register("t", NamesTable());
  // A string aggregate output has no error bars: no companions, no typed
  // cell; the headline and max_rsd come from the numeric COUNT(*).
  const std::string flat = "SELECT MIN(name) AS lo, COUNT(*) AS n FROM t";
  ExpectConverges(flat);
  GolaOptions opts;
  opts.num_batches = 7;
  opts.bootstrap_replicates = 25;
  auto online = engine_.ExecuteOnline(flat, opts);
  ASSERT_TRUE(online.ok()) << online.status().ToString();
  auto last = (*online)->Run();
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_FALSE(last->result.schema()->FieldIndex("lo_lo").ok());
  EXPECT_TRUE(last->result.schema()->FieldIndex("n_rsd").ok());
  EXPECT_EQ(last->headline.column, "n");
  EXPECT_TRUE(std::isfinite(last->max_rsd));

  // A string HAVING side classifies no key: every key stays uncertain and
  // the final answer is exact.
  ExpectConverges(
      "SELECT g, COUNT(*) AS n FROM t WHERE g IN "
      "(SELECT g FROM t GROUP BY g HAVING MIN(name) = 'p') GROUP BY g ORDER BY g");
}

TEST_F(OnlineEdgeTest, DimensionJoinWhileStreamingFact) {
  // §2: stream the fact table, read the dimension in entirety.
  auto fact_schema = std::make_shared<Schema>(
      std::vector<Field>{{"k", TypeId::kInt64}, {"v", TypeId::kFloat64}});
  TableBuilder fact(fact_schema);
  Rng rng(8);
  for (int i = 0; i < 800; ++i) {
    fact.AppendRow({Value::Int(rng.UniformInt(1, 10)), Value::Float(rng.Normal(20, 5))});
  }
  Register("fact", fact.Finish());
  auto dim_schema = std::make_shared<Schema>(
      std::vector<Field>{{"dk", TypeId::kInt64}, {"region", TypeId::kString}});
  TableBuilder dim(dim_schema);
  for (int i = 1; i <= 10; ++i) {
    dim.AppendRow({Value::Int(i), Value::String(i <= 5 ? "east" : "west")});
  }
  Register("dim", dim.Finish());
  ExpectConverges(
      "SELECT region, AVG(v) AS m FROM fact, dim WHERE k = dk "
      "AND v > (SELECT AVG(v) FROM fact) GROUP BY region ORDER BY region");
}

TEST_F(OnlineEdgeTest, AllAggregateKindsOnline) {
  auto schema = std::make_shared<Schema>(std::vector<Field>{{"x", TypeId::kFloat64}});
  TableBuilder b(schema);
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) b.AppendRow({Value::Float(rng.Normal(100, 15))});
  Register("t", b.Finish());
  // MIN/MAX/VAR/STDDEV/QUANTILE use the generic replicate path; QUANTILE's
  // reservoir is deterministic so online == batch holds exactly.
  ExpectConverges(
      "SELECT MIN(x), MAX(x), VAR(x), STDDEV(x), QUANTILE(x, 0.9), COUNT(*) FROM t");
}

TEST_F(OnlineEdgeTest, LimitZero) {
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"g", TypeId::kInt64}, {"x", TypeId::kFloat64}});
  TableBuilder b(schema);
  for (int i = 0; i < 100; ++i) b.AppendRow({Value::Int(i % 5), Value::Float(i)});
  Register("t", b.Finish());
  GolaOptions opts;
  opts.num_batches = 3;
  opts.bootstrap_replicates = 10;
  auto online = engine_.ExecuteOnline(
      "SELECT g, SUM(x) FROM t GROUP BY g ORDER BY g LIMIT 0", opts);
  ASSERT_TRUE(online.ok());
  auto last = (*online)->Run();
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->result.num_rows(), 0);
}

TEST_F(OnlineEdgeTest, PartitionWiseRandomnessMode) {
  auto schema = std::make_shared<Schema>(std::vector<Field>{{"x", TypeId::kFloat64}});
  TableBuilder b(schema, /*chunk_size=*/50);
  Rng rng(10);
  for (int i = 0; i < 500; ++i) b.AppendRow({Value::Float(rng.NextDouble())});
  Register("t", b.Finish());
  GolaOptions opts;
  opts.num_batches = 10;
  opts.row_shuffle = false;  // §2 default: randomly ordered partitions
  ExpectConverges("SELECT AVG(x) FROM t WHERE x > (SELECT AVG(x) FROM t)", opts);
}

TEST_F(OnlineEdgeTest, UdafScalesWithMultiplicityOnline) {
  SimpleUdafSpec weighted_total;
  weighted_total.name = "double_sum";
  weighted_total.scales_with_multiplicity = true;
  weighted_total.step = [](std::vector<double>& acc, double v, double w) {
    acc[0] += 2 * v * w;
  };
  weighted_total.merge = [](std::vector<double>& acc, const std::vector<double>& o) {
    acc[0] += o[0];
  };
  weighted_total.finalize = [](const std::vector<double>& acc, double scale) {
    return acc[0] * scale;
  };
  GOLA_CHECK_OK(RegisterUdaf(weighted_total));

  auto schema = std::make_shared<Schema>(std::vector<Field>{{"x", TypeId::kFloat64}});
  TableBuilder b(schema);
  for (int i = 1; i <= 300; ++i) b.AppendRow({Value::Float(1.0)});
  Register("t", b.Finish());

  GolaOptions opts;
  opts.num_batches = 3;
  opts.bootstrap_replicates = 10;
  auto online = engine_.ExecuteOnline("SELECT double_sum(x) FROM t", opts);
  ASSERT_TRUE(online.ok()) << online.status().ToString();
  // After batch 1 (100 rows, scale 3): estimate = 2*100*3 = 600.
  auto u = (*online)->Step();
  ASSERT_TRUE(u.ok());
  EXPECT_NEAR(u->result.At(0, 0).ToDouble().ValueOr(0), 600.0, 1e-9);
  auto last = (*online)->Run();
  ASSERT_TRUE(last.ok());
  EXPECT_NEAR(last->result.At(0, 0).ToDouble().ValueOr(0), 600.0, 1e-9);
}

TEST_F(OnlineEdgeTest, ForcedFailuresStillExactForEveryConjunctForm) {
  // ε = 0 and no support gate → razor-thin envelopes → frequent range
  // failures. The recompute path must preserve exactness for the global
  // scalar, correlated scalar and membership forms alike.
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"g", TypeId::kInt64}, {"x", TypeId::kFloat64},
                         {"y", TypeId::kFloat64}});
  TableBuilder b(schema);
  Rng rng(12);
  for (int i = 0; i < 1200; ++i) {
    b.AppendRow({Value::Int(rng.UniformInt(1, 5)),
                 Value::Float(rng.LogNormal(1.0, 0.8)),
                 Value::Float(rng.Normal(30, 9))});
  }
  Register("t", b.Finish());

  GolaOptions opts;
  opts.num_batches = 8;
  opts.epsilon_mult = 0.0;
  opts.min_group_support = 0;
  const char* queries[] = {
      "SELECT AVG(y) FROM t WHERE x > (SELECT AVG(x) FROM t)",
      "SELECT COUNT(*) FROM t s WHERE x > (SELECT AVG(x) FROM t u WHERE u.g = s.g)",
      "SELECT SUM(y) FROM t WHERE g IN (SELECT g FROM t GROUP BY g "
      "                                 HAVING AVG(x) > 2.5)",
  };
  for (size_t q = 0; q < 3; ++q) {
    const char* sql = queries[q];
    SCOPED_TRACE(sql);
    ExpectConverges(sql, opts);
    auto online = engine_.ExecuteOnline(sql, opts);
    ASSERT_TRUE(online.ok());
    auto last = (*online)->Run();
    ASSERT_TRUE(last.ok());
    // The scalar forms must actually have exercised the failure path at
    // ε = 0. (Membership uses decision-validity monitoring, which may
    // legitimately never trip when no decision sits near the threshold.)
    if (q < 2) {
      EXPECT_GT(last->recomputes_so_far, 0) << sql;
    }
  }
}

/// 20 000 conviva rows over 64 ads and 24 geos: enough groups that a
/// hash-ordered emission and a key-ordered one disagree.
Table ManyGroupsConviva() {
  ConvivaGenOptions conviva;
  conviva.num_rows = 20'000;
  conviva.num_ads = 64;
  return GenerateConviva(conviva);
}

// Without ORDER BY the answer lists groups in emission order, which both
// engines take from the key order of the one group state they share, so the
// final online answer lists the exact answer's rows in the same positions.
TEST_F(OnlineEdgeTest, UnorderedStringGroupsListTheExactRows) {
  Register("conviva", ManyGroupsConviva());
  GolaOptions opts;
  opts.num_batches = 10;
  ExpectConverges("SELECT geo, COUNT(*) AS n FROM conviva GROUP BY geo", opts);
}

// LIMIT without ORDER BY keeps the first groups of that order: the same
// five ads exactly and online.
TEST_F(OnlineEdgeTest, LimitWithoutOrderKeepsTheExactGroups) {
  Register("conviva", ManyGroupsConviva());
  GolaOptions opts;
  opts.num_batches = 10;
  ExpectConverges("SELECT ad_id, COUNT(*) AS n FROM conviva GROUP BY ad_id LIMIT 5",
                  opts);
}

/// 4 000 rows: a correlation key k in {0, 1, 2, 3}, NULL in a fifth of the
/// rows, and a measure x.
Table NullKeyTable() {
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"k", TypeId::kInt64}, {"x", TypeId::kFloat64}});
  TableBuilder b(schema);
  Rng rng(25);
  for (int i = 0; i < 4000; ++i) {
    Value k = rng.Bernoulli(0.2) ? Value::Null() : Value::Int(rng.UniformInt(0, 3));
    b.AppendRow({k, Value::Float(rng.Exponential(10))});
  }
  return b.Finish();
}

// b.k = a.k is never true for a NULL a.k, so the subquery is over no rows:
// NULL, and the comparison with it fails. The NULL group of the inner block
// must not answer for a NULL outer key, exactly or online.
TEST_F(OnlineEdgeTest, NullCorrelationKeyMatchesNoGroup) {
  const Table data = NullKeyTable();
  std::vector<double> sum(4, 0);
  std::vector<int64_t> count(4, 0);
  int64_t null_rows = 0;
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    if (data.At(r, 0).is_null()) {
      ++null_rows;
      continue;
    }
    sum[data.At(r, 0).AsInt()] += data.At(r, 1).AsFloat();
    ++count[data.At(r, 0).AsInt()];
  }
  Register("t", NullKeyTable());
  for (const char* op : {">", "<"}) {
    int64_t want = 0;
    for (int64_t r = 0; r < data.num_rows(); ++r) {
      if (data.At(r, 0).is_null()) continue;
      const int64_t k = data.At(r, 0).AsInt();
      const double threshold = 0.5 * (sum[k] / static_cast<double>(count[k]));
      const double x = data.At(r, 1).AsFloat();
      if (*op == '>' ? x > threshold : x < threshold) ++want;
    }
    const std::string sql = std::string("SELECT COUNT(*) AS n FROM t a WHERE a.x ") + op +
                            " 0.5 * (SELECT AVG(x) FROM t b WHERE b.k = a.k)";
    SCOPED_TRACE(sql);
    auto exact = engine_.ExecuteBatch(sql);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    EXPECT_EQ(exact->At(0, 0).ToDouble().ValueOr(-1), static_cast<double>(want));
    GolaOptions opts;
    opts.num_batches = 8;
    opts.bootstrap_replicates = 25;
    auto online = engine_.ExecuteOnline(sql, opts);
    ASSERT_TRUE(online.ok()) << online.status().ToString();
    auto last = (*online)->Run();
    ASSERT_TRUE(last.ok()) << last.status().ToString();
    EXPECT_EQ(last->result.At(0, 0).ToDouble().ValueOr(-1), static_cast<double>(want));
    // Decided false at once, like a NULL lhs: the NULL-key rows never wait
    // in the uncertain set.
    EXPECT_LT(last->uncertain_tuples, null_rows);
  }
}

// An IN subquery skips NULL probe keys and NULL members: the rows whose k is
// NULL never match, though the NULL group passes HAVING.
TEST_F(OnlineEdgeTest, NullKeysNeverMatchAnInSubquery) {
  const Table data = NullKeyTable();
  Register("t", NullKeyTable());
  int64_t want = 0;
  for (int64_t r = 0; r < data.num_rows(); ++r) want += data.At(r, 0).is_null() ? 0 : 1;
  const char* sql =
      "SELECT COUNT(*) AS n FROM t WHERE k IN "
      "(SELECT k FROM t GROUP BY k HAVING COUNT(*) > 10)";
  auto exact = engine_.ExecuteBatch(sql);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(exact->At(0, 0).ToDouble().ValueOr(-1), static_cast<double>(want));
  GolaOptions opts;
  opts.num_batches = 8;
  opts.bootstrap_replicates = 25;
  auto online = engine_.ExecuteOnline(sql, opts);
  ASSERT_TRUE(online.ok()) << online.status().ToString();
  auto last = (*online)->Run();
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_EQ(last->result.At(0, 0).ToDouble().ValueOr(-1), static_cast<double>(want));
}

TEST_F(OnlineEdgeTest, StepAfterDoneErrors) {
  auto schema = std::make_shared<Schema>(std::vector<Field>{{"x", TypeId::kFloat64}});
  TableBuilder b(schema);
  for (int i = 0; i < 10; ++i) b.AppendRow({Value::Float(i)});
  Register("t", b.Finish());
  GolaOptions opts;
  opts.num_batches = 2;
  opts.bootstrap_replicates = 5;
  auto online = engine_.ExecuteOnline("SELECT AVG(x) FROM t", opts);
  ASSERT_TRUE(online.ok());
  ASSERT_TRUE((*online)->Run().ok());
  EXPECT_TRUE((*online)->done());
  EXPECT_FALSE((*online)->Step().ok());
}

}  // namespace
}  // namespace gola
