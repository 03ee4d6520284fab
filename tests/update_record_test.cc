// The typed per-update record: the root emission's typed cells agree with
// the result table's `_lo`/`_hi`/`_rsd` companions bit for bit; a column
// whose name merely ends in `_lo` is never read as a companion; a NULL
// estimate has no error bars and never reads as converged; and every JSON
// surface stays valid JSON (no raw control bytes, no bare inf or nan).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "gola/gola.h"
#include "obs/metrics.h"
#include "obs/query_registry.h"
#include "workload/conviva_gen.h"
#include "workload/queries.h"
#include "workload/tpch_gen.h"

namespace gola {
namespace {

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// The text after `"key": ` up to the next ',' or '}'.
std::string RawField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return "<missing>";
  const size_t begin = pos + needle.size();
  return json.substr(begin, json.find_first_of(",}", begin) - begin);
}

/// JSON has no inf/nan literals and no raw control bytes.
void ExpectJsonSafe(const std::string& json) {
  for (const char* bad : {"inf", "nan", "INF", "NAN"}) {
    EXPECT_EQ(json.find(bad), std::string::npos) << bad << " in: " << json;
  }
  for (char c : json) {
    if (c == '\n') continue;  // record separators of JSONL/statusz
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "raw control byte in: " << json;
  }
}

// --- typed cells vs. the result table --------------------------------------

Engine* LibraryEngine() {
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

/// Every cell equals its row's value and companions bit for bit, in
/// row-major order, keyed by the row's non-aggregate outputs.
void ExpectCellsMatchTable(const OnlineQueryExecutor& exec, const OnlineUpdate& update,
                           const std::string& what) {
  const BlockDef& root = exec.query().root();
  const Table& t = update.result;
  const Schema& schema = *t.schema();
  std::vector<int> key_cols, agg_cols;
  for (size_t o = 0; o < root.output_exprs.size(); ++o) {
    (root.output_exprs[o]->ContainsAggregate() ? agg_cols : key_cols)
        .push_back(static_cast<int>(o));
  }
  const std::vector<obs::GroupCell>& cells = exec.cells();
  if (t.num_rows() == 0) {
    EXPECT_TRUE(cells.empty()) << what;
    return;
  }
  ASSERT_EQ(cells.size(), static_cast<size_t>(t.num_rows()) * agg_cols.size()) << what;
  size_t i = 0;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    std::string key = key_cols.empty() ? "*" : "";
    for (size_t k = 0; k < key_cols.size(); ++k) {
      if (k) key += '|';
      key += t.At(r, key_cols[k]).ToString();
    }
    for (int o : agg_cols) {
      const obs::GroupCell& cell = cells[i++];
      const std::string& name = root.output_names[static_cast<size_t>(o)];
      EXPECT_EQ(cell.group_key, key) << what;
      EXPECT_EQ(cell.column, name) << what;
      const Value value = t.At(r, o);
      const Value lo = t.At(r, *schema.FieldIndex(name + "_lo"));
      const Value hi = t.At(r, *schema.FieldIndex(name + "_hi"));
      const Value rsd = t.At(r, *schema.FieldIndex(name + "_rsd"));
      if (value.is_null()) {
        EXPECT_FALSE(cell.has_estimate) << what;
        EXPECT_FALSE(cell.has_rsd) << what;
        EXPECT_TRUE(lo.is_null() && hi.is_null() && rsd.is_null()) << what;
        EXPECT_TRUE(std::isinf(update.max_rsd)) << what;
        continue;
      }
      ASSERT_TRUE(cell.has_estimate && cell.has_rsd) << what << " row " << r;
      EXPECT_TRUE(SameBits(cell.estimate, *value.ToDouble())) << what << " row " << r;
      EXPECT_TRUE(SameBits(cell.ci_lo, lo.AsFloat())) << what << " row " << r;
      EXPECT_TRUE(SameBits(cell.ci_hi, hi.AsFloat())) << what << " row " << r;
      EXPECT_TRUE(SameBits(cell.rsd, rsd.AsFloat())) << what << " row " << r;
    }
  }
  EXPECT_EQ(update.headline.group_key, cells[0].group_key) << what;
  EXPECT_TRUE(SameBits(update.headline.estimate, cells[0].estimate)) << what;
}

TEST(UpdateRecordTest, TypedCellsMatchTheTableOnEveryUpdate) {
  ThreadPool pool(4);
  for (const NamedQuery& q : AllQueries()) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      GolaOptions opts;
      opts.num_batches = 8;
      opts.bootstrap_replicates = 40;
      opts.seed = 99;
      opts.pool = p;
      auto online = LibraryEngine()->ExecuteOnline(q.sql, opts);
      ASSERT_TRUE(online.ok()) << q.name << ": " << online.status().ToString();
      while (!(*online)->done()) {
        auto update = (*online)->Step();
        ASSERT_TRUE(update.ok()) << q.name;
        ExpectCellsMatchTable(**online, *update,
                              q.name + (p ? " pool" : " serial") + " batch " +
                                  std::to_string(update->batch_index));
      }
    }
  }
}

// --- a column named like a companion ---------------------------------------

TEST(UpdateRecordTest, ColumnEndingInLoIsNotACompanion) {
  obs::SetMetricsEnabled(true);
  ConvivaGenOptions conviva;
  conviva.num_rows = 4000;
  conviva.num_ads = 4;
  conviva.num_contents = 50;
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("conviva", GenerateConviva(conviva)));
  const std::string path = ::testing::TempDir() + "update_record_x_lo.jsonl";
  GolaOptions opts;
  opts.num_batches = 10;
  opts.bootstrap_replicates = 50;
  opts.convergence_path = path;
  auto online = engine.ExecuteOnline(
      "SELECT ad_id AS x, AVG(buffer_time) AS x_lo FROM conviva GROUP BY ad_id", opts);
  ASSERT_TRUE(online.ok()) << online.status().ToString();
  std::vector<OnlineUpdate> updates;
  while (!(*online)->done()) {
    auto update = (*online)->Step();
    ASSERT_TRUE(update.ok());
    updates.push_back(std::move(*update));
  }
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), updates.size());
  for (size_t u = 0; u < updates.size(); ++u) {
    const OnlineUpdate& update = updates[u];
    const obs::GroupCell& h = update.headline;
    // The headline is the AVG of the first row, not the ad_id key.
    ASSERT_TRUE(h.has_estimate && h.has_rsd) << "batch " << u + 1;
    EXPECT_EQ(h.column, "x_lo");
    EXPECT_EQ(h.group_key, update.result.At(0, 0).ToString());
    EXPECT_TRUE(SameBits(h.estimate, *update.result.At(0, 1).ToDouble()));
    EXPECT_LE(h.ci_lo, h.estimate);
    EXPECT_LE(h.estimate, h.ci_hi);
    EXPECT_EQ(update.groups.groups_total, update.result.num_rows());
    EXPECT_EQ(update.groups.cells_total, update.result.num_rows());
    // The convergence record agrees with the typed headline.
    const std::string& line = lines[u];
    ExpectJsonSafe(line);
    // The JSONL prints 10 significant digits.
    EXPECT_NEAR(std::stod(RawField(line, "estimate")), h.estimate, 1e-8 * h.estimate);
    EXPECT_NEAR(std::stod(RawField(line, "ci_lo")), h.ci_lo, 1e-8 * h.estimate);
    EXPECT_NEAR(std::stod(RawField(line, "ci_hi")), h.ci_hi, 1e-8 * h.estimate);
    EXPECT_NE(RawField(line, "rsd"), "null") << line;
    EXPECT_EQ(RawField(line, "groups_total"), std::to_string(update.result.num_rows()));
    EXPECT_EQ(RawField(line, "cells_total"), std::to_string(update.result.num_rows()));
  }
  EXPECT_EQ(updates.back().result.num_rows(), 4);  // one row per ad_id
  std::remove(path.c_str());
}

// --- a NULL estimate --------------------------------------------------------

/// 10 000 rows of which 5 (0.05 %) satisfy x > 1000.
Table RareMatches() {
  auto schema = std::make_shared<Schema>(std::vector<Field>{{"x", TypeId::kFloat64}});
  TableBuilder builder(schema, 1024);
  for (int64_t i = 0; i < 10000; ++i) {
    builder.AppendRow({Value::Float(i % 2000 == 7 ? 1000.0 + static_cast<double>(i)
                                                  : static_cast<double>(i % 1000))});
  }
  return builder.Finish();
}

TEST(UpdateRecordTest, NullEstimateIsNeverConverged) {
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("t", RareMatches()));
  const std::string sql = "SELECT AVG(x) AS a FROM t WHERE x > 1000";
  const std::string path = ::testing::TempDir() + "update_record_null.jsonl";
  GolaOptions opts;
  opts.num_batches = 100;
  opts.bootstrap_replicates = 50;
  opts.convergence_path = path;
  {
    auto online = engine.ExecuteOnline(sql, opts);
    ASSERT_TRUE(online.ok()) << online.status().ToString();
    auto first = (*online)->Step();
    ASSERT_TRUE(first.ok());
    ASSERT_EQ(first->result.num_rows(), 1);
    ASSERT_TRUE(first->result.At(0, 0).is_null()) << "no match in batch 1 expected";
    // No estimate, no error bars — and nothing that reads as converged.
    for (int c = 1; c <= 3; ++c) EXPECT_TRUE(first->result.At(0, c).is_null()) << c;
    EXPECT_FALSE(first->headline.has_estimate);
    EXPECT_FALSE(first->headline.has_rsd);
    EXPECT_TRUE(std::isinf(first->max_rsd));
    EXPECT_FALSE(first->max_rsd < 0.02);
    ExpectJsonSafe(obs::QueryRegistry::Global().StatuszJson());
  }
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 1u);
  ExpectJsonSafe(lines[0]);
  EXPECT_EQ(RawField(lines[0], "max_rsd"), "null");
  EXPECT_EQ(RawField(lines[0], "rsd"), "null");
  EXPECT_EQ(RawField(lines[0], "estimate"), "null");
  std::remove(path.c_str());

  // The accuracy stop must not return the NULL answer of batch 1.
  opts.convergence_path.clear();
  auto online = engine.ExecuteOnline(sql, opts);
  ASSERT_TRUE(online.ok());
  auto stopped = (*online)->RunToAccuracy(0.05);
  ASSERT_TRUE(stopped.ok());
  EXPECT_GT(stopped->batch_index, 1);
  EXPECT_FALSE(stopped->result.At(0, 0).is_null());
  EXPECT_TRUE(stopped->headline.has_estimate);
}

TEST(UpdateRecordTest, ZeroEstimateAndEmptyAnswerAreNeverConverged) {
  // Five matches in 10 000 rows: batch 1 almost surely sees none of them.
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"g", TypeId::kInt64}, {"x", TypeId::kFloat64}});
  TableBuilder builder(schema, 1024);
  for (int64_t i = 0; i < 10000; ++i) {
    builder.AppendRow({Value::Int(i % 4),
                       Value::Float(i % 2000 == 7 ? 1000.0 + static_cast<double>(i)
                                                  : static_cast<double>(i % 1000))});
  }
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("t", builder.Finish()));
  GolaOptions opts;
  opts.num_batches = 100;
  opts.bootstrap_replicates = 50;

  // A COUNT of 0 keeps its interval, but its RSD is absent: a spread
  // relative to 0 says nothing about convergence.
  const std::string count_sql = "SELECT COUNT(*) AS n FROM t WHERE x > 1000";
  {
    auto online = engine.ExecuteOnline(count_sql, opts);
    ASSERT_TRUE(online.ok()) << online.status().ToString();
    auto first = (*online)->Step();
    ASSERT_TRUE(first.ok());
    ASSERT_EQ(first->result.num_rows(), 1);
    ASSERT_EQ(first->result.At(0, 0).ToDouble().ValueOr(-1), 0.0)
        << "no match in batch 1 expected";
    EXPECT_FALSE(first->result.At(0, 1).is_null());  // n_lo
    EXPECT_FALSE(first->result.At(0, 2).is_null());  // n_hi
    EXPECT_TRUE(first->result.At(0, 3).is_null());   // n_rsd
    EXPECT_TRUE(first->headline.has_estimate);
    EXPECT_EQ(first->headline.estimate, 0.0);
    EXPECT_FALSE(first->headline.has_rsd);
    EXPECT_TRUE(std::isinf(first->max_rsd));
  }
  {
    auto online = engine.ExecuteOnline(count_sql, opts);
    ASSERT_TRUE(online.ok());
    auto stopped = (*online)->RunToAccuracy(0.05);
    ASSERT_TRUE(stopped.ok());
    EXPECT_GT(stopped->batch_index, 1);
    EXPECT_GT(stopped->result.At(0, 0).ToDouble().ValueOr(0), 0.0);
  }

  // A grouped answer with no rows yet has no cells, and so no accuracy.
  const std::string grouped_sql =
      "SELECT g, AVG(x) AS a FROM t WHERE x > 1000 GROUP BY g";
  {
    auto online = engine.ExecuteOnline(grouped_sql, opts);
    ASSERT_TRUE(online.ok()) << online.status().ToString();
    auto first = (*online)->Step();
    ASSERT_TRUE(first.ok());
    ASSERT_EQ(first->result.num_rows(), 0) << "no match in batch 1 expected";
    EXPECT_TRUE((*online)->cells().empty());
    EXPECT_TRUE(std::isinf(first->max_rsd));
    EXPECT_FALSE(first->max_rsd < 0.02);
  }
  auto online = engine.ExecuteOnline(grouped_sql, opts);
  ASSERT_TRUE(online.ok());
  auto stopped = (*online)->RunToAccuracy(0.05);
  ASSERT_TRUE(stopped.ok());
  EXPECT_GT(stopped->batch_index, 1);
  EXPECT_GT(stopped->result.num_rows(), 0);
}

// --- key rendering and escaping ---------------------------------------------

TEST(UpdateRecordTest, ScalarCellKeyIsStarAndGroupKeysAreEscaped) {
  obs::SetMetricsEnabled(true);
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"geo", TypeId::kString}, {"buffer_time", TypeId::kFloat64}});
  TableBuilder builder(schema, 256);
  const char* geos[] = {"us\x01", "de\n", "fr\"", "jp\\"};
  for (int64_t i = 0; i < 2000; ++i) {
    builder.AppendRow({Value::String(geos[i % 4]),
                       Value::Float(static_cast<double>((i * 37) % 101))});
  }
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("conviva", builder.Finish()));
  GolaOptions opts;
  opts.num_batches = 4;
  opts.bootstrap_replicates = 30;

  auto scalar = engine.ExecuteOnline("SELECT AVG(buffer_time) AS m FROM conviva", opts);
  ASSERT_TRUE(scalar.ok());
  auto s = (*scalar)->Step();
  ASSERT_TRUE(s.ok());
  ASSERT_EQ((*scalar)->cells().size(), 1u);
  EXPECT_EQ((*scalar)->cells()[0].group_key, "*");
  EXPECT_EQ(s->headline.group_key, "*");

  auto grouped = engine.ExecuteOnline(
      "SELECT geo, AVG(buffer_time) AS m FROM conviva GROUP BY geo", opts);
  ASSERT_TRUE(grouped.ok());
  auto g = (*grouped)->Step();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->groups.groups_total, 4);
  const std::string json = g->groups.ToJson();
  ExpectJsonSafe(json);
  EXPECT_NE(json.find("us\\u0001"), std::string::npos) << json;
  EXPECT_NE(json.find("de\\n"), std::string::npos) << json;
  EXPECT_NE(json.find("fr\\\""), std::string::npos) << json;
  EXPECT_NE(json.find("jp\\\\"), std::string::npos) << json;
}

}  // namespace
}  // namespace gola
