// Segment-backed ↔ vector-backed bit-identity: registering the workload
// tables through packed segment files instead of in-memory chunks must not
// change a single bit of any result — every OnlineUpdate in the stream
// (estimates, bootstrap CIs, rsd columns, scalar progress fields) and every
// batch result, across pool sizes. The encoded fast paths (predicates on
// codes, zone pruning, RLE folds) ride on the segment side, so this is also
// their end-to-end oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>

#include "common/logging.h"
#include "exec/pipeline.h"
#include "exec/segment_scan.h"
#include "gola/gola.h"
#include "obs/metrics.h"
#include "storage/segment/segment.h"
#include "workload/conviva_gen.h"
#include "workload/queries.h"
#include "workload/tpch_gen.h"

namespace gola {
namespace {

void ExpectBitIdentical(const Table& a, const Table& b, const std::string& what) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  ASSERT_EQ(a.schema()->num_fields(), b.schema()->num_fields()) << what;
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.schema()->num_fields(); ++c) {
      Value va = a.At(r, static_cast<int>(c));
      Value vb = b.At(r, static_cast<int>(c));
      if (va.is_null() || vb.is_null()) {
        ASSERT_TRUE(va.is_null() && vb.is_null())
            << what << " row " << r << " col " << c;
        continue;
      }
      if (va.type() == TypeId::kString) {
        ASSERT_TRUE(va == vb) << what << " row " << r << " col " << c;
        continue;
      }
      double da = va.ToDouble().ValueOr(1e100);
      double db = vb.ToDouble().ValueOr(-1e100);
      if (std::isnan(da) && std::isnan(db)) continue;
      ASSERT_EQ(da, db) << what << " row " << r << " col " << c << " ("
                        << a.schema()->field(c).name << ")";
    }
  }
}

/// Two engines over the same logical data: one holds the tables as
/// in-memory chunk vectors, the other opens them from packed segment files.
class SegmentEquivalenceTest : public ::testing::TestWithParam<NamedQuery> {
 protected:
  struct Engines {
    Engine vectors;
    Engine segments;
    std::string conviva_path;
    std::string tpch_path;

    Engines() {
      ConvivaGenOptions conviva;
      conviva.num_rows = 5000;
      conviva.num_ads = 12;
      conviva.num_contents = 150;
      conviva.chunk_size = 600;  // many chunks: exercises gathers + pruning
      Table conviva_table = GenerateConviva(conviva);
      TpchGenOptions tpch;
      tpch.num_rows = 5000;
      tpch.num_parts = 50;
      tpch.num_suppliers = 12;
      Table tpch_table = GenerateTpch(tpch);

      conviva_path = ::testing::TempDir() + "/seg_equiv_conviva.gseg";
      tpch_path = ::testing::TempDir() + "/seg_equiv_tpch.gseg";
      GOLA_CHECK_OK(WriteSegmentFile(conviva_table, conviva_path));
      GOLA_CHECK_OK(WriteSegmentFile(tpch_table, tpch_path));

      GOLA_CHECK_OK(vectors.RegisterTable("conviva", std::move(conviva_table)));
      GOLA_CHECK_OK(vectors.RegisterTable("tpch", std::move(tpch_table)));
      GOLA_CHECK_OK(segments.RegisterSegmentTable("conviva", conviva_path));
      GOLA_CHECK_OK(segments.RegisterSegmentTable("tpch", tpch_path));
    }
    ~Engines() {
      std::remove(conviva_path.c_str());
      std::remove(tpch_path.c_str());
    }
  };

  static Engines* engines() {
    static Engines* instance = new Engines();
    return instance;
  }

  /// Steps the online executor to completion, collecting every update.
  static std::vector<OnlineUpdate> DrainOnline(Engine* engine,
                                               const NamedQuery& q,
                                               ThreadPool* pool) {
    GolaOptions opts;
    opts.num_batches = 6;
    opts.bootstrap_replicates = 40;
    opts.seed = 7;
    opts.pool = pool;
    auto online = engine->ExecuteOnline(q.sql, opts);
    GOLA_CHECK_OK(online.status());
    std::vector<OnlineUpdate> updates;
    while (!(*online)->done()) {
      auto u = (*online)->Step();
      GOLA_CHECK_OK(u.status());
      updates.push_back(std::move(*u));
    }
    return updates;
  }
};

TEST_P(SegmentEquivalenceTest, OnlineUpdateStreamBitIdentical) {
  const NamedQuery& q = GetParam();
  ThreadPool four(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
    std::string cfg = q.name + (pool ? "/pool4" : "/serial");
    std::vector<OnlineUpdate> expect = DrainOnline(&engines()->vectors, q, pool);
    std::vector<OnlineUpdate> got = DrainOnline(&engines()->segments, q, pool);
    ASSERT_EQ(expect.size(), got.size()) << cfg;
    for (size_t i = 0; i < expect.size(); ++i) {
      const OnlineUpdate& e = expect[i];
      const OnlineUpdate& g = got[i];
      EXPECT_EQ(e.batch_index, g.batch_index) << cfg;
      EXPECT_EQ(e.total_batches, g.total_batches) << cfg;
      EXPECT_EQ(e.fraction_processed, g.fraction_processed) << cfg;
      EXPECT_EQ(e.scale, g.scale) << cfg;
      EXPECT_EQ(e.max_rsd, g.max_rsd) << cfg << " update " << i;
      EXPECT_EQ(e.uncertain_tuples, g.uncertain_tuples) << cfg;
      EXPECT_EQ(e.uncertain_groups, g.uncertain_groups) << cfg;
      ExpectBitIdentical(e.result, g.result, cfg + " update " + std::to_string(i));
    }
  }
}

TEST_P(SegmentEquivalenceTest, BatchResultBitIdentical) {
  const NamedQuery& q = GetParam();
  ThreadPool four(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
    BatchExecOptions opts;
    opts.pool = pool;
    auto expect = engines()->vectors.ExecuteBatch(q.sql, opts);
    ASSERT_TRUE(expect.ok()) << expect.status().ToString();
    auto got = engines()->segments.ExecuteBatch(q.sql, opts);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectBitIdentical(*expect, *got, q.name + (pool ? "/pool4" : "/serial"));
  }
}

INSTANTIATE_TEST_SUITE_P(AllPaperQueries, SegmentEquivalenceTest,
                         ::testing::ValuesIn(AllQueries()),
                         [](const ::testing::TestParamInfo<NamedQuery>& info) {
                           return info.param.name;
                         });

// ----------------------------------------------- fast paths do engage --

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

TEST(SegmentFastPathTest, ZonePruningEngagesAndPreservesResults) {
  // start_hour lives in [0, 24); a selective predicate on a clustered-ish
  // column plus small chunks gives the zone maps something to prune.
  ConvivaGenOptions gen;
  gen.num_rows = 4000;
  gen.chunk_size = 250;
  Table table = GenerateConviva(gen);
  std::string path = ::testing::TempDir() + "/seg_prune.gseg";
  GOLA_CHECK_OK(WriteSegmentFile(table, path));

  Engine vectors;
  GOLA_CHECK_OK(vectors.RegisterTable("conviva", std::move(table)));
  Engine segments;
  GOLA_CHECK_OK(segments.RegisterSegmentTable("conviva", path));

  // session_id is monotone, so chunk zones partition its range: a range
  // predicate on it must prune most chunks.
  const std::string sql =
      "SELECT COUNT(*) AS n, AVG(play_time) AS p FROM conviva "
      "WHERE session_id <= 300";
  int64_t pruned_before = CounterValue("gola_segment_chunks_pruned_total");
  auto expect = vectors.ExecuteBatch(sql, {});
  ASSERT_TRUE(expect.ok()) << expect.status().ToString();
  auto got = segments.ExecuteBatch(sql, {});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectBitIdentical(*expect, *got, "pruned scan");
  if (obs::MetricsEnabled()) {
    EXPECT_GT(CounterValue("gola_segment_chunks_pruned_total"), pruned_before)
        << "zone pruning never engaged";
  }
  std::remove(path.c_str());
}

/// `table` reordered by column `col` (stable), cut into `chunk_size`-row
/// chunks: the zone maps of the sorted column then partition its range.
Table SortedBy(const Table& table, int col, int64_t chunk_size) {
  const Chunk all = table.Combined();
  std::vector<int64_t> order(all.num_rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);
  const Column& key = all.column(static_cast<size_t>(col));
  std::stable_sort(order.begin(), order.end(), [&key](int64_t a, int64_t b) {
    const auto ia = static_cast<size_t>(a);
    const auto ib = static_cast<size_t>(b);
    return key.type() == TypeId::kString ? key.strings()[ia] < key.strings()[ib]
                                         : key.ints()[ia] < key.ints()[ib];
  });
  const Chunk sorted = all.Take(order);
  Table out(table.schema());
  for (size_t at = 0; at < sorted.num_rows(); at += static_cast<size_t>(chunk_size)) {
    out.AppendChunk(sorted.Slice(
        at, std::min(static_cast<size_t>(chunk_size), sorted.num_rows() - at)));
  }
  return out;
}

/// Runs exact `sql` over `table`, resident and segment-backed. Its WHERE
/// filters column `col` of `table`, which the query's pruned layout holds
/// at another position. The answers must be bit-identical, and the
/// segment scan must skip exactly the chunks where no row passes `keep`.
void ExpectZonePruningByTableColumn(const std::string& table_name, const Table& table,
                                    const std::string& sql, int col,
                                    const std::function<bool(const Value&)>& keep) {
  SCOPED_TRACE(sql);
  const std::string path = ::testing::TempDir() + "/seg_prune_" + table_name + ".gseg";
  GOLA_CHECK_OK(WriteSegmentFile(table, path));
  Engine vectors;
  GOLA_CHECK_OK(vectors.RegisterTable(table_name, table));
  Engine segments;
  GOLA_CHECK_OK(segments.RegisterSegmentTable(table_name, path));

  size_t want_pruned = 0;
  for (size_t c = 0; c < table.num_chunks(); ++c) {
    const Column& values = table.chunk(c).column(static_cast<size_t>(col));
    bool any = false;
    for (size_t r = 0; r < values.size() && !any; ++r) any = keep(values.GetValue(r));
    if (!any) ++want_pruned;
  }
  ASSERT_GT(want_pruned, 0u);
  ASSERT_LT(want_pruned, table.num_chunks());

  auto query = segments.Compile(sql);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const BlockDef& root = query->root();
  const auto at = std::find(root.scan_columns.begin(), root.scan_columns.end(), col);
  ASSERT_NE(at, root.scan_columns.end());
  EXPECT_NE(at - root.scan_columns.begin(), col) << "the layout did not move the column";
  auto streamed = segments.GetTable(table_name);
  ASSERT_TRUE(streamed.ok());
  auto scanned = ScanStreamedTable(**streamed, FilterStage::AllPointForms(root).preds(),
                                   root.scan_columns);
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  EXPECT_EQ(scanned->chunks_pruned, want_pruned);

  auto expect = vectors.ExecuteBatch(sql, {});
  ASSERT_TRUE(expect.ok()) << expect.status().ToString();
  auto got = segments.ExecuteBatch(sql, {});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectBitIdentical(*expect, *got, "pruned scan");
  std::remove(path.c_str());
}

TEST(SegmentFastPathTest, ZonePruningMapsBlockColumnsToTableColumns) {
  // start_hour is conviva column 8 but the query's second scan column;
  // container is tpch column 12 but its query's second scan column.
  ConvivaGenOptions conviva;
  conviva.num_rows = 4000;
  ExpectZonePruningByTableColumn(
      "conviva", SortedBy(GenerateConviva(conviva), 8, 400),
      "SELECT COUNT(*) AS n, AVG(play_time) AS p FROM conviva WHERE start_hour >= 12", 8,
      [](const Value& v) { return v.AsInt() >= 12; });
  TpchGenOptions tpch;
  tpch.num_rows = 4000;
  ExpectZonePruningByTableColumn(
      "tpch", SortedBy(GenerateTpch(tpch), 12, 400),
      "SELECT SUM(extendedprice) AS s, COUNT(*) AS n FROM tpch WHERE container = 'MED BOX'",
      12, [](const Value& v) { return v.AsString() == "MED BOX"; });
}

TEST(SegmentFastPathTest, EncodedPredicateAndRleFoldEngage) {
  // geo is a low-cardinality string → dictionary codes; a single-group SUM
  // over an RLE-able int column exercises the run fold.
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"geo", TypeId::kString}, {"qty", TypeId::kInt64}});
  TableBuilder builder(schema, 512);
  Rng rng(3);
  const char* geos[] = {"US", "DE", "JP", "BR"};
  for (int64_t i = 0; i < 4000; ++i) {
    builder.AppendRow({Value::String(geos[rng.NextBelow(4)]),
                       Value::Int((i / 97) % 50)});
  }
  Table table = builder.Finish();
  std::string path = ::testing::TempDir() + "/seg_fastpath.gseg";
  GOLA_CHECK_OK(WriteSegmentFile(table, path));

  Engine vectors;
  GOLA_CHECK_OK(vectors.RegisterTable("t", std::move(table)));
  Engine segments;
  GOLA_CHECK_OK(segments.RegisterSegmentTable("t", path));

  const std::string sql =
      "SELECT SUM(qty) AS s, COUNT(*) AS n, AVG(qty) AS a FROM t "
      "WHERE geo = 'US'";
  int64_t enc_before = CounterValue("gola_kernel_encoded_predicate_total");
  auto expect = vectors.ExecuteBatch(sql, {});
  ASSERT_TRUE(expect.ok()) << expect.status().ToString();
  auto got = segments.ExecuteBatch(sql, {});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectBitIdentical(*expect, *got, "encoded predicate");
  if (obs::MetricsEnabled()) {
    EXPECT_GT(CounterValue("gola_kernel_encoded_predicate_total"), enc_before)
        << "dictionary predicate fast path never engaged";
  }

  const std::string fold_sql = "SELECT SUM(qty) AS s, COUNT(*) AS n FROM t";
  int64_t fold_before = CounterValue("gola_kernel_encoded_sum_folds_total");
  auto e2 = vectors.ExecuteBatch(fold_sql, {});
  ASSERT_TRUE(e2.ok());
  auto g2 = segments.ExecuteBatch(fold_sql, {});
  ASSERT_TRUE(g2.ok());
  ExpectBitIdentical(*e2, *g2, "rle fold");
  if (obs::MetricsEnabled()) {
    EXPECT_GT(CounterValue("gola_kernel_encoded_sum_folds_total"), fold_before)
        << "RLE sum fold never engaged";
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gola
