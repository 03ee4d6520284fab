// Scan-column pruning at its edges. The binder narrows every block's input
// layout to the streamed columns the block reads (BlockDef::scan_columns),
// and the partitioner, the morsel slices and the uncertain set carry only
// those. These are the shapes where a narrowed chunk could lose its row
// count (a block that reads no column at all) or a remapped reference its
// column (a dimension join, whose columns sit after the scan columns):
// each must answer exactly, in the exact and the online engine, over
// resident and segment-backed tables, serial and on a pool.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "gola/gola.h"
#include "storage/segment/segment.h"
#include "workload/conviva_gen.h"
#include "workload/queries.h"

namespace gola {
namespace {

constexpr int64_t kConvivaRows = 6000;

/// fact(name, k, pad, x) streams; dim(label, dk) labels k = 2, 3, 5 "a".
/// The fact columns a query reads (k, x) are not its first ones, so every
/// reference moves when the layout narrows.
Table MakeFact() {
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"name", TypeId::kString},
      {"k", TypeId::kInt64},
      {"pad", TypeId::kFloat64},
      {"x", TypeId::kFloat64},
  });
  TableBuilder builder(schema, 300);
  Rng rng(17);
  for (int64_t i = 0; i < 2000; ++i) {
    builder.AppendRow({Value::String(Format("n%lld", static_cast<long long>(i % 7))),
                       Value::Int(rng.UniformInt(1, 8)), Value::Float(rng.Normal(0, 1)),
                       Value::Float(rng.LogNormal(1.0, 0.5))});
  }
  return builder.Finish();
}

Table MakeDim() {
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"label", TypeId::kString}, {"dk", TypeId::kInt64}});
  TableBuilder builder(schema);
  for (int64_t k = 1; k <= 8; ++k) {
    const bool a = k == 2 || k == 3 || k == 5;
    builder.AppendRow({Value::String(a ? "a" : "b"), Value::Int(k)});
  }
  return builder.Finish();
}

Table MakeConviva() {
  ConvivaGenOptions gen;
  gen.num_rows = kConvivaRows;
  gen.chunk_size = 1000;
  return GenerateConviva(gen);
}

/// The same tables twice: resident chunks, and packed segment files.
struct Engines {
  Engine resident;
  Engine segments;
  std::vector<std::string> paths;

  Engines() {
    const std::map<std::string, Table> tables = {
        {"conviva", MakeConviva()}, {"fact", MakeFact()}, {"dim", MakeDim()}};
    for (const auto& [name, table] : tables) {
      const std::string path = Format("%s/scan_columns_%s_%d.gseg",
                                      ::testing::TempDir().c_str(), name.c_str(),
                                      static_cast<int>(::getpid()));
      GOLA_CHECK_OK(WriteSegmentFile(table, path));
      GOLA_CHECK_OK(segments.RegisterSegmentTable(name, path));
      GOLA_CHECK_OK(resident.RegisterTable(name, table));
      paths.push_back(path);
    }
  }
  ~Engines() {
    for (const auto& p : paths) std::remove(p.c_str());
  }
};

class ScanColumnsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { engines_ = new Engines(); }
  static void TearDownTestSuite() {
    delete engines_;
    engines_ = nullptr;
  }

  /// Runs `check(engine, pool, label)` on both engines, serial and pooled.
  template <typename Fn>
  static void ForEachConfig(Fn check) {
    ThreadPool four(4);
    for (Engine* engine : {&engines_->resident, &engines_->segments}) {
      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
        const std::string label =
            std::string(engine == &engines_->resident ? "resident" : "segments") +
            (pool != nullptr ? "/pool4" : "/serial");
        check(engine, pool, label);
      }
    }
  }

  /// Every update of a full online run.
  static std::vector<OnlineUpdate> Drain(Engine* engine, const std::string& sql,
                                         ThreadPool* pool) {
    GolaOptions opts;
    opts.num_batches = 10;
    opts.bootstrap_replicates = 24;
    opts.seed = 5;
    opts.pool = pool;
    auto online = engine->ExecuteOnline(sql, opts);
    GOLA_CHECK_OK(online.status());
    std::vector<OnlineUpdate> updates;
    while (!(*online)->done()) {
      auto update = (*online)->Step();
      GOLA_CHECK_OK(update.status());
      updates.push_back(std::move(*update));
    }
    return updates;
  }

  static double Cell(const Table& t, int64_t row, int col) {
    return t.At(row, col).ToDouble().ValueOr(-1);
  }

  static Engines* engines_;
};
Engines* ScanColumnsTest::engines_ = nullptr;

TEST_F(ScanColumnsTest, CountStarCountsEveryRow) {
  const std::string sql = "SELECT COUNT(*) AS n FROM conviva";
  ForEachConfig([&](Engine* engine, ThreadPool* pool, const std::string& label) {
    BatchExecOptions batch;
    batch.pool = pool;
    auto exact = engine->ExecuteBatch(sql, batch);
    ASSERT_TRUE(exact.ok()) << label << ": " << exact.status().ToString();
    EXPECT_EQ(Cell(*exact, 0, 0), static_cast<double>(kConvivaRows)) << label;

    // COUNT(*) scales the rows seen by N / rows seen: every estimate is N.
    const std::vector<OnlineUpdate> updates = Drain(engine, sql, pool);
    ASSERT_EQ(updates.size(), 10u) << label;
    for (const OnlineUpdate& u : updates) {
      EXPECT_NEAR(Cell(u.result, 0, 0), kConvivaRows, 1e-9 * kConvivaRows)
          << label << " batch " << u.batch_index;
    }
    EXPECT_EQ(Cell(updates.back().result, 0, 0), static_cast<double>(kConvivaRows))
        << label;
  });
}

TEST_F(ScanColumnsTest, InnerBlockThatReadsNoColumnKeepsItsCount) {
  // session_id runs 1..N, so the answer is N / 2 exactly when the inner
  // COUNT(*) sees every row.
  const std::string sql =
      "SELECT COUNT(*) AS n FROM conviva "
      "WHERE session_id <= (SELECT COUNT(*) FROM conviva) / 2";
  ForEachConfig([&](Engine* engine, ThreadPool* pool, const std::string& label) {
    BatchExecOptions batch;
    batch.pool = pool;
    auto exact = engine->ExecuteBatch(sql, batch);
    ASSERT_TRUE(exact.ok()) << label << ": " << exact.status().ToString();
    EXPECT_EQ(Cell(*exact, 0, 0), static_cast<double>(kConvivaRows / 2)) << label;
    const std::vector<OnlineUpdate> updates = Drain(engine, sql, pool);
    ASSERT_FALSE(updates.empty()) << label;
    EXPECT_EQ(Cell(updates.back().result, 0, 0), static_cast<double>(kConvivaRows / 2))
        << label;
  });
}

TEST_F(ScanColumnsTest, DimJoinWithDimFilterAnswersAsComputedByHand) {
  const std::string sql =
      "SELECT k, AVG(x) AS ax, COUNT(*) AS n FROM fact, dim "
      "WHERE k = dk AND label = 'a' GROUP BY k ORDER BY k";
  // The answer from the rows themselves.
  std::map<int64_t, std::pair<double, int64_t>> want;  // k -> (sum x, rows)
  const Table fact = MakeFact();
  for (int64_t r = 0; r < fact.num_rows(); ++r) {
    const int64_t k = fact.At(r, 1).AsInt();
    if (k != 2 && k != 3 && k != 5) continue;
    want[k].first += fact.At(r, 3).AsFloat();
    want[k].second += 1;
  }
  ASSERT_EQ(want.size(), 3u);
  auto expect_answer = [&](const Table& got, const std::string& what) {
    ASSERT_EQ(got.num_rows(), 3) << what;
    int64_t row = 0;
    for (const auto& [k, sum_rows] : want) {
      const double avg = sum_rows.first / static_cast<double>(sum_rows.second);
      EXPECT_EQ(got.At(row, 0).AsInt(), k) << what;
      EXPECT_NEAR(Cell(got, row, 1), avg, 1e-12 * avg) << what << " k=" << k;
      EXPECT_EQ(Cell(got, row, 2), static_cast<double>(sum_rows.second))
          << what << " k=" << k;
      ++row;
    }
  };
  ForEachConfig([&](Engine* engine, ThreadPool* pool, const std::string& label) {
    BatchExecOptions batch;
    batch.pool = pool;
    auto exact = engine->ExecuteBatch(sql, batch);
    ASSERT_TRUE(exact.ok()) << label << ": " << exact.status().ToString();
    expect_answer(*exact, label + " exact");
    const std::vector<OnlineUpdate> updates = Drain(engine, sql, pool);
    ASSERT_FALSE(updates.empty()) << label;
    expect_answer(updates.back().result, label + " online");
  });
}

TEST_F(ScanColumnsTest, RepeatedColumnNamesAreRefused) {
  // A block's scan finds its columns by name in each source chunk, so a
  // table whose column names repeat (ignoring case, as the binder compares
  // them) never reaches a query: a CSV header is refused when read, a
  // built table when registered, resident or segment-backed.
  const std::string csv = Format("%s/scan_columns_dup_%d.csv", ::testing::TempDir().c_str(),
                                 static_cast<int>(::getpid()));
  const std::string seg = Format("%s/scan_columns_dup_%d.gseg", ::testing::TempDir().c_str(),
                                 static_cast<int>(::getpid()));
  auto write_csv = [&](const std::string& header) {
    std::ofstream out(csv);
    out << header << "\n1,2,30\n4,5,60\n7,8,90\n";
  };
  for (const std::string header : {"x,y,x", "x,y,X"}) {
    write_csv(header);
    EXPECT_EQ(ReadCsv(csv).status().code(), StatusCode::kParseError) << header;
  }

  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"x", TypeId::kInt64}, {"y", TypeId::kInt64}, {"X", TypeId::kInt64}});
  TableBuilder builder(schema);
  builder.AppendRow({Value::Int(1), Value::Int(2), Value::Int(30)});
  const Table repeated = builder.Finish();
  GOLA_CHECK_OK(WriteSegmentFile(repeated, seg));
  Engine engine;
  const Status resident = engine.RegisterTable("t", repeated);
  EXPECT_EQ(resident.code(), StatusCode::kInvalidArgument) << resident.ToString();
  EXPECT_NE(resident.message().find("'X'"), std::string::npos) << resident.ToString();
  EXPECT_EQ(engine.RegisterSegmentTable("t", seg).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(engine.catalog().HasTable("t"));

  // With distinct names, t.x is the third column in both engines.
  write_csv("w,y,x");
  auto read = ReadCsv(csv);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  GOLA_CHECK_OK(engine.RegisterTable("t", std::move(*read)));
  const std::string sql = "SELECT SUM(t.x) AS s FROM t";
  auto exact = engine.ExecuteBatch(sql);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(Cell(*exact, 0, 0), 180.0);
  const std::vector<OnlineUpdate> updates = Drain(&engine, sql, nullptr);
  ASSERT_FALSE(updates.empty());
  EXPECT_EQ(Cell(updates.back().result, 0, 0), 180.0);
  std::remove(csv.c_str());
  std::remove(seg.c_str());
}

TEST_F(ScanColumnsTest, SharedScanWidensToTheQueryColumns) {
  // SBI reads buffer_time (4) and play_time (5). Whatever columns a shared
  // scan gathers so far, attaching widens it to those two, and the answer
  // is the same bit for bit as over a private scan; a scan of another
  // batch count is still refused.
  const std::string sql = SbiQuery();
  GolaOptions opts;
  opts.num_batches = 10;
  opts.bootstrap_replicates = 24;
  opts.seed = 5;
  Engine* engine = &engines_->resident;
  const TablePtr table = *engine->GetTable("conviva");
  const Table want = Drain(engine, sql, nullptr).back().result;
  struct Case {
    std::vector<int> columns;  // the shared scan's, before the query attaches
    int num_batches;
    std::vector<int> widened;  // after it attached
    bool shared;
  };
  const std::vector<int> every = AllColumns(*table->schema());
  const std::vector<Case> cases = {{every, 10, every, true},
                                   {{4, 5}, 10, {4, 5}, true},
                                   {{4}, 10, {4, 5}, true},
                                   {{0, 8}, 10, {0, 4, 5, 8}, true},
                                   {{4, 5}, 9, {4, 5}, false}};
  for (const Case& c : cases) {
    MiniBatchOptions part;
    part.num_batches = c.num_batches;
    part.seed = opts.seed;
    auto scan = std::make_shared<const MiniBatchPartitioner>(*table, part, c.columns);
    auto compiled = engine->Compile(sql);
    ASSERT_TRUE(compiled.ok());
    auto online =
        OnlineQueryExecutor::Create(&engine->catalog(), std::move(*compiled), opts, scan);
    ASSERT_TRUE(online.ok()) << online.status().ToString();
    EXPECT_EQ((*online)->scan_shared(), c.shared);
    EXPECT_EQ(scan->columns(), c.widened);
    auto last = (*online)->Run();
    ASSERT_TRUE(last.ok()) << last.status().ToString();
    ASSERT_EQ(last->result.num_rows(), want.num_rows());
    for (size_t col = 0; col < want.schema()->num_fields(); ++col) {
      EXPECT_TRUE(last->result.At(0, static_cast<int>(col)) ==
                  want.At(0, static_cast<int>(col)))
          << want.schema()->field(col).name << " over a scan of " << c.columns.size()
          << " columns";
    }
  }
}

}  // namespace
}  // namespace gola
