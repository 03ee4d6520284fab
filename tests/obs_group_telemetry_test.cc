// Per-group convergence telemetry: top-K ranking (an absent RSD must never
// read as "fully converged"), churn counting, and the JSON block every
// surface renders.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gola/controller.h"
#include "gola/gola.h"
#include "obs/group_telemetry.h"

namespace gola {
namespace {

obs::GroupCell Cell(const std::string& key, double rsd, double half = 1,
                    const char* column = "m") {
  return {.group_key = key,
          .column = column,
          .has_estimate = true,
          .estimate = 10,
          .ci_lo = 10 - half,
          .ci_hi = 10 + half,
          .has_rsd = true,
          .rsd = rsd};
}

TEST(GroupTelemetryTrackerTest, TopKRanksWorstFirst) {
  obs::GroupTelemetryTracker tracker(/*top_k=*/3);
  std::vector<obs::GroupCell> cells = {Cell("a", 0.01), Cell("b", 0.30),
                                       Cell("c", 0.10), Cell("d", 0.20),
                                       Cell("e", 0.05)};
  const obs::GroupConvergenceSummary& s = tracker.Observe(cells);
  EXPECT_EQ(s.cells_total, 5);
  EXPECT_EQ(s.groups_total, 5);
  ASSERT_EQ(s.top.size(), 3u);
  EXPECT_EQ(s.top[0].group_key, "b");
  EXPECT_EQ(s.top[1].group_key, "d");
  EXPECT_EQ(s.top[2].group_key, "c");
  EXPECT_DOUBLE_EQ(s.worst_rsd, 0.30);
}

TEST(GroupTelemetryTrackerTest, AbsentRsdOutranksNumericRsd) {
  obs::GroupTelemetryTracker tracker(2);
  obs::GroupCell unknown = Cell("mystery", 0);
  unknown.has_rsd = false;
  const obs::GroupConvergenceSummary& s =
      tracker.Observe({Cell("a", 0.99), unknown});
  ASSERT_EQ(s.top.size(), 2u);
  EXPECT_EQ(s.top[0].group_key, "mystery");  // unbounded uncertainty first
  EXPECT_EQ(s.cells_without_rsd, 1);
  EXPECT_DOUBLE_EQ(s.worst_rsd, 0.99);  // max over *measurable* cells
}

TEST(GroupTelemetryTrackerTest, ChurnCountsAppearedAndDisappeared) {
  obs::GroupTelemetryTracker tracker(8);
  tracker.Observe({Cell("a", 0.1), Cell("b", 0.1)});
  const obs::GroupConvergenceSummary& s2 =
      tracker.Observe({Cell("b", 0.1), Cell("c", 0.1), Cell("d", 0.1)});
  EXPECT_EQ(s2.groups_appeared, 2);     // c, d
  EXPECT_EQ(s2.groups_disappeared, 1);  // a
  // First observation: everything counts as appeared against an empty set.
  obs::GroupTelemetryTracker fresh(8);
  EXPECT_EQ(fresh.Observe({Cell("x", 0.1)}).groups_appeared, 1);
}

TEST(GroupTelemetryTrackerTest, MultiAggregateCellsShareGroupCount) {
  // Two aggregates per group: 4 cells, 2 groups.
  std::vector<obs::GroupCell> cells = {Cell("a", 0.1), Cell("b", 0.2),
                                       Cell("a", 0.3, 1, "n"), Cell("b", 0.4, 1, "n")};
  obs::GroupTelemetryTracker tracker(8);
  const obs::GroupConvergenceSummary& s = tracker.Observe(cells);
  EXPECT_EQ(s.cells_total, 4);
  EXPECT_EQ(s.groups_total, 2);
}

TEST(GroupConvergenceSummaryTest, ToJsonRendersAbsentAsNull) {
  obs::GroupTelemetryTracker tracker(2);
  obs::GroupCell unknown;
  unknown.group_key = "g\"1";  // must be escaped
  unknown.column = "m";
  const std::string json = tracker.Observe({unknown, Cell("a", 0.5)}).ToJson();
  EXPECT_NE(json.find("\"cells_total\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"rsd\": null"), std::string::npos);
  EXPECT_NE(json.find("\"estimate\": null"), std::string::npos);
  EXPECT_NE(json.find("g\\\"1"), std::string::npos);
  EXPECT_NE(json.find("\"rsd\": 0.5"), std::string::npos);
}

TEST(GroupTelemetryEndToEndTest, GroupedQueryPopulatesUpdateSummary) {
  // End-to-end: a real grouped online query fills OnlineUpdate::groups with
  // a bounded summary whose worst RSD matches the emission's max_rsd.
  Rng rng(7);
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"g", TypeId::kString}, {"x", TypeId::kFloat64}});
  TableBuilder builder(schema, 256);
  const char* groups[] = {"a", "b", "c", "d", "e"};
  for (int64_t i = 0; i < 5000; ++i) {
    builder.AppendRow({Value::String(groups[rng.UniformInt(0, 4)]),
                       Value::Float(rng.LogNormal(2.0, 1.0))});
  }
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("d", builder.Finish()));
  GolaOptions opts;
  opts.num_batches = 5;
  opts.bootstrap_replicates = 50;
  opts.group_top_k = 3;
  auto online =
      engine.ExecuteOnline("SELECT g, AVG(x) AS m FROM d GROUP BY g", opts);
  ASSERT_TRUE(online.ok());
  auto update = (*online)->Step();
  ASSERT_TRUE(update.ok());
  if (obs::MetricsEnabled()) {
    EXPECT_EQ(update->groups.groups_total, 5);
    EXPECT_EQ(update->groups.cells_total, 5);
    EXPECT_EQ(update->groups.top.size(), 3u);
    EXPECT_GT(update->groups.worst_rsd, 0);
    EXPECT_NEAR(update->groups.worst_rsd, update->max_rsd, 1e-12);
    EXPECT_EQ(update->groups.groups_appeared, 5);
  } else {
    EXPECT_TRUE(update->groups.empty());
  }
}

}  // namespace
}  // namespace gola
