// Workload generators: schemas, determinism, and the distributional
// properties the paper's queries rely on (correlated buffering/playback,
// orders of bounded size, part-keyed attributes).
#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "workload/conviva_gen.h"
#include "workload/tpch_gen.h"

namespace gola {
namespace {

TEST(TpchGenTest, SchemaAndDeterminism) {
  TpchGenOptions opts;
  opts.num_rows = 5000;
  Table a = GenerateTpch(opts);
  Table b = GenerateTpch(opts);
  EXPECT_EQ(a.num_rows(), 5000);
  EXPECT_EQ(a.schema()->num_fields(), 13u);
  EXPECT_TRUE(a.schema()->HasField("partkey"));
  EXPECT_TRUE(a.schema()->HasField("extendedprice"));
  for (int64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(a.At(i, 0), b.At(i, 0));
    EXPECT_EQ(a.At(i, 6), b.At(i, 6));
  }
  opts.seed = 99;
  Table c = GenerateTpch(opts);
  bool differs = false;
  for (int64_t i = 0; i < 50 && !differs; ++i) {
    differs = !(a.At(i, 5) == c.At(i, 5));
  }
  EXPECT_TRUE(differs);
}

TEST(TpchGenTest, OrdersHaveBoundedLineCounts) {
  TpchGenOptions opts;
  opts.num_rows = 20000;
  opts.avg_lines_per_order = 4;
  Table t = GenerateTpch(opts);
  std::unordered_map<int64_t, int> lines;
  Chunk all = t.Combined();
  for (size_t i = 0; i < all.num_rows(); ++i) {
    lines[all.column(0).ints()[i]]++;
  }
  for (const auto& [order, count] : lines) {
    EXPECT_GE(count, 1);
    EXPECT_LE(count, 7) << "order " << order;
  }
  // Mean near the configured average.
  EXPECT_NEAR(20000.0 / static_cast<double>(lines.size()), 4.0, 0.5);
}

TEST(TpchGenTest, PartAttributesConsistent) {
  // Denormalization must repeat the same brand/container for every line of
  // a part, and extendedprice must scale with quantity within a part.
  TpchGenOptions opts;
  opts.num_rows = 20000;
  opts.num_parts = 50;
  Table t = GenerateTpch(opts);
  Chunk all = t.Combined();
  std::unordered_map<int64_t, std::string> brand_of;
  for (size_t i = 0; i < all.num_rows(); ++i) {
    int64_t part = all.column(2).ints()[i];
    const std::string& brand = all.column(11).strings()[i];
    auto [it, inserted] = brand_of.emplace(part, brand);
    if (!inserted) {
      EXPECT_EQ(it->second, brand) << "part " << part;
    }
    EXPECT_GE(all.column(2).ints()[i], 1);
    EXPECT_LE(all.column(2).ints()[i], 50);
  }
}

TEST(ConvivaGenTest, SchemaAndRanges) {
  ConvivaGenOptions opts;
  opts.num_rows = 10000;
  Table t = GenerateConviva(opts);
  EXPECT_EQ(t.num_rows(), 10000);
  Chunk all = t.Combined();
  int geo_col = *t.schema()->FieldIndex("geo");
  int jfr_col = *t.schema()->FieldIndex("join_failure_rate");
  std::unordered_set<std::string> geos;
  for (size_t i = 0; i < all.num_rows(); ++i) {
    double jfr = all.column(static_cast<size_t>(jfr_col)).floats()[i];
    EXPECT_GE(jfr, 0.0);
    EXPECT_LE(jfr, 1.0);
    geos.insert(all.column(static_cast<size_t>(geo_col)).strings()[i]);
    EXPECT_GE(all.column(4).floats()[i], 0.0);  // buffer_time
    EXPECT_GE(all.column(5).floats()[i], 0.0);  // play_time
  }
  EXPECT_GT(geos.size(), 10u);
}

TEST(ConvivaGenTest, BufferingHurtsPlayback) {
  // The SBI query's premise: sessions buffering above average play less.
  ConvivaGenOptions opts;
  opts.num_rows = 30000;
  Table t = GenerateConviva(opts);
  Chunk all = t.Combined();
  double buf_sum = 0;
  for (size_t i = 0; i < all.num_rows(); ++i) buf_sum += all.column(4).floats()[i];
  double buf_avg = buf_sum / static_cast<double>(all.num_rows());
  double play_high = 0, play_low = 0;
  int64_t n_high = 0, n_low = 0;
  for (size_t i = 0; i < all.num_rows(); ++i) {
    if (all.column(4).floats()[i] > buf_avg) {
      play_high += all.column(5).floats()[i];
      ++n_high;
    } else {
      play_low += all.column(5).floats()[i];
      ++n_low;
    }
  }
  EXPECT_LT(play_high / n_high, 0.8 * (play_low / n_low));
}

TEST(ConvivaGenTest, ContentPopularityIsSkewed) {
  ConvivaGenOptions opts;
  opts.num_rows = 30000;
  opts.num_contents = 1000;
  Table t = GenerateConviva(opts);
  Chunk all = t.Combined();
  std::unordered_map<int64_t, int> hits;
  for (size_t i = 0; i < all.num_rows(); ++i) hits[all.column(1).ints()[i]]++;
  int top = 0;
  for (const auto& [c, n] : hits) top = std::max(top, n);
  double uniform_share = 30000.0 / 1000.0;
  EXPECT_GT(top, uniform_share * 10) << "Zipf head should dominate";
}

}  // namespace
}  // namespace gola
