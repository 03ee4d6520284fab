// Flight-recorder tests: seqlock ring correctness under concurrent
// writers (the TSan CI job runs this too), dump formatting, and the
// controller integration — a forced range-failure rebuild must leave a
// dump file on disk.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "gola/gola.h"
#include "obs/flight_recorder.h"

namespace gola {
namespace obs {
namespace {

TEST(FlightRecorderTest, RecordsAndSnapshotsInOrder) {
  FlightRecorder rec;
  rec.Note("alpha", "first", 1);
  rec.Note("beta", nullptr, 2);
  rec.Note("gamma", "third", 3);
  auto records = rec.Snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_STREQ(records[0].name, "alpha");
  EXPECT_STREQ(records[0].detail, "first");
  EXPECT_EQ(records[0].arg, 1);
  EXPECT_STREQ(records[1].detail, "");
  EXPECT_STREQ(records[2].name, "gamma");
  EXPECT_LT(records[0].ticket, records[1].ticket);
  EXPECT_LT(records[1].ticket, records[2].ticket);
  EXPECT_GT(records[0].t_us, 0);
  EXPECT_GT(records[0].tid, 0u);
  EXPECT_EQ(rec.total_notes(), 3);
}

TEST(FlightRecorderTest, TruncatesOversizeStrings) {
  FlightRecorder rec;
  std::string long_name(100, 'n');
  std::string long_detail(100, 'd');
  rec.Note(long_name.c_str(), long_detail.c_str(), 0);
  auto records = rec.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(std::strlen(records[0].name), FlightRecorder::kNameBytes - 1);
  EXPECT_EQ(std::strlen(records[0].detail), FlightRecorder::kDetailBytes - 1);
}

TEST(FlightRecorderTest, WrapKeepsMostRecent) {
  FlightRecorder rec;
  const int total = static_cast<int>(FlightRecorder::kCapacity) + 100;
  for (int i = 0; i < total; ++i) rec.Note("evt", nullptr, i);
  auto records = rec.Snapshot();
  ASSERT_EQ(records.size(), FlightRecorder::kCapacity);
  // Oldest surviving ticket is exactly total - capacity; newest is total-1.
  EXPECT_EQ(records.front().ticket,
            static_cast<uint64_t>(total) - FlightRecorder::kCapacity);
  EXPECT_EQ(records.back().ticket, static_cast<uint64_t>(total) - 1);
  EXPECT_EQ(records.front().arg, records.front().ticket);
}

TEST(FlightRecorderTest, ConcurrentWritersStayConsistent) {
  // Hammer the ring from more writers than cores (so writers get preempted
  // mid-note and tickets kCapacity apart race for one slot) while the main
  // thread snapshots concurrently. Every surviving record must be
  // internally consistent: name identifies the writer, detail and arg must
  // match that writer's stamp — a torn slot that leaked through the seqlock
  // would mix them. Torn records are counted, not asserted, so every
  // thread is joined before the first check can fail.
  constexpr int kWriters = 8;
  constexpr int kNotesPerWriter = 50'000;
  constexpr int kRounds = 20;
  const char* names[kWriters] = {"writer_0", "writer_1", "writer_2",
                                 "writer_3", "writer_4", "writer_5",
                                 "writer_6", "writer_7"};
  const char* details[kWriters] = {"d0", "d1", "d2", "d3",
                                   "d4", "d5", "d6", "d7"};
  auto consistent = [&](const FlightRecorder::Record& r) {
    for (int t = 0; t < kWriters; ++t) {
      if (std::strcmp(r.name, names[t]) == 0) {
        return std::strcmp(r.detail, details[t]) == 0 && r.arg == t * 10 + 5;
      }
    }
    return false;
  };

  int64_t checked = 0;
  int64_t torn = 0;
  int torn_rounds = 0;
  int64_t bad_totals = 0;
  int64_t bad_sizes = 0;
  int64_t unordered = 0;
  for (int round = 0; round < kRounds; ++round) {
    auto rec = std::make_unique<FlightRecorder>();
    std::atomic<int> finished{0};
    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; ++t) {
      writers.emplace_back([&rec, &names, &details, &finished, t] {
        for (int i = 0; i < kNotesPerWriter; ++i) {
          rec->Note(names[t], details[t], t * 10 + 5);
        }
        finished.fetch_add(1);
      });
    }
    const int64_t torn_before = torn;
    while (finished.load() < kWriters) {
      for (const auto& r : rec->Snapshot()) {
        ++checked;
        if (!consistent(r)) ++torn;
      }
    }
    for (auto& w : writers) w.join();

    if (rec->total_notes() != int64_t{kWriters} * kNotesPerWriter) ++bad_totals;
    auto records = rec->Snapshot();
    if (records.size() != FlightRecorder::kCapacity) ++bad_sizes;
    // Quiescent ring: tickets are distinct and strictly increasing.
    for (size_t i = 1; i < records.size(); ++i) {
      if (records[i - 1].ticket >= records[i].ticket) ++unordered;
    }
    for (const auto& r : records) {
      if (!consistent(r)) ++torn;
    }
    if (torn > torn_before) ++torn_rounds;
  }
  EXPECT_GT(checked, 0);
  EXPECT_EQ(torn, 0) << "torn records in " << torn_rounds << " of " << kRounds
                     << " rounds";
  EXPECT_EQ(bad_totals, 0);
  EXPECT_EQ(bad_sizes, 0);
  EXPECT_EQ(unordered, 0);
}

TEST(FlightRecorderTest, DumpWritesParsableText) {
  FlightRecorder rec;
  rec.Note("dump_me", "with detail", 42);
  std::string path = ::testing::TempDir() + "flight_dump_test.txt";
  ASSERT_TRUE(rec.Dump(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("# gola flight recorder"), std::string::npos);
  std::string line;
  std::getline(in, line);
  EXPECT_NE(line.find("dump_me"), std::string::npos);
  EXPECT_NE(line.find("with detail"), std::string::npos);
  EXPECT_NE(line.find("42"), std::string::npos);
  std::remove(path.c_str());
}

// ----------------------------------------- controller integration --------

Table MakeSessions(int64_t n, uint64_t seed) {
  Rng rng(seed);
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"session_id", TypeId::kInt64},
      {"ad_id", TypeId::kInt64},
      {"buffer_time", TypeId::kFloat64},
      {"play_time", TypeId::kFloat64},
  });
  TableBuilder builder(schema, /*chunk_size=*/256);
  for (int64_t i = 0; i < n; ++i) {
    double buffer = rng.Exponential(30.0);
    double play = std::max(0.0, 600.0 - 4.0 * buffer + rng.Normal(0, 50));
    builder.AppendRow({Value::Int(i), Value::Int(rng.UniformInt(1, 8)),
                       Value::Float(buffer), Value::Float(play)});
  }
  return builder.Finish();
}

TEST(FlightRecorderTest, RangeFailureRebuildDumpsToDisk) {
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("sessions", MakeSessions(4000, 3)));

  std::string path = ::testing::TempDir() + "flight_rebuild_test.txt";
  std::remove(path.c_str());

  GolaOptions opts;
  opts.num_batches = 10;
  // Near-zero envelope slack makes range failures (and thus recomputes)
  // essentially certain on a subquery-dependent query.
  opts.epsilon_mult = 0.01;
  opts.flight_path = path;
  auto online = engine.ExecuteOnline(
      "SELECT AVG(play_time) FROM sessions "
      "WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)",
      opts);
  GOLA_CHECK_OK(online.status());
  auto last = (*online)->Run();
  GOLA_CHECK_OK(last.status());
  ASSERT_GT(last->recomputes_so_far, 0) << "expected a forced range failure";

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "rebuild did not dump flight recorder to " << path;
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("range_failure"), std::string::npos) << content;
  EXPECT_NE(content.find("batch_begin"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace obs
}  // namespace gola
