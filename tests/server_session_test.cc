// Concurrent-session layer tests: the tentpole claim is that N queries
// multiplexed over the dispatcher's shared mini-batch sweep — with or
// without scan sharing — produce answers BIT-IDENTICAL to the same query
// run solo through ExecuteOnline. Plus admission control, cancellation,
// attach-in-flight, per-session checkpoints, and catalog replacement under
// live sessions.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "gola/gola.h"
#include "server/dispatcher.h"

namespace gola {
namespace server {
namespace {

Table MakeData(int64_t n, uint64_t seed) {
  Rng rng(seed);
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"g", TypeId::kInt64},
      {"a", TypeId::kFloat64},
      {"b", TypeId::kFloat64},
  });
  TableBuilder builder(schema, 512);
  for (int64_t i = 0; i < n; ++i) {
    builder.AppendRow({Value::Int(rng.UniformInt(1, 6)),
                       Value::Float(rng.LogNormal(1.2, 0.5)),
                       Value::Float(rng.Normal(50, 15))});
  }
  return builder.Finish();
}

/// Structurally different same-table queries — the "dashboard fleet".
const char* kFleet[] = {
    "SELECT AVG(a) AS m, COUNT(*) AS n FROM d",
    "SELECT g, SUM(a) AS s FROM d d "
    "WHERE b > (SELECT AVG(b) FROM d) GROUP BY g ORDER BY g",
    "SELECT MAX(b) AS mx, MIN(a) AS mn FROM d WHERE a > 1.0",
};
constexpr size_t kFleetSize = sizeof(kFleet) / sizeof(kFleet[0]);

GolaOptions TestOptions() {
  GolaOptions opts;
  opts.num_batches = 8;
  opts.bootstrap_replicates = 24;
  opts.seed = 991;
  return opts;
}

/// Solo reference: the same SQL through the single-query path.
OnlineUpdate Solo(Engine& engine, const std::string& sql,
                  const GolaOptions& opts) {
  auto exec = engine.ExecuteOnline(sql, opts);
  GOLA_CHECK_OK(exec.status());
  auto final_update = (*exec)->Run();
  GOLA_CHECK_OK(final_update.status());
  return *final_update;
}

/// Cell-exact table equality (schema names, row count, every Value).
void ExpectBitIdentical(const Table& got, const Table& want,
                        const std::string& context) {
  ASSERT_EQ(got.num_rows(), want.num_rows()) << context;
  ASSERT_EQ(got.schema()->num_fields(), want.schema()->num_fields()) << context;
  for (size_t c = 0; c < want.schema()->num_fields(); ++c) {
    EXPECT_EQ(got.schema()->field(c).name, want.schema()->field(c).name)
        << context;
  }
  for (int64_t r = 0; r < want.num_rows(); ++r) {
    for (size_t c = 0; c < want.schema()->num_fields(); ++c) {
      ASSERT_TRUE(got.At(r, static_cast<int>(c)) ==
                  want.At(r, static_cast<int>(c)))
          << context << " row " << r << " col " << want.schema()->field(c).name;
    }
  }
}

/// Submits `m` fleet sessions (cycling kFleet), awaits them, and checks
/// every final answer — and its max_rsd — against the solo run.
void RunFleetAndCompare(int m, bool share_scan) {
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("d", MakeData(12'000, 5)));
  const GolaOptions opts = TestOptions();

  std::vector<OnlineUpdate> solo;
  for (size_t q = 0; q < kFleetSize; ++q) {
    solo.push_back(Solo(engine, kFleet[q], opts));
  }

  // Pin the fleet's scan for the whole submit loop. Without a live holder,
  // a session that drains every batch before the next Submit lands (a
  // preempted test thread on a loaded box) drops the last reference, and
  // the next session rebuilds the scan.
  std::shared_ptr<const MiniBatchPartitioner> pinned;
  if (share_scan) {
    auto table = engine.catalog().GetTable("d");
    GOLA_CHECK_OK(table.status());
    pinned = engine.sessions().scan_share().GetOrCreate(*table, opts,
                                                        AllColumns(*(*table)->schema()));
  }

  std::vector<SessionPtr> fleet;
  for (int i = 0; i < m; ++i) {
    SessionOptions options;
    options.gola = opts;
    options.share_scan = share_scan;
    auto session =
        engine.SubmitOnline(kFleet[static_cast<size_t>(i) % kFleetSize],
                            std::move(options));
    GOLA_CHECK_OK(session.status());
    fleet.push_back(*session);
  }
  for (int i = 0; i < m; ++i) {
    auto final_update = fleet[static_cast<size_t>(i)]->Await();
    GOLA_CHECK_OK(final_update.status());
    const OnlineUpdate& want = solo[static_cast<size_t>(i) % kFleetSize];
    EXPECT_EQ(fleet[static_cast<size_t>(i)]->state(), SessionState::kDone);
    EXPECT_EQ(fleet[static_cast<size_t>(i)]->scan_shared(), share_scan);
    EXPECT_EQ(final_update->batch_index, want.batch_index);
    EXPECT_EQ(final_update->max_rsd, want.max_rsd);  // exact, not approximate
    EXPECT_EQ(final_update->recomputes_so_far, want.recomputes_so_far);
    ExpectBitIdentical(final_update->result, want.result,
                       kFleet[static_cast<size_t>(i) % kFleetSize]);
  }
  if (share_scan) {
    // One partitioner build (the pin), m attaches.
    EXPECT_EQ(engine.sessions().scan_stats().misses, 1);
    EXPECT_EQ(engine.sessions().scan_stats().hits, m);
  } else {
    EXPECT_EQ(engine.sessions().scan_stats().hits, 0);
  }
}

TEST(ServerSessionTest, SharedScanFleetBitIdenticalToSolo) {
  RunFleetAndCompare(/*m=*/6, /*share_scan=*/true);
}

TEST(ServerSessionTest, UnsharedFleetBitIdenticalToSolo) {
  RunFleetAndCompare(/*m=*/6, /*share_scan=*/false);
}

// M client threads submit and consume concurrently through the cursor API —
// the server-side reality of satellite tests: multi-threaded ExecuteOnline
// via sessions, updates streamed per client, finals bit-identical to solo.
TEST(ServerSessionTest, ConcurrentClientThreadsBitIdentical) {
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("d", MakeData(12'000, 9)));
  const GolaOptions opts = TestOptions();

  std::vector<OnlineUpdate> solo;
  for (size_t q = 0; q < kFleetSize; ++q) {
    solo.push_back(Solo(engine, kFleet[q], opts));
  }

  constexpr int kClients = 6;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      SessionOptions options;
      options.gola = opts;
      options.share_scan = (i % 2 == 0);  // mixed modes in the same sweep
      auto session =
          engine.SubmitOnline(kFleet[static_cast<size_t>(i) % kFleetSize],
                              std::move(options));
      if (!session.ok()) {
        ++failures;
        return;
      }
      // Drain the cursor: batch indexes must be strictly increasing (the
      // drop-oldest policy may skip, never reorder or repeat).
      int last_batch = 0;
      OnlineUpdate update;
      while ((*session)->Next(&update, std::chrono::milliseconds(2000))) {
        if (update.batch_index <= last_batch) ++failures;
        last_batch = update.batch_index;
      }
      auto final_update = (*session)->Await();
      if (!final_update.ok() ||
          final_update->max_rsd !=
              solo[static_cast<size_t>(i) % kFleetSize].max_rsd) {
        ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ServerSessionTest, AttachInFlightSharesScanAndStaysExact) {
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("d", MakeData(20'000, 3)));
  GolaOptions opts = TestOptions();
  opts.num_batches = 40;

  const OnlineUpdate solo = Solo(engine, kFleet[1], opts);

  SessionOptions first;
  first.gola = opts;
  auto a = engine.SubmitOnline(kFleet[0], std::move(first));
  GOLA_CHECK_OK(a.status());
  // Wait until A is actually streaming, so B attaches to an in-flight scan.
  OnlineUpdate u;
  ASSERT_TRUE((*a)->Next(&u, std::chrono::milliseconds(5000)));

  SessionOptions second;
  second.gola = opts;
  auto b = engine.SubmitOnline(kFleet[1], std::move(second));
  GOLA_CHECK_OK(b.status());
  auto b_final = (*b)->Await();
  GOLA_CHECK_OK(b_final.status());
  EXPECT_TRUE((*b)->scan_shared());
  // B starts from its own batch 0 cursor — attach-in-flight shares the
  // partitioner, not the batch position, so the answer is the solo answer.
  EXPECT_EQ(b_final->max_rsd, solo.max_rsd);
  ExpectBitIdentical(b_final->result, solo.result, "attach-in-flight");
  GOLA_CHECK_OK((*a)->Await().status());
}

TEST(ServerSessionTest, AdmissionControl) {
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("d", MakeData(1000, 1)));

  DispatcherOptions limits;
  limits.max_queued_sessions = 0;  // reject everything at the door
  Dispatcher dispatcher(&engine.catalog(), limits);
  auto rejected = dispatcher.Submit(kFleet[0], {});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);

  // Synchronous errors for queries that could never stream.
  Dispatcher open(&engine.catalog(), {});
  EXPECT_FALSE(open.Submit("SELECT nope FROM missing", {}).ok());
  EXPECT_FALSE(open.Submit("SELECT g FROM d", {}).ok());  // no aggregate

  open.Shutdown();
  auto after = open.Submit(kFleet[0], {});
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
}

TEST(ServerSessionTest, CancelTerminatesSession) {
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("d", MakeData(50'000, 2)));
  GolaOptions opts = TestOptions();
  opts.num_batches = 200;  // long enough to still be live when cancelled

  auto session = engine.SubmitOnline(kFleet[0], [&] {
    SessionOptions o;
    o.gola = opts;
    return o;
  }());
  GOLA_CHECK_OK(session.status());
  (*session)->Cancel();
  auto final_update = (*session)->Await();
  EXPECT_FALSE(final_update.ok());
  EXPECT_EQ((*session)->state(), SessionState::kCancelled);
  // Idempotent on a terminal session.
  (*session)->Cancel();
  EXPECT_EQ((*session)->state(), SessionState::kCancelled);
}

TEST(ServerSessionTest, PerSessionCheckpointRoundTrips) {
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("d", MakeData(30'000, 4)));
  GolaOptions opts = TestOptions();
  opts.num_batches = 120;

  const OnlineUpdate solo = Solo(engine, kFleet[1], opts);

  SessionOptions options;
  options.gola = opts;
  auto session = engine.SubmitOnline(kFleet[1], std::move(options));
  GOLA_CHECK_OK(session.status());
  OnlineUpdate u;
  ASSERT_TRUE((*session)->Next(&u, std::chrono::milliseconds(5000)));

  const std::string path = "server_session_test.ckpt";
  Status st = (*session)->Checkpoint(path);
  // The dispatcher may have drained the session between the cursor read and
  // the checkpoint; only a live session can snapshot.
  if (st.ok()) {
    // Resuming from the per-session checkpoint completes to the same
    // bit-identical answer as the uninterrupted solo run.
    auto resumed = engine.ResumeOnline(kFleet[1], path, opts);
    GOLA_CHECK_OK(resumed.status());
    auto resumed_final = (*resumed)->Run();
    GOLA_CHECK_OK(resumed_final.status());
    EXPECT_EQ(resumed_final->max_rsd, solo.max_rsd);
    ExpectBitIdentical(resumed_final->result, solo.result, "resume");
    std::remove(path.c_str());
  } else {
    EXPECT_GE((*session)->state(), SessionState::kDone);
  }
  GOLA_CHECK_OK((*session)->Await().status());
}

// Satellite 1: replacing a table while sessions stream it. Running sessions
// keep their snapshot; submissions after the swap see the new data.
TEST(ServerSessionTest, RegisterTableReplaceWhileRunning) {
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("d", MakeData(20'000, 7)));
  GolaOptions opts = TestOptions();
  opts.num_batches = 60;

  const OnlineUpdate solo_v1 = Solo(engine, kFleet[0], opts);

  SessionOptions options;
  options.gola = opts;
  auto session = engine.SubmitOnline(kFleet[0], std::move(options));
  GOLA_CHECK_OK(session.status());
  OnlineUpdate u;
  ASSERT_TRUE((*session)->Next(&u, std::chrono::milliseconds(5000)));

  // Swap the table out from under the live session.
  GOLA_CHECK_OK(engine.RegisterTable("d", MakeData(5'000, 1234)));

  auto final_update = (*session)->Await();
  GOLA_CHECK_OK(final_update.status());
  ExpectBitIdentical(final_update->result, solo_v1.result,
                     "snapshot under replacement");

  // A fresh session (and a fresh solo run) both see the replacement.
  const OnlineUpdate solo_v2 = Solo(engine, kFleet[0], opts);
  SessionOptions fresh;
  fresh.gola = opts;
  auto session2 = engine.SubmitOnline(kFleet[0], std::move(fresh));
  GOLA_CHECK_OK(session2.status());
  auto final2 = (*session2)->Await();
  GOLA_CHECK_OK(final2.status());
  ExpectBitIdentical(final2->result, solo_v2.result, "post-replacement");
  EXPECT_GT(engine.catalog().version(), 1u);
}

}  // namespace
}  // namespace server
}  // namespace gola
