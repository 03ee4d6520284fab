// Checkpoint/resume of G-OLA online state: round-trip bit-identity against
// an uninterrupted run, fingerprint and checksum validation of the versioned
// format, resume of membership/uncertain state, interaction with the
// deadline-degradation ladder, and a real SIGKILL-mid-query crash test.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "gola/checkpoint.h"
#include "gola/gola.h"
#include "obs/metrics.h"

namespace gola {
namespace {

Table MakeData(int64_t n, uint64_t seed) {
  Rng rng(seed);
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"g1", TypeId::kInt64},
      {"g2", TypeId::kInt64},
      {"a", TypeId::kFloat64},
      {"b", TypeId::kFloat64},
  });
  TableBuilder builder(schema, 200);
  for (int64_t i = 0; i < n; ++i) {
    builder.AppendRow({Value::Int(rng.UniformInt(1, 5)),
                       Value::Int(rng.UniformInt(1, 7)),
                       Value::Float(rng.LogNormal(1.5, 0.6)),
                       Value::Float(rng.Normal(40, 12))});
  }
  return builder.Finish();
}

constexpr const char* kQuery =
    "SELECT g1, AVG(a) AS m, COUNT(*) AS n FROM d d "
    "WHERE b > 0.95 * (SELECT AVG(b) FROM d u WHERE u.g1 = d.g1) "
    "GROUP BY g1 ORDER BY g1";

void ExpectTablesIdentical(const Table& got, const Table& want,
                           const std::string& what) {
  ASSERT_EQ(got.num_rows(), want.num_rows()) << what;
  for (int64_t r = 0; r < want.num_rows(); ++r) {
    for (size_t c = 0; c < want.schema()->num_fields(); ++c) {
      ASSERT_TRUE(got.At(r, static_cast<int>(c)) ==
                  want.At(r, static_cast<int>(c)))
          << what << " differs at row " << r << " col "
          << want.schema()->field(c).name;
    }
  }
}

/// Every update after a resume at `cut` equals the uninterrupted run's, bit
/// for bit.
void ExpectTailBitIdentical(const std::vector<OnlineUpdate>& tail,
                            const std::vector<OnlineUpdate>& clean, size_t cut) {
  auto same_bits = [](double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; };
  ASSERT_EQ(tail.size(), clean.size() - cut);
  for (size_t i = 0; i < tail.size(); ++i) {
    const Table& got = tail[i].result;
    const Table& want = clean[i + cut].result;
    EXPECT_EQ(tail[i].uncertain_tuples, clean[i + cut].uncertain_tuples) << i;
    EXPECT_TRUE(same_bits(tail[i].max_rsd, clean[i + cut].max_rsd)) << i;
    ASSERT_EQ(got.num_rows(), want.num_rows()) << i;
    ASSERT_EQ(got.schema()->num_fields(), want.schema()->num_fields()) << i;
    for (int64_t r = 0; r < want.num_rows(); ++r) {
      for (size_t c = 0; c < want.schema()->num_fields(); ++c) {
        const Value g = got.At(r, static_cast<int>(c));
        const Value w = want.At(r, static_cast<int>(c));
        const std::string where = Format("update %zu row %lld col %s", i,
                                         static_cast<long long>(r),
                                         want.schema()->field(c).name.c_str());
        ASSERT_EQ(g.type(), w.type()) << where;
        if (w.type() == TypeId::kFloat64) {
          EXPECT_TRUE(same_bits(g.AsFloat(), w.AsFloat())) << where;
        } else {
          EXPECT_TRUE(g == w) << where;
        }
      }
    }
  }
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fail::DisarmAll();
    GOLA_CHECK_OK(engine_.RegisterTable("d", MakeData(1800, 91)));
    path_ = Format("checkpoint_test_%d.ckpt", static_cast<int>(::getpid()));
  }
  void TearDown() override {
    fail::DisarmAll();
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  GolaOptions BaseOptions() {
    GolaOptions opts;
    opts.num_batches = 8;
    opts.bootstrap_replicates = 24;
    opts.seed = 515;
    return opts;
  }

  /// Runs `sql` to completion from scratch, collecting every update.
  std::vector<OnlineUpdate> RunClean(const GolaOptions& opts, const char* sql = kQuery) {
    std::vector<OnlineUpdate> updates;
    auto online = engine_.ExecuteOnline(sql, opts);
    GOLA_CHECK_OK(online.status());
    while (!(*online)->done()) {
      auto update = (*online)->Step();
      GOLA_CHECK_OK(update.status());
      updates.push_back(std::move(*update));
    }
    return updates;
  }

  Engine engine_;
  std::string path_;
};

TEST_F(CheckpointTest, ResumeMidQueryIsBitIdenticalToUninterruptedRun) {
  GolaOptions opts = BaseOptions();
  std::vector<OnlineUpdate> clean = RunClean(opts);

  // Interrupt after batch 3: checkpoint, drop the executor entirely, resume
  // into a fresh one and drain. Every post-resume update must be exact.
  {
    auto online = engine_.ExecuteOnline(kQuery, opts);
    GOLA_CHECK_OK(online.status());
    for (int i = 0; i < 3; ++i) GOLA_CHECK_OK((*online)->Step().status());
    GOLA_CHECK_OK((*online)->Checkpoint(path_));
  }

  auto resumed = engine_.ResumeOnline(kQuery, path_, opts);
  GOLA_CHECK_OK(resumed.status());
  EXPECT_EQ((*resumed)->batches_processed(), 3);
  EXPECT_FALSE((*resumed)->done());

  std::vector<OnlineUpdate> tail;
  while (!(*resumed)->done()) {
    auto update = (*resumed)->Step();
    GOLA_CHECK_OK(update.status());
    tail.push_back(std::move(*update));
  }
  ASSERT_EQ(tail.size(), clean.size() - 3);
  for (size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].batch_index, clean[i + 3].batch_index);
    EXPECT_EQ(tail[i].uncertain_tuples, clean[i + 3].uncertain_tuples);
    EXPECT_EQ(tail[i].max_rsd, clean[i + 3].max_rsd);
    ExpectTablesIdentical(tail[i].result, clean[i + 3].result,
                          Format("resumed update %zu", i));
  }
}

TEST_F(CheckpointTest, PooledResumeRecomputesThePassingSet) {
  // The pass flags of the cached uncertain set are not checkpointed: the
  // resumed executor's ReEmit recomputes them, and the re-emitted answer of
  // the cut batch folds those passing rows on top of the deterministic
  // state. A ReEmit that skipped them would re-emit a different answer.
  ThreadPool pool(3);
  GolaOptions opts = BaseOptions();
  opts.pool = &pool;
  std::vector<OnlineUpdate> clean;
  std::vector<std::vector<obs::GroupCell>> clean_cells;
  {
    auto online = engine_.ExecuteOnline(kQuery, opts);
    GOLA_CHECK_OK(online.status());
    while (!(*online)->done()) {
      auto update = (*online)->Step();
      GOLA_CHECK_OK(update.status());
      clean.push_back(std::move(*update));
      clean_cells.push_back((*online)->cells());
    }
  }
  constexpr int kCut = 3;
  ASSERT_GT(clean[kCut - 1].uncertain_tuples, 0) << "the cut needs an uncertain set";
  {
    auto online = engine_.ExecuteOnline(kQuery, opts);
    GOLA_CHECK_OK(online.status());
    for (int i = 0; i < kCut; ++i) GOLA_CHECK_OK((*online)->Step().status());
    GOLA_CHECK_OK((*online)->Checkpoint(path_));
  }

  auto resumed = engine_.ResumeOnline(kQuery, path_, opts);
  GOLA_CHECK_OK(resumed.status());
  const std::vector<obs::GroupCell>& cells = (*resumed)->cells();
  const std::vector<obs::GroupCell>& want = clean_cells[kCut - 1];
  ASSERT_EQ(cells.size(), want.size());
  auto same_bits = [](double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; };
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(cells[i].group_key, want[i].group_key) << i;
    EXPECT_EQ(cells[i].has_estimate, want[i].has_estimate) << i;
    EXPECT_TRUE(same_bits(cells[i].estimate, want[i].estimate))
        << "re-emitted cell " << i << ": " << cells[i].estimate << " vs "
        << want[i].estimate;
    EXPECT_TRUE(same_bits(cells[i].ci_lo, want[i].ci_lo)) << i;
    EXPECT_TRUE(same_bits(cells[i].ci_hi, want[i].ci_hi)) << i;
    EXPECT_TRUE(same_bits(cells[i].rsd, want[i].rsd)) << i;
  }

  std::vector<OnlineUpdate> tail;
  while (!(*resumed)->done()) {
    auto update = (*resumed)->Step();
    GOLA_CHECK_OK(update.status());
    tail.push_back(std::move(*update));
  }
  ASSERT_EQ(tail.size(), clean.size() - kCut);
  for (size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].uncertain_tuples, clean[i + kCut].uncertain_tuples);
    EXPECT_TRUE(same_bits(tail[i].max_rsd, clean[i + kCut].max_rsd));
    ExpectTablesIdentical(tail[i].result, clean[i + kCut].result,
                          Format("pooled resumed update %zu", i));
  }
}

TEST_F(CheckpointTest, CheckpointAfterEveryBatchResumesFromAnyOfThem) {
  GolaOptions opts = BaseOptions();
  opts.num_batches = 5;
  std::vector<OnlineUpdate> clean = RunClean(opts);

  for (int cut = 1; cut < opts.num_batches; ++cut) {
    auto online = engine_.ExecuteOnline(kQuery, opts);
    GOLA_CHECK_OK(online.status());
    for (int i = 0; i < cut; ++i) GOLA_CHECK_OK((*online)->Step().status());
    GOLA_CHECK_OK((*online)->Checkpoint(path_));

    auto resumed = engine_.ResumeOnline(kQuery, path_, opts);
    GOLA_CHECK_OK(resumed.status());
    OnlineUpdate last;
    while (!(*resumed)->done()) {
      auto update = (*resumed)->Step();
      GOLA_CHECK_OK(update.status());
      last = std::move(*update);
    }
    ExpectTablesIdentical(last.result, clean.back().result,
                          Format("final answer resumed from batch %d", cut));
  }
}

TEST_F(CheckpointTest, GenericAggregatesResumeBitIdentically) {
  // COUNT/SUM/AVG live in the arena's flat columns; these aggregates keep a
  // main and B replicate AggStates per group, which the checkpoint dumps
  // field by field.
  constexpr const char* kGeneric =
      "SELECT g1, MIN(a) AS lo, MAX(a) AS hi, VAR(b) AS vb, STDDEV(a) AS sa, "
      "QUANTILE(a, 0.5) AS med, COUNT(*) AS n FROM d d "
      "WHERE b > 0.95 * (SELECT AVG(b) FROM d u WHERE u.g1 = d.g1) "
      "GROUP BY g1 ORDER BY g1";
  GolaOptions opts = BaseOptions();
  std::vector<OnlineUpdate> clean = RunClean(opts, kGeneric);
  constexpr int kCut = 3;
  {
    auto online = engine_.ExecuteOnline(kGeneric, opts);
    GOLA_CHECK_OK(online.status());
    for (int i = 0; i < kCut; ++i) GOLA_CHECK_OK((*online)->Step().status());
    GOLA_CHECK_OK((*online)->Checkpoint(path_));
  }
  auto resumed = engine_.ResumeOnline(kGeneric, path_, opts);
  GOLA_CHECK_OK(resumed.status());

  std::vector<OnlineUpdate> tail;
  while (!(*resumed)->done()) {
    auto update = (*resumed)->Step();
    GOLA_CHECK_OK(update.status());
    tail.push_back(std::move(*update));
  }
  ExpectTailBitIdentical(tail, clean, kCut);
}

TEST_F(CheckpointTest, MemberDecisionsResumeBitIdentically) {
  // Q18's shape: an IN subquery whose HAVING compares each key's aggregate
  // with a scalar subquery. Keys 1-2 fall clearly below the threshold and
  // 5-7 clearly above it, so member decisions are installed by the cut and
  // the checkpoint carries them.
  constexpr const char* kIn =
      "SELECT g1, SUM(a) AS s, COUNT(*) AS n FROM d "
      "WHERE g2 IN (SELECT g2 FROM d GROUP BY g2 "
      "             HAVING SUM(b * g2) > (SELECT 0.5 * SUM(b) FROM d)) "
      "GROUP BY g1 ORDER BY g1";
  GolaOptions opts = BaseOptions();
  std::vector<OnlineUpdate> clean = RunClean(opts, kIn);
  constexpr int kCut = 3;
  const bool metrics_were_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::Counter* decisions =
      obs::MetricsRegistry::Global().GetCounter("gola_online_member_decisions_total");
  const int64_t decisions_before = decisions->Value();
  {
    auto online = engine_.ExecuteOnline(kIn, opts);
    GOLA_CHECK_OK(online.status());
    for (int i = 0; i < kCut; ++i) GOLA_CHECK_OK((*online)->Step().status());
    GOLA_CHECK_OK((*online)->Checkpoint(path_));
  }
  const int64_t decided = decisions->Value() - decisions_before;
  obs::SetMetricsEnabled(metrics_were_enabled);
  ASSERT_GT(decided, 0) << "the cut needs installed member decisions";

  auto resumed = engine_.ResumeOnline(kIn, path_, opts);
  GOLA_CHECK_OK(resumed.status());
  std::vector<OnlineUpdate> tail;
  while (!(*resumed)->done()) {
    auto update = (*resumed)->Step();
    GOLA_CHECK_OK(update.status());
    tail.push_back(std::move(*update));
  }
  ExpectTailBitIdentical(tail, clean, kCut);
}

/// Rewrites a fresh checkpoint's version field to `version` and expects a
/// resume to reject it on the version alone, before parsing anything else.
void ExpectOlderVersionRejectedUnparsed(Engine* engine, const GolaOptions& opts,
                                        const std::string& path, uint32_t version) {
  {
    auto online = engine->ExecuteOnline(kQuery, opts);
    GOLA_CHECK_OK(online.status());
    GOLA_CHECK_OK((*online)->Step().status());
    GOLA_CHECK_OK((*online)->Checkpoint(path));
  }
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  // The u32 version field follows the 8-byte magic.
  constexpr size_t kVersionEnd = sizeof(kCheckpointMagic) + sizeof(uint32_t);
  ASSERT_GT(bytes.size(), kVersionEnd);
  std::memcpy(&bytes[sizeof(kCheckpointMagic)], &version, sizeof version);
  // The whole file, and the file cut right after the version: a reader that
  // parsed past the version would report the truncation instead.
  for (const std::string& file : {bytes, bytes.substr(0, kVersionEnd)}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(file.data(), static_cast<std::streamsize>(file.size()));
    }
    const Status st = engine->ResumeOnline(kQuery, path, opts).status();
    EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
    EXPECT_NE(st.message().find(Format("version %u ", version)), std::string::npos)
        << st.ToString();
  }
}

TEST_F(CheckpointTest, VersionOneCheckpointIsRejectedUnparsed) {
  ExpectOlderVersionRejectedUnparsed(&engine_, BaseOptions(), path_, 1);
}

// Version 2 held every streamed column in the uncertain set; version 3 holds
// the block's scan columns only.
TEST_F(CheckpointTest, VersionTwoCheckpointIsRejectedUnparsed) {
  ExpectOlderVersionRejectedUnparsed(&engine_, BaseOptions(), path_, 2);
}

TEST_F(CheckpointTest, FingerprintMismatchIsRejectedBeforeAnyStateChanges) {
  GolaOptions opts = BaseOptions();
  {
    auto online = engine_.ExecuteOnline(kQuery, opts);
    GOLA_CHECK_OK(online.status());
    GOLA_CHECK_OK((*online)->Step().status());
    GOLA_CHECK_OK((*online)->Checkpoint(path_));
  }

  GolaOptions other = opts;
  other.seed = opts.seed + 1;  // different mini-batch partition
  auto st = engine_.ResumeOnline(kQuery, path_, other).status();
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find("fingerprint"), std::string::npos);

  other = opts;
  other.num_batches = opts.num_batches + 1;
  EXPECT_FALSE(engine_.ResumeOnline(kQuery, path_, other).ok());

  // A different query shape is also a different fingerprint.
  EXPECT_FALSE(engine_
                   .ResumeOnline(
                       "SELECT AVG(a) AS m FROM d d "
                       "WHERE b > (SELECT AVG(b) FROM d)",
                       path_, opts)
                   .ok());
}

TEST_F(CheckpointTest, TruncatedAndCorruptedFilesAreRejected) {
  GolaOptions opts = BaseOptions();
  {
    auto online = engine_.ExecuteOnline(kQuery, opts);
    GOLA_CHECK_OK(online.status());
    for (int i = 0; i < 2; ++i) GOLA_CHECK_OK((*online)->Step().status());
    GOLA_CHECK_OK((*online)->Checkpoint(path_));
  }
  std::string bytes;
  {
    std::ifstream in(path_, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 64u);
  auto resume_from = [&](const std::string& file_bytes) {
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out.write(file_bytes.data(),
                static_cast<std::streamsize>(file_bytes.size()));
    }
    return engine_.ResumeOnline(kQuery, path_, opts).status();
  };

  // Truncation (lost tail) and a flipped byte mid-payload must both fail
  // loudly instead of resuming from silently wrong state.
  EXPECT_EQ(resume_from(bytes.substr(0, bytes.size() - 9)).code(),
            StatusCode::kIoError);

  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x40;
  EXPECT_FALSE(resume_from(corrupt).ok());

  // Decoder fuzz: truncations inside the header, mid-body and one byte
  // short, then 64 seeded single-byte flips at random offsets.
  for (size_t cut : {size_t{0}, size_t{7}, bytes.size() / 2,
                     bytes.size() - 1}) {
    EXPECT_FALSE(resume_from(bytes.substr(0, cut)).ok())
        << "resumed from " << cut << " bytes";
  }
  Rng fuzz(314159);
  for (int trial = 0; trial < 64; ++trial) {
    std::string flipped = bytes;
    size_t pos = static_cast<size_t>(
        fuzz.UniformInt(0, static_cast<int64_t>(flipped.size()) - 1));
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x10);
    EXPECT_FALSE(resume_from(flipped).ok())
        << "bit flip at byte " << pos << " undetected";
  }

  // Not a checkpoint at all.
  auto st = resume_from("definitely not a checkpoint");
  EXPECT_EQ(st.code(), StatusCode::kIoError);

  std::remove(path_.c_str());
  st = engine_.ResumeOnline(kQuery, path_, opts).status();
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST_F(CheckpointTest, CheckpointFailpointSurfacesButLeavesTheQueryRunnable) {
  GolaOptions opts = BaseOptions();
  auto online = engine_.ExecuteOnline(kQuery, opts);
  GOLA_CHECK_OK(online.status());
  GOLA_CHECK_OK((*online)->Step().status());

  GOLA_CHECK_OK(fail::Arm("gola.checkpoint", "once"));
  EXPECT_FALSE((*online)->Checkpoint(path_).ok());
  fail::DisarmAll();

  // The failed attempt must not have perturbed the in-memory query: it keeps
  // running, and a second Checkpoint succeeds.
  GOLA_CHECK_OK((*online)->Step().status());
  GOLA_CHECK_OK((*online)->Checkpoint(path_));
  auto resumed = engine_.ResumeOnline(kQuery, path_, opts);
  GOLA_CHECK_OK(resumed.status());
  EXPECT_EQ((*resumed)->batches_processed(), 2);
}

TEST_F(CheckpointTest, FsyncFailureKeepsTheOldCheckpointAndRemovesTheTmp) {
  // Crash-atomicity of the checkpoint write: the tmp file's data must be
  // durable (fsync) before the rename publishes it. When that barrier
  // fails, the write must be abandoned — previous checkpoint untouched,
  // tmp file gone — and the query must keep running.
  GolaOptions opts = BaseOptions();
  auto online = engine_.ExecuteOnline(kQuery, opts);
  GOLA_CHECK_OK(online.status());
  GOLA_CHECK_OK((*online)->Step().status());
  GOLA_CHECK_OK((*online)->Checkpoint(path_));  // the good generation

  std::string good_bytes;
  {
    std::ifstream in(path_, std::ios::binary);
    good_bytes.assign(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(good_bytes.empty());

  GOLA_CHECK_OK((*online)->Step().status());
  GOLA_CHECK_OK(fail::Arm("gola.checkpoint.fsync", "once"));
  Status st = (*online)->Checkpoint(path_);
  fail::DisarmAll();
  EXPECT_FALSE(st.ok());

  // The failed attempt left no debris: no tmp file, and the previous
  // checkpoint is byte-identical — a crash right here resumes from batch 1.
  {
    std::ifstream tmp_probe(path_ + ".tmp");
    EXPECT_FALSE(tmp_probe.good()) << "orphaned tmp file left behind";
  }
  std::string after_bytes;
  {
    std::ifstream in(path_, std::ios::binary);
    after_bytes.assign(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }
  EXPECT_EQ(after_bytes, good_bytes);
  auto resumed = engine_.ResumeOnline(kQuery, path_, opts);
  GOLA_CHECK_OK(resumed.status());
  EXPECT_EQ((*resumed)->batches_processed(), 1);

  // The in-memory query is unperturbed: the next attempt succeeds and
  // captures batch 2.
  GOLA_CHECK_OK((*online)->Checkpoint(path_));
  resumed = engine_.ResumeOnline(kQuery, path_, opts);
  GOLA_CHECK_OK(resumed.status());
  EXPECT_EQ((*resumed)->batches_processed(), 2);
}

TEST_F(CheckpointTest, DegradationRungSurvivesResume) {
  // Degrade a query all the way (a deadline that is already blown when the
  // first batch lands), checkpoint it, and resume: the restored executor
  // must come back at the same rung with the same done/stopped-early state.
  GolaOptions tiny = BaseOptions();
  tiny.deadline_ms = 0.001;
  auto online = engine_.ExecuteOnline(kQuery, tiny);
  GOLA_CHECK_OK(online.status());
  auto update = (*online)->Step();
  GOLA_CHECK_OK(update.status());
  ASSERT_EQ(update->degradation, Degradation::kStoppedEarly);
  GOLA_CHECK_OK((*online)->Checkpoint(path_));

  auto resumed = engine_.ResumeOnline(kQuery, path_, tiny);
  GOLA_CHECK_OK(resumed.status());
  EXPECT_EQ((*resumed)->degradation(), Degradation::kStoppedEarly);
  EXPECT_TRUE((*resumed)->stopped_early());
  EXPECT_TRUE((*resumed)->done());
}

TEST_F(CheckpointTest, SigkilledProcessResumesToTheIdenticalAnswer) {
  GolaOptions opts = BaseOptions();
  opts.num_batches = 6;
  std::vector<OnlineUpdate> clean = RunClean(opts);

  // Child: run the same query, checkpointing after every batch, and pause
  // forever after batch 3 — then the parent SIGKILLs it mid-query exactly
  // like a crashed process. MakeData is deterministic in (n, seed), so the
  // child's engine sees byte-identical data.
  ::pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    Engine child_engine;
    if (!child_engine.RegisterTable("d", MakeData(1800, 91)).ok()) ::_exit(2);
    auto child_online = child_engine.ExecuteOnline(kQuery, opts);
    if (!child_online.ok()) ::_exit(2);
    for (int i = 0; i < 3; ++i) {
      if (!(*child_online)->Step().ok()) ::_exit(2);
      if (!(*child_online)->Checkpoint(path_).ok()) ::_exit(2);
    }
    // Signal readiness via a marker file, then hang until killed.
    { std::ofstream marker(path_ + ".ready"); }
    for (;;) ::pause();
  }

  // Parent: wait for the marker, then kill -9.
  const std::string marker = path_ + ".ready";
  for (int spin = 0; spin < 500; ++spin) {
    std::ifstream probe(marker);
    if (probe.good()) break;
    ::usleep(20'000);
  }
  {
    std::ifstream probe(marker);
    ASSERT_TRUE(probe.good()) << "child never reached batch 3";
  }
  ::kill(pid, SIGKILL);
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  std::remove(marker.c_str());

  // Resume from the dead process's checkpoint and drain to the end.
  auto resumed = engine_.ResumeOnline(kQuery, path_, opts);
  GOLA_CHECK_OK(resumed.status());
  EXPECT_EQ((*resumed)->batches_processed(), 3);
  OnlineUpdate last;
  while (!(*resumed)->done()) {
    auto update = (*resumed)->Step();
    GOLA_CHECK_OK(update.status());
    last = std::move(*update);
  }
  ExpectTablesIdentical(last.result, clean.back().result,
                        "final answer after SIGKILL + resume");
}

}  // namespace
}  // namespace gola
