// Mini-batch partitioning invariants: every row appears exactly once,
// serials are the stream positions, batches are near-uniform, the stream is
// deterministic given a seed, and any prefix is an unbiased sample. Every
// case runs twice: on a resident table and on the same rows packed into a
// segment file, since both kinds of table take the partitioner's one path.
#include "storage/partitioner.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "common/logging.h"
#include "storage/segment/segment.h"

namespace gola {
namespace {

enum class Backing { kResident, kSegment };

class PartitionerTest : public ::testing::TestWithParam<Backing> {
 protected:
  /// Rows (id = i, v = i) for i in [0, n), resident or segment-backed.
  Table MakeSequential(int64_t n, int64_t chunk_size = 64) {
    auto schema = std::make_shared<Schema>(
        std::vector<Field>{{"id", TypeId::kInt64}, {"v", TypeId::kFloat64}});
    TableBuilder builder(schema, chunk_size);
    for (int64_t i = 0; i < n; ++i) {
      builder.AppendRow({Value::Int(i), Value::Float(static_cast<double>(i))});
    }
    Table resident = builder.Finish();
    if (GetParam() == Backing::kResident) return resident;
    const std::string path = ::testing::TempDir() + "/partitioner_test_" +
                             std::to_string(files_++) + ".gseg";
    GOLA_CHECK_OK(WriteSegmentFile(resident, path));
    auto opened = OpenSegmentTable(path);
    GOLA_CHECK_OK(opened.status());
    // The mapping outlives the directory entry.
    std::remove(path.c_str());
    return **opened;
  }

 private:
  int files_ = 0;
};

TEST_P(PartitionerTest, EveryRowExactlyOnce) {
  Table t = MakeSequential(1000);
  MiniBatchOptions opts;
  opts.num_batches = 7;
  MiniBatchPartitioner p(t, opts);
  std::multiset<int64_t> ids;
  for (int b = 0; b < p.num_batches(); ++b) {
    auto batch = p.BatchShared(b);
    for (size_t i = 0; i < batch->num_rows(); ++i) {
      ids.insert(batch->column(0).GetValue(i).AsInt());
    }
  }
  ASSERT_EQ(ids.size(), 1000u);
  int64_t expect = 0;
  for (int64_t id : ids) EXPECT_EQ(id, expect++);
}

TEST_P(PartitionerTest, SerialsAreStreamPositions) {
  Table t = MakeSequential(100);
  MiniBatchOptions opts;
  opts.num_batches = 4;
  MiniBatchPartitioner p(t, opts);
  int64_t expected = 0;
  for (int b = 0; b < p.num_batches(); ++b) {
    for (int64_t s : p.BatchShared(b)->serials()) EXPECT_EQ(s, expected++);
  }
  EXPECT_EQ(expected, 100);
}

TEST_P(PartitionerTest, BatchesNearUniform) {
  Table t = MakeSequential(103);
  MiniBatchOptions opts;
  opts.num_batches = 10;
  MiniBatchPartitioner p(t, opts);
  ASSERT_EQ(p.num_batches(), 10);
  for (int b = 0; b < 9; ++b) EXPECT_EQ(p.BatchShared(b)->num_rows(), 10u);
  EXPECT_EQ(p.BatchShared(9)->num_rows(), 13u);  // remainder absorbed by the last
}

TEST_P(PartitionerTest, DeterministicGivenSeed) {
  Table t = MakeSequential(500);
  MiniBatchOptions opts;
  opts.num_batches = 5;
  opts.seed = 77;
  MiniBatchPartitioner a(t, opts), b(t, opts);
  for (int i = 0; i < 5; ++i) {
    auto ba = a.BatchShared(i);
    auto bb = b.BatchShared(i);
    ASSERT_EQ(ba->num_rows(), bb->num_rows());
    for (size_t r = 0; r < ba->num_rows(); ++r) {
      EXPECT_EQ(ba->column(0).GetValue(r), bb->column(0).GetValue(r));
    }
  }
  opts.seed = 78;
  MiniBatchPartitioner c(t, opts);
  auto a0 = a.BatchShared(0);
  auto c0 = c.BatchShared(0);
  bool any_diff = false;
  for (size_t r = 0; r < a0->num_rows(); ++r) {
    if (!(a0->column(0).GetValue(r) == c0->column(0).GetValue(r))) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST_P(PartitionerTest, PrefixIsUnbiasedSample) {
  // The mean of the first batch must estimate the full-table mean: true
  // mean of 0..9999 is 4999.5; a uniform 1000-row sample has stderr ≈ 91.
  Table t = MakeSequential(10000);
  MiniBatchOptions opts;
  opts.num_batches = 10;
  opts.seed = 5;
  MiniBatchPartitioner p(t, opts);
  auto first = p.BatchShared(0);
  double sum = 0;
  for (size_t i = 0; i < first->num_rows(); ++i) sum += first->column(1).NumericAt(i);
  double mean = sum / static_cast<double>(first->num_rows());
  EXPECT_NEAR(mean, 4999.5, 4 * 91.0);
}

TEST_P(PartitionerTest, PartitionWiseModeKeepsChunksIntact) {
  Table t = MakeSequential(100, /*chunk_size=*/10);
  MiniBatchOptions opts;
  opts.num_batches = 10;
  opts.row_shuffle = false;
  MiniBatchPartitioner p(t, opts);
  // Without row shuffling, each batch is one original chunk: its ids are 10
  // consecutive integers (in some chunk order).
  for (int b = 0; b < p.num_batches(); ++b) {
    auto batch = p.BatchShared(b);
    ASSERT_EQ(batch->num_rows(), 10u);
    int64_t base = batch->column(0).GetValue(0).AsInt();
    for (size_t i = 0; i < 10; ++i) {
      EXPECT_EQ(batch->column(0).GetValue(i).AsInt(), base + static_cast<int64_t>(i));
    }
  }
}

TEST_P(PartitionerTest, FetchedBatchesStayValidWhilePrefetchRaces) {
  // The prefetch thread gathers batch i+1 while the caller reads batch i,
  // so the two often gather the same batch at once. Whoever wins, the chunk
  // handed out must be owned by the returned pointer and be the right
  // batch: 20 rows with serials 20·i .. 20·i+19.
  Table t = MakeSequential(1000);
  int bad_reads = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    MiniBatchOptions opts;
    opts.num_batches = 50;
    opts.seed = seed;
    MiniBatchPartitioner p(t, opts);
    for (int i = 0; i < p.num_batches(); ++i) {
      auto batch = p.BatchShared(i);
      bool ok = batch->num_rows() == 20 && batch->serials().size() == 20;
      for (size_t r = 0; ok && r < 20; ++r) {
        ok = batch->serials()[r] == 20 * i + static_cast<int64_t>(r);
      }
      if (!ok) ++bad_reads;
    }
  }
  EXPECT_EQ(bad_reads, 0);
}

TEST_P(PartitionerTest, PinnedBatchesOutliveTheRetentionRing) {
  // A prefix pinned for a rebuild stays intact while later batches cycle
  // through the small cache, and re-fetching a batch gathers the same rows.
  Table t = MakeSequential(400);
  MiniBatchOptions opts;
  opts.num_batches = 20;
  MiniBatchPartitioner p(t, opts);
  std::vector<std::shared_ptr<const Chunk>> prefix = p.BatchesSharedUpTo(20);
  ASSERT_EQ(prefix.size(), 20u);
  for (int i = 0; i < p.num_batches(); ++i) p.BatchShared(i);
  for (int i = 0; i < p.num_batches(); ++i) {
    auto again = p.BatchShared(i);
    const Chunk& pinned = *prefix[static_cast<size_t>(i)];
    ASSERT_EQ(pinned.num_rows(), again->num_rows());
    EXPECT_EQ(pinned.serials(), again->serials());
    for (size_t r = 0; r < pinned.num_rows(); ++r) {
      EXPECT_EQ(pinned.column(0).GetValue(r), again->column(0).GetValue(r));
    }
  }
}

TEST_P(PartitionerTest, BatchesStayReadableAfterTheSourceTableIsGone) {
  // The partitioner pins the table version it was built from: the caller's
  // copy may be destroyed (a catalog swap) before any batch is gathered.
  auto t = std::make_unique<Table>(MakeSequential(300));
  MiniBatchOptions opts;
  opts.num_batches = 3;
  MiniBatchPartitioner p(*t, opts);
  t.reset();
  std::set<int64_t> ids;
  for (const auto& batch : p.BatchesSharedUpTo(p.num_batches())) {
    for (size_t i = 0; i < batch->num_rows(); ++i) {
      ids.insert(batch->column(0).GetValue(i).AsInt());
    }
  }
  EXPECT_EQ(ids.size(), 300u);
}

TEST_P(PartitionerTest, ColumnListGathersThoseColumnsOfTheSameRows) {
  // A query's partitioner gathers only its columns: row for row and serial
  // for serial the full-width batches, minus the other columns.
  Table t = MakeSequential(500);
  for (bool shuffle : {true, false}) {
    MiniBatchOptions opts;
    opts.num_batches = 6;
    opts.row_shuffle = shuffle;
    MiniBatchPartitioner full(t, opts);
    MiniBatchPartitioner narrow(t, opts, {1});
    EXPECT_EQ(narrow.columns(), std::vector<int>{1});
    ASSERT_EQ(narrow.num_batches(), full.num_batches());
    for (int b = 0; b < full.num_batches(); ++b) {
      auto want = full.BatchShared(b);
      auto got = narrow.BatchShared(b);
      ASSERT_EQ(got->num_columns(), 1u);
      EXPECT_EQ(got->schema()->field(0).name, "v");
      ASSERT_EQ(got->num_rows(), want->num_rows());
      EXPECT_EQ(got->serials(), want->serials());
      for (size_t i = 0; i < want->num_rows(); ++i) {
        ASSERT_EQ(got->column(0).floats()[i], want->column(1).floats()[i])
            << "batch " << b << " row " << i;
      }
    }
  }
  // Without a list, batches hold every column.
  MiniBatchPartitioner all(t, MiniBatchOptions{});
  EXPECT_EQ(all.columns(), (std::vector<int>{0, 1}));
  EXPECT_EQ(all.BatchShared(0)->num_columns(), 2u);
}

TEST_P(PartitionerTest, WidenedBatchesHoldTheNewColumnsToo) {
  // A shared scan widens when a query that reads more columns attaches: a
  // batch cached before that is gathered again, with the same rows.
  Table t = MakeSequential(500);
  MiniBatchOptions opts;
  opts.num_batches = 5;
  MiniBatchPartitioner full(t, opts);
  MiniBatchPartitioner p(t, opts, {1});
  auto before = p.BatchShared(0);
  ASSERT_EQ(before->num_columns(), 1u);
  p.Widen({1});
  EXPECT_EQ(p.columns(), std::vector<int>{1});
  EXPECT_EQ(p.BatchShared(0), before);  // nothing new: the cached batch
  p.Widen({0});
  EXPECT_EQ(p.columns(), (std::vector<int>{0, 1}));
  for (int b = 0; b < p.num_batches(); ++b) {
    auto got = p.BatchShared(b);
    auto want = full.BatchShared(b);
    ASSERT_EQ(got->num_columns(), 2u) << "batch " << b;
    EXPECT_EQ(got->serials(), want->serials());
    EXPECT_EQ(got->column(0).ints(), want->column(0).ints()) << "batch " << b;
    EXPECT_EQ(got->column(1).floats(), want->column(1).floats()) << "batch " << b;
  }
  // The batch pinned before widening is unchanged.
  EXPECT_EQ(before->num_columns(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Backings, PartitionerTest,
                         ::testing::Values(Backing::kResident, Backing::kSegment),
                         [](const ::testing::TestParamInfo<Backing>& info) {
                           return info.param == Backing::kResident ? "Resident"
                                                                   : "Segment";
                         });

}  // namespace
}  // namespace gola
