// Mini-batch partitioning (paper §2, §2.1).
//
// G-OLA requires that any prefix of the processed stream be a uniform random
// sample of the full input. The MiniBatchPartitioner permutes the rows with
// a Fisher-Yates shuffle, cuts the permuted stream into k equal batches and
// assigns each row its global serial number (stream position), which keys
// the deterministic bootstrap weights. Partition-wise randomness (picking
// whole existing chunks in random order, the paper's default for data
// already stored in randomly-ordered partitions) is also provided.
//
// Construction computes only the permutation, the chunk order and the batch
// bounds. Each batch is gathered on demand through Table::GatherRows, from
// resident chunks and from a segment's ColumnSource alike — every column,
// or only the columns a query reads — and only the last few gathered
// batches stay cached, so memory is the current batch
// plus estimator state, not a second copy of the table. A background
// prefetch thread gathers batch i+1 while the caller estimates batch i
// (PF-OLA's I/O–estimation overlap), with hit/miss counters exported
// through obs.
#ifndef GOLA_STORAGE_PARTITIONER_H_
#define GOLA_STORAGE_PARTITIONER_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "storage/table.h"

namespace gola {

struct MiniBatchOptions {
  int num_batches = 10;
  /// When true, rows are globally shuffled before cutting batches; when
  /// false only chunk order is randomized (assumes attributes are not
  /// correlated with partitions, as discussed in §2).
  bool row_shuffle = true;
  uint64_t seed = 42;
};

/// Splits a table into `num_batches` uniform random mini-batches.
///
/// Every produced chunk carries row serials 0..N-1 in stream order; batch i
/// holds serials [i*n, (i+1)*n). The last batch absorbs the remainder so
/// batch sizes differ by at most num_batches-1 rows. The partitioner holds
/// its own copy of the table (O(1): copies share chunks or the source), so
/// the table version it was built from stays readable after the caller's
/// copy is replaced or destroyed.
class MiniBatchPartitioner {
 public:
  /// Batches hold every column of the table.
  MiniBatchPartitioner(const Table& table, const MiniBatchOptions& options);
  /// Batches hold only `columns` (ascending table indices), in that order,
  /// until Widen adds more; the partitioning itself is the full-width
  /// one's, row for row.
  MiniBatchPartitioner(const Table& table, const MiniBatchOptions& options,
                       std::vector<int> columns);
  ~MiniBatchPartitioner();

  MiniBatchPartitioner(const MiniBatchPartitioner&) = delete;
  MiniBatchPartitioner& operator=(const MiniBatchPartitioner&) = delete;

  int num_batches() const { return static_cast<int>(batch_starts_.size()) - 1; }
  int64_t total_rows() const { return batch_starts_.back(); }
  /// The table columns batches hold, ascending. A batch chunk names its
  /// columns in its schema.
  std::vector<int> columns() const;
  /// Adds `columns` (ascending table indices) to what batches hold, for a
  /// shared scan that serves one more query: every batch fetched from now
  /// on holds them, and a cached batch that lacks them is gathered again.
  void Widen(const std::vector<int>& columns) const;

  /// The i-th mini-batch (serials attached). The chunk stays alive as long
  /// as the returned pointer does, whatever the cache retains.
  std::shared_ptr<const Chunk> BatchShared(int i) const;

  /// All batches in [0, upto), each pinned as by BatchShared — used by
  /// recompute paths and baselines.
  std::vector<std::shared_ptr<const Chunk>> BatchesSharedUpTo(int upto) const;

 private:
  struct Entry {
    std::shared_ptr<const Chunk> chunk;
    std::vector<int> columns;  // what `chunk` holds, as columns_
    bool from_prefetch = false;
    bool consumed = false;
  };

  std::shared_ptr<const Chunk> Gather(int i, const std::vector<int>& columns) const;
  /// True when batch i is cached with every column batches hold now.
  /// Caller holds mu_.
  bool CachedLocked(int i) const;
  /// Batch i from the cache, else gathered here. A `cursor` fetch (the
  /// sweep's next batch) counts a prefetch hit or miss and prefetches i+1;
  /// a rescan of seen batches does neither.
  std::shared_ptr<const Chunk> FetchBatch(int i, bool cursor) const;
  void PrefetchLoop();

  const Table table_;
  std::vector<int64_t> perm_;          // empty => identity (no row shuffle)
  std::vector<size_t> chunk_order_;    // stream position -> table chunk
  std::vector<int64_t> chunk_starts_;  // rows before each reordered chunk
  std::vector<int64_t> batch_starts_;  // serial bounds, num_batches + 1

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::vector<int> columns_;  // ascending, only grows
  mutable std::map<int, Entry> cache_;
  mutable int want_ = -1;        // next batch for the prefetch thread
  mutable int prefetching_ = -1;  // batch the prefetch thread is gathering
  bool stop_ = false;
  std::thread worker_;
};

}  // namespace gola

#endif  // GOLA_STORAGE_PARTITIONER_H_
