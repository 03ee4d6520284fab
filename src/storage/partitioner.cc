#include "storage/partitioner.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <numeric>

#include "common/logging.h"
#include "common/random.h"
#include "obs/metrics.h"

namespace gola {

namespace {

std::vector<int64_t> FisherYatesPermutation(int64_t n, uint64_t seed) {
  std::vector<int64_t> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(seed);
  for (int64_t i = n - 1; i > 0; --i) {
    int64_t j = static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(i + 1)));
    std::swap(perm[static_cast<size_t>(i)], perm[static_cast<size_t>(j)]);
  }
  return perm;
}

/// Partition-wise randomness: a random order of whole chunks.
std::vector<size_t> ShuffledChunkOrder(size_t num_chunks, uint64_t seed) {
  std::vector<size_t> order(num_chunks);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  for (size_t i = order.size(); i > 1; --i) {
    size_t j = rng.NextBelow(i);
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

struct StreamObs {
  obs::Counter* batches;
  obs::Counter* prefetch_hits;
  obs::Counter* prefetch_misses;
};

StreamObs& Obs() {
  static StreamObs o = [] {
    auto& reg = obs::MetricsRegistry::Global();
    StreamObs s;
    s.batches = reg.GetCounter("gola_scan_stream_batches_total");
    s.prefetch_hits = reg.GetCounter("gola_scan_prefetch_hits_total");
    s.prefetch_misses = reg.GetCounter("gola_scan_prefetch_misses_total");
    return s;
  }();
  return o;
}

// How many batches behind the most recent fetch stay cached, so that
// sessions sharing one partitioner a few batches apart reuse one gather.
constexpr int kRetainBatches = 3;

}  // namespace

MiniBatchPartitioner::MiniBatchPartitioner(const Table& table,
                                           const MiniBatchOptions& options)
    : MiniBatchPartitioner(table, options, AllColumns(*table.schema())) {}

MiniBatchPartitioner::MiniBatchPartitioner(const Table& table,
                                           const MiniBatchOptions& options,
                                           std::vector<int> columns)
    : table_(table), columns_(std::move(columns)) {
  GOLA_CHECK(options.num_batches > 0);
  GOLA_CHECK(std::adjacent_find(columns_.begin(), columns_.end(),
                                std::greater_equal<int>()) == columns_.end())
      << "partitioner columns must be strictly ascending";
  const int64_t total_rows = table_.num_rows();
  size_t nchunks = table_.num_chunks();
  if (options.row_shuffle) {
    chunk_order_.resize(nchunks);
    std::iota(chunk_order_.begin(), chunk_order_.end(), 0);
    perm_ = FisherYatesPermutation(total_rows, options.seed);
  } else {
    chunk_order_ = ShuffledChunkOrder(nchunks, options.seed);
  }
  chunk_starts_.reserve(nchunks + 1);
  int64_t acc = 0;
  for (size_t c = 0; c < nchunks; ++c) {
    chunk_starts_.push_back(acc);
    acc += table_.chunk_rows(chunk_order_[c]);
  }
  chunk_starts_.push_back(acc);

  int64_t k = options.num_batches;
  int64_t per_batch = total_rows / k;
  if (per_batch == 0) per_batch = 1;
  batch_starts_.push_back(0);
  int64_t serial = 0;
  for (int64_t b = 0; b < k && serial < total_rows; ++b) {
    int64_t len = (b == k - 1) ? (total_rows - serial)
                               : std::min(per_batch, total_rows - serial);
    serial += len;
    batch_starts_.push_back(serial);
  }

  // Gather the first batch while the caller prepares its query.
  if (num_batches() > 0) want_ = 0;
  worker_ = std::thread([this] { PrefetchLoop(); });
}

MiniBatchPartitioner::~MiniBatchPartitioner() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

std::vector<int> MiniBatchPartitioner::columns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return columns_;
}

void MiniBatchPartitioner::Widen(const std::vector<int>& columns) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> merged;
  std::set_union(columns_.begin(), columns_.end(), columns.begin(), columns.end(),
                 std::back_inserter(merged));
  columns_ = std::move(merged);
}

bool MiniBatchPartitioner::CachedLocked(int i) const {
  auto it = cache_.find(i);
  // columns_ only grows, so an entry holds every current column iff it was
  // gathered with the current list.
  return it != cache_.end() && it->second.columns == columns_;
}

std::shared_ptr<const Chunk> MiniBatchPartitioner::Gather(
    int i, const std::vector<int>& columns) const {
  int64_t begin = batch_starts_[static_cast<size_t>(i)];
  int64_t end = batch_starts_[static_cast<size_t>(i) + 1];
  // Per reordered chunk, the local rows this batch draws from it. Rows
  // within a batch may appear in any order: serials are assigned by batch
  // position, and any fixed assignment preserves uniformity.
  std::vector<std::vector<int64_t>> local(chunk_order_.size());
  for (int64_t p = begin; p < end; ++p) {
    int64_t global = perm_.empty() ? p : perm_[static_cast<size_t>(p)];
    // Chunks are near-uniform; binary search keeps this O(log c).
    size_t c = static_cast<size_t>(
        std::upper_bound(chunk_starts_.begin(), chunk_starts_.end(), global) -
        chunk_starts_.begin() - 1);
    local[c].push_back(global - chunk_starts_[c]);
  }
  auto batch = std::make_shared<Chunk>();
  for (size_t c = 0; c < local.size(); ++c) {
    if (local[c].empty()) continue;
    auto piece = table_.GatherRows(chunk_order_[c], local[c], columns);
    GOLA_CHECK(piece.ok()) << "gathering mini-batch: " << piece.status().ToString();
    GOLA_CHECK_OK(batch->Append(std::move(*piece)));
  }
  std::vector<int64_t> serials(static_cast<size_t>(end - begin));
  std::iota(serials.begin(), serials.end(), begin);
  batch->set_serials(std::move(serials));
  return batch;
}

std::shared_ptr<const Chunk> MiniBatchPartitioner::FetchBatch(int i,
                                                              bool cursor) const {
  GOLA_CHECK(i >= 0 && i < num_batches());
  std::shared_ptr<const Chunk> chunk;
  std::vector<int> columns;
  bool was_prefetched = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Rather than gather a duplicate, wait for a prefetch of this batch.
    cv_.wait(lock, [&] { return prefetching_ != i; });
    columns = columns_;
    if (CachedLocked(i)) {
      Entry& e = cache_[i];
      chunk = e.chunk;
      was_prefetched = e.from_prefetch && !e.consumed;
      e.consumed = true;
    }
  }
  if (chunk == nullptr) chunk = Gather(i, columns);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& e = cache_[i];
    // The prefetch thread may have cached this batch, at least as wide,
    // meanwhile: hand out that object, so every caller of batch i shares
    // one chunk. Column lists only grow, so the longer holds the shorter.
    if (e.chunk == nullptr || columns.size() > e.columns.size()) {
      e.chunk = chunk;
      e.columns = columns;
    }
    chunk = e.chunk;
    e.consumed = true;
    // Drop batches well behind this fetch; callers' pins keep theirs alive.
    cache_.erase(cache_.begin(), cache_.lower_bound(i - kRetainBatches));
    // Overlap the next batch's gather with the caller's estimation.
    if (cursor && i + 1 < num_batches() && !CachedLocked(i + 1)) {
      want_ = i + 1;
      cv_.notify_all();
    }
  }
  if (cursor && obs::MetricsEnabled()) {
    Obs().batches->Increment();
    (was_prefetched ? Obs().prefetch_hits : Obs().prefetch_misses)->Increment();
  }
  return chunk;
}

void MiniBatchPartitioner::PrefetchLoop() {
  for (;;) {
    int target = -1;
    std::vector<int> columns;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || want_ >= 0; });
      if (stop_) return;
      target = want_;
      want_ = -1;
      if (CachedLocked(target)) continue;
      prefetching_ = target;
      columns = columns_;
    }
    std::shared_ptr<const Chunk> chunk = Gather(target, columns);
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto& e = cache_[target];
      if (e.chunk == nullptr || columns.size() > e.columns.size()) {
        e.chunk = std::move(chunk);
        e.columns = std::move(columns);
        e.from_prefetch = true;
        e.consumed = false;
      }
      prefetching_ = -1;
    }
    cv_.notify_all();
  }
}

std::shared_ptr<const Chunk> MiniBatchPartitioner::BatchShared(int i) const {
  return FetchBatch(i, /*cursor=*/true);
}

std::vector<std::shared_ptr<const Chunk>> MiniBatchPartitioner::BatchesSharedUpTo(
    int upto) const {
  std::vector<std::shared_ptr<const Chunk>> out;
  out.reserve(static_cast<size_t>(upto));
  for (int i = 0; i < upto && i < num_batches(); ++i) {
    out.push_back(FetchBatch(i, /*cursor=*/false));
  }
  return out;
}

}  // namespace gola
