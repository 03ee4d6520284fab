// Scan sharing across concurrent online queries (ROADMAP item 1).
//
// G-OLA's mini-batch sweep starts with scan production: shuffle the table
// into stream order and gather k uniform random mini-batches (paper §2.1).
// That work is a pure function of (table identity, batch count, shuffle
// mode, seed) — it does not depend on the query at all. A dashboard fleet
// therefore re-does it N times for N concurrent queries over the same
// table, which is exactly the redundancy PF-OLA/BlinkDB-style systems
// amortize: one scan, many consumers.
//
// ScanShare is that amortization point. It caches MiniBatchPartitioners by
// (table, partition-relevant options) and hands them out as shared_ptr:
// every query whose options produce the same partitioning attaches to the
// in-flight batch stream instead of building its own. Entries are held by
// weak_ptr, so the batches are freed the moment the last attached query
// finishes — the cache itself never pins table-sized memory.
//
// Sharing is bit-transparent: every batch a partitioner hands out is
// deterministic in its inputs (its cache only decides whether a batch is
// gathered again, and with which columns), so a query run against a shared
// scan produces results bit-identical to a solo run with the same options
// (server_session_test asserts this under TSan). A shared scan gathers the
// union of the columns its attached queries read, not the whole table.
#ifndef GOLA_SERVER_SCAN_SHARE_H_
#define GOLA_SERVER_SCAN_SHARE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "gola/online_env.h"
#include "storage/partitioner.h"
#include "storage/table.h"

namespace gola {
namespace server {

struct ScanShareStats {
  int64_t hits = 0;    // queries that attached to an existing partitioner
  int64_t misses = 0;  // queries that had to build one
};

class ScanShare {
 public:
  ScanShare() = default;
  ScanShare(const ScanShare&) = delete;
  ScanShare& operator=(const ScanShare&) = delete;

  /// Returns the shared mini-batch partitioning of `table` under the
  /// partition-relevant fields of `options` (num_batches, row_shuffle,
  /// seed), building it on first use. Concurrent callers with the same key
  /// block on the build instead of duplicating it; different keys build
  /// independently. A new scan gathers only `columns` (ascending table
  /// indices, the first caller's CompiledQuery::ScanColumns()); each
  /// executor that attaches widens it to its own
  /// (OnlineQueryExecutor::Create).
  std::shared_ptr<const MiniBatchPartitioner> GetOrCreate(
      const TablePtr& table, const GolaOptions& options,
      const std::vector<int>& columns);

  ScanShareStats stats() const;

 private:
  /// Identity of one shared scan. The raw pointer is the map key; `table`
  /// (weak) detects address reuse after the original table died.
  struct Key {
    const Table* table = nullptr;
    int num_batches = 0;
    bool row_shuffle = true;
    uint64_t seed = 0;
    bool operator<(const Key& o) const {
      return std::tie(table, num_batches, row_shuffle, seed) <
             std::tie(o.table, o.num_batches, o.row_shuffle, o.seed);
    }
  };
  /// One cache slot. The slot-level mutex serializes building per key, so a
  /// slow build never blocks lookups of other tables.
  struct Slot {
    std::mutex mu;
    std::weak_ptr<const Table> table;
    std::weak_ptr<const MiniBatchPartitioner> scan;
  };

  mutable std::mutex mu_;  // guards slots_ and stats_
  std::map<Key, std::shared_ptr<Slot>> slots_;
  ScanShareStats stats_;
};

}  // namespace server
}  // namespace gola

#endif  // GOLA_SERVER_SCAN_SHARE_H_
