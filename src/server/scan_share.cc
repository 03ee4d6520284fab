#include "server/scan_share.h"

#include "obs/metrics.h"

namespace gola {
namespace server {

std::shared_ptr<const MiniBatchPartitioner> ScanShare::GetOrCreate(
    const TablePtr& table, const GolaOptions& options, const std::vector<int>& columns) {
  Key key;
  key.table = table.get();
  key.num_batches = options.num_batches;
  key.row_shuffle = options.row_shuffle;
  key.seed = options.seed;

  std::shared_ptr<Slot> slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& entry = slots_[key];
    if (entry == nullptr) entry = std::make_shared<Slot>();
    slot = entry;
    // Opportunistic sweep: drop slots whose scan and table are both gone,
    // so a long-lived server does not accumulate dead keys.
    for (auto it = slots_.begin(); it != slots_.end();) {
      if (it->second != slot && it->second->scan.expired() &&
          it->second->table.expired()) {
        it = slots_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::lock_guard<std::mutex> slot_lock(slot->mu);
  // Same-address-different-table (the old table died, the allocator reused
  // its address): the cached scan partitions dead data — rebuild.
  std::shared_ptr<const Table> cached_table = slot->table.lock();
  std::shared_ptr<const MiniBatchPartitioner> scan = slot->scan.lock();
  if (scan != nullptr && cached_table == table) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.hits;
    }
    if (obs::MetricsEnabled()) {
      obs::MetricsRegistry::Global()
          .GetCounter("gola_server_scan_share_hits_total")
          ->Increment();
    }
    return scan;
  }

  MiniBatchOptions part_opts;
  part_opts.num_batches = options.num_batches;
  part_opts.row_shuffle = options.row_shuffle;
  part_opts.seed = options.seed;
  scan = std::make_shared<const MiniBatchPartitioner>(*table, part_opts, columns);
  slot->table = table;
  slot->scan = scan;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
  }
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Global()
        .GetCounter("gola_server_scan_share_misses_total")
        ->Increment();
  }
  return scan;
}

ScanShareStats ScanShare::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace server
}  // namespace gola
