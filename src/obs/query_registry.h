// Process-wide registry of active (and recently finished) online queries —
// the data behind GET /statusz. Each query's telemetry registers it at
// Prepare, pushes its update record after every Step, and deregisters on
// destruction; the HTTP server only ever reads complete snapshots, so a
// live query is never observed mid-batch.
#ifndef GOLA_OBS_QUERY_REGISTRY_H_
#define GOLA_OBS_QUERY_REGISTRY_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/update_record.h"

namespace gola {
namespace obs {

/// Point-in-time status of one online query: its last update record plus
/// what only the registry knows. Plain data — safe to copy out under the
/// registry lock and render without touching the executor.
struct QueryStatus : UpdateRecord {
  uint64_t query_id = 0;
  std::string label;  // streamed table + block count (no SQL retained)
  bool done = false;
  /// Cumulative convergence-watchdog warnings ("batch N: stall — ...");
  /// bounded by the publisher.
  std::vector<std::string> warnings;
};

class QueryRegistry {
 public:
  QueryRegistry() = default;
  QueryRegistry(const QueryRegistry&) = delete;
  QueryRegistry& operator=(const QueryRegistry&) = delete;

  /// Registers a new query; the returned id keys every later call.
  uint64_t Register(std::string label);

  /// Publishes the query's latest update. Unknown ids are ignored.
  void Update(uint64_t id, const UpdateRecord& update, bool done,
              const std::vector<std::string>& warnings);

  /// Removes the query from the active set; its last snapshot is retained
  /// in a short recently-finished history.
  void Deregister(uint64_t id);

  std::vector<QueryStatus> ActiveQueries() const;
  std::vector<QueryStatus> RecentQueries() const;

  /// The /statusz document: active + recent queries with per-phase stats.
  std::string StatuszJson() const;

  int64_t queries_started() const;

  /// Process-wide registry the introspection server reads.
  static QueryRegistry& Global();

 private:
  static constexpr size_t kRecentCap = 8;

  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::map<uint64_t, QueryStatus> active_;
  std::deque<QueryStatus> recent_;  // most recent last
};

}  // namespace obs
}  // namespace gola

#endif  // GOLA_OBS_QUERY_REGISTRY_H_
