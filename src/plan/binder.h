// Catalog and binder: resolves a parsed SelectStmt against registered
// tables, type-checks every expression, lifts nested aggregate subqueries
// into lineage blocks, detects correlation keys, and classifies predicate
// conjuncts as certain or uncertain. The output CompiledQuery is fully
// bound — every column reference carries a chunk position and every node a
// result type — and is shared by the batch and online engines.
#ifndef GOLA_PLAN_BINDER_H_
#define GOLA_PLAN_BINDER_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "parser/ast.h"
#include "plan/logical_plan.h"
#include "storage/table.h"

namespace gola {

/// Name → table registry shared by the engines. Thread-safe: concurrent
/// sessions resolve tables (shared lock) while RegisterTable replaces
/// entries under an exclusive lock.
///
/// Replace-while-running semantics: tables are handed out as shared_ptr
/// snapshots. A query that already resolved a table (at bind/Prepare time)
/// keeps streaming the version it saw — replacing a name never mutates data
/// under a running query, it only changes what *new* queries resolve. The
/// scan-share layer keys shared mini-batch partitioners by table identity,
/// so sessions over the old and the new version never mix batch streams.
class Catalog {
 public:
  /// Binds `name` to `table`, replacing any earlier binding. Fails when two
  /// column names of the table repeat (Schema::CheckUniqueNames): the
  /// binder and the scan resolve columns by name.
  Status RegisterTable(const std::string& name, TablePtr table);
  Result<TablePtr> GetTable(const std::string& name) const;
  Result<SchemaPtr> GetSchema(const std::string& name) const;
  bool HasTable(const std::string& name) const;
  std::vector<std::string> ListTables() const;
  /// Monotone counter bumped by every RegisterTable — lets caches (e.g.
  /// scan sharing) cheaply detect that some binding changed.
  uint64_t version() const;

 private:
  mutable std::shared_mutex mu_;
  uint64_t version_ = 0;
  std::unordered_map<std::string, TablePtr> tables_;  // lower-cased names
};

/// Binds a parsed statement into an executable block DAG.
Result<CompiledQuery> BindQuery(const SelectStmt& stmt, const Catalog& catalog);

}  // namespace gola

#endif  // GOLA_PLAN_BINDER_H_
