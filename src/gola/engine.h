// Public facade of the library: register tables, run exact batch queries,
// or run them online with G-OLA's iteratively refined approximate answers.
//
// Quickstart:
//   gola::Engine engine;
//   GOLA_CHECK_OK(engine.RegisterTable("sessions", sessions_table));
//   auto online = engine.ExecuteOnline(
//       "SELECT AVG(play_time) FROM sessions "
//       "WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)");
//   while (!(*online)->done()) {
//     auto update = (*online)->Step();
//     // update->result has the running answer with CI columns;
//     // stop whenever update->max_rsd is good enough.
//   }
#ifndef GOLA_GOLA_ENGINE_H_
#define GOLA_GOLA_ENGINE_H_

#include <memory>
#include <mutex>
#include <string>

#include "exec/batch_executor.h"
#include "gola/controller.h"
#include "plan/binder.h"
#include "server/dispatcher.h"

namespace gola {

class Engine {
 public:
  explicit Engine(GolaOptions default_options = {});
  ~Engine();

  /// Registers (or replaces) a table under a case-insensitive name.
  /// Thread-safe against concurrent ExecuteOnline / session reads:
  /// replacing a name swaps the shared_ptr binding — queries already
  /// running keep streaming the snapshot they resolved, new queries see
  /// the replacement (see Catalog in plan/binder.h).
  Status RegisterTable(const std::string& name, Table table);
  Status RegisterTable(const std::string& name, TablePtr table);

  /// Registers a table backed by an on-disk compressed segment file
  /// (storage/segment/): the payload stays mmap'ed and is decoded chunk by
  /// chunk on demand, so resident memory stays bounded by the working set
  /// rather than the table (ROADMAP item 3).
  ///
  /// Additionally, when the environment variable GOLA_SEGMENT_DIR names a
  /// writable directory, every RegisterTable call transparently spills the
  /// table to a segment file there and re-registers it segment-backed — the
  /// lever CI uses to run the whole suite out-of-core. Failures fall back
  /// to the in-memory table with a warning; results are bit-identical
  /// either way.
  Status RegisterSegmentTable(const std::string& name, const std::string& path);
  Result<TablePtr> GetTable(const std::string& name) const;
  const Catalog& catalog() const { return catalog_; }

  /// Parses and binds `sql` into a lineage-block DAG.
  Result<CompiledQuery> Compile(const std::string& sql) const;

  /// EXPLAIN: the block DAG as text.
  Result<std::string> Explain(const std::string& sql) const;

  /// Exact, blocking execution (the traditional engine).
  Result<Table> ExecuteBatch(const std::string& sql,
                             const BatchExecOptions& opts = {}) const;

  /// Online execution: returns an executor that refines the answer one
  /// mini-batch at a time. Options default to the engine-level defaults.
  Result<std::unique_ptr<OnlineQueryExecutor>> ExecuteOnline(
      const std::string& sql) const;
  Result<std::unique_ptr<OnlineQueryExecutor>> ExecuteOnline(
      const std::string& sql, const GolaOptions& options) const;

  /// Online execution resumed from a checkpoint written by
  /// OnlineQueryExecutor::Checkpoint: compiles `sql`, restores the saved
  /// state (the checkpoint's fingerprint must match this query, dataset and
  /// options) and returns an executor whose next Step() continues at the
  /// saved batch — the final answer is bit-identical to an uninterrupted run.
  Result<std::unique_ptr<OnlineQueryExecutor>> ResumeOnline(
      const std::string& sql, const std::string& checkpoint_path) const;
  Result<std::unique_ptr<OnlineQueryExecutor>> ResumeOnline(
      const std::string& sql, const std::string& checkpoint_path,
      const GolaOptions& options) const;

  GolaOptions& default_options() { return default_options_; }

  // --- concurrent sessions (DESIGN.md §12) -------------------------------

  /// The engine's session dispatcher — admission control plus the shared
  /// mini-batch sweep that lets concurrent same-table queries piggyback on
  /// one scan. Lazily constructed on first use (an engine that never runs
  /// sessions pays nothing); thread-safe.
  server::Dispatcher& sessions();
  /// Same dispatcher with custom limits; must be the first sessions() call
  /// (later calls return the existing dispatcher and ignore `options`).
  server::Dispatcher& sessions(const server::DispatcherOptions& options);

  /// Submits `sql` as a concurrent session (admission-controlled; updates
  /// stream through the returned session's cursor). Unset engine options
  /// fields in `options.gola` are the caller's responsibility — the
  /// convenience overload without options uses default_options().
  Result<server::SessionPtr> SubmitOnline(const std::string& sql);
  Result<server::SessionPtr> SubmitOnline(const std::string& sql,
                                          server::SessionOptions options);

 private:
  /// GOLA_SEGMENT_DIR hook: spill + reopen, or the original on any failure.
  TablePtr MaybeSegmentBacked(const std::string& name, TablePtr table) const;

  Catalog catalog_;
  GolaOptions default_options_;
  std::mutex dispatcher_mu_;
  std::unique_ptr<server::Dispatcher> dispatcher_;  // after catalog_: dies first
};

}  // namespace gola

#endif  // GOLA_GOLA_ENGINE_H_
