#include "gola/engine.h"

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdlib>

#include "common/logging.h"
#include "common/string_util.h"
#include "parser/parser.h"
#include "storage/segment/segment.h"

namespace gola {

namespace {

std::string SegmentFileName(const std::string& table_name) {
  std::string out;
  out.reserve(table_name.size());
  for (char c : table_name) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  // pid + sequence keep concurrent test shards writing to one shared
  // GOLA_SEGMENT_DIR from colliding.
  static std::atomic<uint64_t> seq{0};
  out += StrCat(".", std::to_string(getpid()), ".",
                std::to_string(seq.fetch_add(1)), ".gseg");
  return out;
}

}  // namespace

Engine::Engine(GolaOptions default_options)
    : default_options_(std::move(default_options)) {}

Engine::~Engine() {
  // Cancel and join any live sessions before the catalog they read dies.
  if (dispatcher_ != nullptr) dispatcher_->Shutdown();
}

server::Dispatcher& Engine::sessions() { return sessions({}); }

server::Dispatcher& Engine::sessions(const server::DispatcherOptions& options) {
  std::lock_guard<std::mutex> lock(dispatcher_mu_);
  if (dispatcher_ == nullptr) {
    dispatcher_ = std::make_unique<server::Dispatcher>(&catalog_, options);
  }
  return *dispatcher_;
}

Result<server::SessionPtr> Engine::SubmitOnline(const std::string& sql) {
  server::SessionOptions options;
  options.gola = default_options_;
  return SubmitOnline(sql, std::move(options));
}

Result<server::SessionPtr> Engine::SubmitOnline(const std::string& sql,
                                                server::SessionOptions options) {
  return sessions().Submit(sql, std::move(options));
}

Status Engine::RegisterTable(const std::string& name, Table table) {
  return RegisterTable(name, std::make_shared<Table>(std::move(table)));
}

Status Engine::RegisterTable(const std::string& name, TablePtr table) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  // The catalog refuses repeated column names; refuse them before a spill
  // writes the table out.
  if (table->schema() != nullptr) GOLA_RETURN_NOT_OK(table->schema()->CheckUniqueNames());
  return catalog_.RegisterTable(name, MaybeSegmentBacked(name, std::move(table)));
}

Status Engine::RegisterSegmentTable(const std::string& name,
                                    const std::string& path) {
  GOLA_ASSIGN_OR_RETURN(TablePtr table, OpenSegmentTable(path));
  return catalog_.RegisterTable(name, std::move(table));
}

TablePtr Engine::MaybeSegmentBacked(const std::string& name,
                                    TablePtr table) const {
  const char* dir = std::getenv("GOLA_SEGMENT_DIR");
  if (dir == nullptr || *dir == '\0' || table->streamed() ||
      table->num_rows() == 0) {
    return table;
  }
  std::string path = std::string(dir) + "/" + SegmentFileName(name);
  Status st = WriteSegmentFile(*table, path);
  if (st.ok()) {
    auto opened = OpenSegmentTable(path);
    if (opened.ok()) return *opened;
    st = opened.status();
  }
  GOLA_LOG(Warn) << "GOLA_SEGMENT_DIR: keeping '" << name
                 << "' in memory: " << st.ToString();
  return table;
}

Result<TablePtr> Engine::GetTable(const std::string& name) const {
  return catalog_.GetTable(name);
}

Result<CompiledQuery> Engine::Compile(const std::string& sql) const {
  GOLA_ASSIGN_OR_RETURN(auto stmt, ParseSql(sql));
  return BindQuery(*stmt, catalog_);
}

Result<std::string> Engine::Explain(const std::string& sql) const {
  GOLA_ASSIGN_OR_RETURN(CompiledQuery query, Compile(sql));
  return query.ToString();
}

Result<Table> Engine::ExecuteBatch(const std::string& sql,
                                   const BatchExecOptions& opts) const {
  GOLA_ASSIGN_OR_RETURN(CompiledQuery query, Compile(sql));
  BatchExecutor exec(&catalog_);
  return exec.Execute(query, opts);
}

Result<std::unique_ptr<OnlineQueryExecutor>> Engine::ExecuteOnline(
    const std::string& sql) const {
  return ExecuteOnline(sql, default_options_);
}

Result<std::unique_ptr<OnlineQueryExecutor>> Engine::ExecuteOnline(
    const std::string& sql, const GolaOptions& options) const {
  GOLA_ASSIGN_OR_RETURN(CompiledQuery query, Compile(sql));
  return OnlineQueryExecutor::Create(&catalog_, std::move(query), options);
}

Result<std::unique_ptr<OnlineQueryExecutor>> Engine::ResumeOnline(
    const std::string& sql, const std::string& checkpoint_path) const {
  return ResumeOnline(sql, checkpoint_path, default_options_);
}

Result<std::unique_ptr<OnlineQueryExecutor>> Engine::ResumeOnline(
    const std::string& sql, const std::string& checkpoint_path,
    const GolaOptions& options) const {
  GOLA_ASSIGN_OR_RETURN(std::unique_ptr<OnlineQueryExecutor> exec,
                        ExecuteOnline(sql, options));
  GOLA_RETURN_NOT_OK(exec->ResumeFrom(checkpoint_path));
  return exec;
}

}  // namespace gola
