#include "server/dispatcher.h"

#include <algorithm>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "parser/parser.h"

namespace gola {
namespace server {

namespace {

constexpr size_t kRecentCap = 32;

/// The same shape checks OnlineQueryExecutor::Prepare enforces, run at
/// Submit so a client gets a synchronous error for a query that could
/// never stream (instead of a session that fails asynchronously).
Status ValidateOnlineShape(const CompiledQuery& query) {
  if (query.blocks.empty()) return Status::PlanError("empty query");
  const std::string streamed = ToLower(query.root().table);
  for (const auto& block : query.blocks) {
    if (ToLower(block.table) != streamed) {
      return Status::NotImplemented(
          "online execution streams a single table; block scans " + block.table);
    }
    if (!block.is_aggregate) {
      return Status::NotImplemented(
          "online execution requires aggregation (plain SELECT has no "
          "converging running result)");
    }
  }
  return Status::OK();
}

}  // namespace

Dispatcher::Dispatcher(const Catalog* catalog, DispatcherOptions options)
    : catalog_(catalog), options_(options) {
  pool_ = std::make_unique<ThreadPool>(
      options_.step_threads < 0 ? 1 : static_cast<size_t>(options_.step_threads));
  if (obs::MetricsEnabled()) {
    auto& ts = obs::TimeSeriesStore::Global();
    ts_queue_depth_ = ts.RegisterSampled(
        "gola_server_queue_depth", {},
        [this] { return static_cast<double>(queued_sessions()); });
    ts_active_ = ts.RegisterSampled(
        "gola_server_active_sessions", {},
        [this] { return static_cast<double>(active_sessions()); });
  }
  scheduler_ = std::thread([this] { SchedulerLoop(); });
}

Dispatcher::~Dispatcher() { Shutdown(); }

Result<SessionPtr> Dispatcher::Submit(const std::string& sql,
                                      SessionOptions options) {
  GOLA_ASSIGN_OR_RETURN(auto stmt, ParseSql(sql));
  GOLA_ASSIGN_OR_RETURN(CompiledQuery query, BindQuery(*stmt, *catalog_));
  GOLA_RETURN_NOT_OK(ValidateOnlineShape(query));
  const std::string table = ToLower(query.root().table);

  std::unique_lock<std::mutex> lock(mu_);
  if (shutdown_) return Status::Unavailable("dispatcher is shut down");
  if (static_cast<int>(queued_.size()) >= options_.max_queued_sessions) {
    if (obs::MetricsEnabled()) {
      obs::MetricsRegistry::Global()
          .GetCounter("gola_server_admission_rejected_total")
          ->Increment();
    }
    return Status::Unavailable(
        Format("admission queue full (%d queued, %d running); retry later",
               static_cast<int>(queued_.size()),
               static_cast<int>(running_.size())));
  }
  SessionPtr session(new QuerySession(next_id_++, sql, table, std::move(query),
                                      std::move(options)));
  queued_.push_back(session);
  if (obs::MetricsEnabled()) {
    auto& reg = obs::MetricsRegistry::Global();
    reg.GetCounter("gola_server_sessions_submitted_total")->Increment();
    obs::MetricLabels labels;
    labels.table = table;
    reg.GetCounter("gola_server_sessions_submitted_total", labels)->Increment();
    reg.GetGauge("gola_server_queue_depth")
        ->Set(static_cast<int64_t>(queued_.size()));
  }
  cv_.notify_all();
  return session;
}

SessionPtr Dispatcher::Find(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : running_) {
    if (s->id() == id) return s;
  }
  for (const auto& s : queued_) {
    if (s->id() == id) return s;
  }
  for (const auto& s : recent_) {
    if (s->id() == id) return s;
  }
  return nullptr;
}

std::vector<SessionPtr> Dispatcher::Sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SessionPtr> out;
  out.reserve(recent_.size() + running_.size() + queued_.size());
  for (const auto& s : recent_) out.push_back(s);
  for (const auto& s : running_) out.push_back(s);
  for (const auto& s : queued_) out.push_back(s);
  return out;
}

int Dispatcher::active_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(running_.size());
}

int Dispatcher::queued_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(queued_.size());
}

ScanShareStats Dispatcher::scan_stats() const { return scan_share_.stats(); }

void Dispatcher::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      // Already requested; fall through to the join below (idempotent).
    }
    shutdown_ = true;
    for (const auto& s : queued_) s->Cancel();
    for (const auto& s : running_) s->Cancel();
    cv_.notify_all();
  }
  if (scheduler_.joinable()) scheduler_.join();
  // Retire the pull-based series before any member state goes away: Retire
  // synchronizes with the store's sampler, so the queue-depth callbacks
  // never fire on a dead dispatcher.
  auto& ts = obs::TimeSeriesStore::Global();
  ts.Retire(ts_queue_depth_);
  ts.Retire(ts_active_);
  // The scheduler is gone: finalize whatever it left behind so no Await
  // ever hangs on a session the sweep will not touch again.
  std::vector<SessionPtr> leftovers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftovers.assign(queued_.begin(), queued_.end());
    leftovers.insert(leftovers.end(), running_.begin(), running_.end());
    queued_.clear();
    running_.clear();
  }
  for (const auto& s : leftovers) {
    s->StepOnce();  // observes the cancel flag and finishes the session
    s->Finish(SessionState::kCancelled, Status::OK());
    std::lock_guard<std::mutex> lock(mu_);
    recent_.push_back(s);
    while (recent_.size() > kRecentCap) recent_.pop_front();
  }
}

void Dispatcher::Promote(std::unique_lock<std::mutex>& lock) {
  while (!shutdown_ && !queued_.empty() &&
         static_cast<int>(running_.size()) < options_.max_active_sessions) {
    SessionPtr session = queued_.front();
    queued_.pop_front();
    lock.unlock();
    // Resolve the shared scan outside the dispatcher lock: the first
    // session on a (table, partition key) builds the partitioner, later
    // ones attach. Opt-outs (share_scan = false) pass null and build a
    // private partitioner inside the executor.
    std::shared_ptr<const MiniBatchPartitioner> shared_scan;
    if (session->options().share_scan) {
      auto table = catalog_->GetTable(session->table());
      if (table.ok()) {
        shared_scan = scan_share_.GetOrCreate(*table, session->options().gola,
                                              session->query_.ScanColumns());
      }
    }
    session->Start(catalog_, std::move(shared_scan));
    lock.lock();
    if (session->state() == SessionState::kRunning) {
      running_.push_back(std::move(session));
    } else {
      recent_.push_back(std::move(session));
      while (recent_.size() > kRecentCap) recent_.pop_front();
    }
  }
}

void Dispatcher::SchedulerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!shutdown_) {
    Promote(lock);

    // Snapshot this round's runnable set. Keeping submission order groups
    // same-table sessions naturally (a fleet submits its panels together),
    // so the shared batch chunk stays cache-resident across their steps.
    std::vector<SessionPtr> round(running_.begin(), running_.end());
    if (round.empty()) {
      // Predicate wait: Shutdown's notify can fire while this thread is
      // mid-Promote (lock released around Start), so a naked wait here
      // would sleep through it and deadlock the join.
      cv_.wait(lock,
               [&] { return shutdown_ || !queued_.empty() || !running_.empty(); });
      continue;
    }

    lock.unlock();
    // One sweep round: every running session folds its next mini-batch.
    // Sessions are independent (own executor, own replicate state); the
    // only shared input is the immutable partitioner, so the fan-out is
    // race-free and each session's batch order stays sequential.
    Stopwatch sweep_timer;
    if (round.size() == 1) {
      round[0]->StepOnce();
    } else {
      pool_->ParallelFor(round.size(),
                         [&](size_t i) { round[i]->StepOnce(); });
    }
    if (obs::MetricsEnabled()) {
      obs::MetricsRegistry::Global()
          .GetHistogram("gola_server_sweep_us")
          ->Record(static_cast<int64_t>(sweep_timer.ElapsedSeconds() * 1e6));
    }
    lock.lock();

    // Retire sessions that went terminal during the round.
    auto it = std::remove_if(
        running_.begin(), running_.end(), [&](const SessionPtr& s) {
          if (s->state() < SessionState::kDone) return false;
          recent_.push_back(s);
          return true;
        });
    running_.erase(it, running_.end());
    while (recent_.size() > kRecentCap) recent_.pop_front();
    if (obs::MetricsEnabled()) {
      auto& reg = obs::MetricsRegistry::Global();
      reg.GetGauge("gola_server_active_sessions")
          ->Set(static_cast<int64_t>(running_.size()));
      reg.GetGauge("gola_server_queue_depth")
          ->Set(static_cast<int64_t>(queued_.size()));
    }
  }
}

}  // namespace server
}  // namespace gola
