#include "server/session.h"

#include <string>
#include <utility>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace gola {
namespace server {

const char* SessionStateName(SessionState s) {
  switch (s) {
    case SessionState::kQueued: return "queued";
    case SessionState::kRunning: return "running";
    case SessionState::kDone: return "done";
    case SessionState::kFailed: return "failed";
    case SessionState::kCancelled: return "cancelled";
  }
  return "unknown";
}

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

QuerySession::QuerySession(uint64_t id, std::string sql, std::string table,
                           CompiledQuery query, SessionOptions options)
    : id_(id),
      sql_(std::move(sql)),
      table_(std::move(table)),
      label_(options.label.empty() ? sql_.substr(0, 96) : options.label),
      options_(std::move(options)),
      query_(std::move(query)),
      submit_time_(std::chrono::steady_clock::now()) {
  if (options_.max_pending_updates < 1) options_.max_pending_updates = 1;
  // Stamp the engine's metric labels with this session's identity: the
  // controller then records per-session labeled families (batch/phase
  // timings) next to the global ones, and the time-series store keys this
  // query's convergence series by the session id clients see in /sessions.
  options_.gola.metrics_labels.session_id = std::to_string(id_);
  options_.gola.metrics_labels.table = table_;
}

QuerySession::~QuerySession() = default;

SessionState QuerySession::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

Status QuerySession::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

bool QuerySession::scan_shared() const {
  std::lock_guard<std::mutex> lock(mu_);
  return scan_shared_;
}

bool QuerySession::Next(OnlineUpdate* out, std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, timeout, [&] {
    return !pending_.empty() || state_ >= SessionState::kDone;
  });
  if (pending_.empty()) return false;
  *out = std::move(pending_.front());
  pending_.pop_front();
  return true;
}

std::optional<OnlineUpdate> QuerySession::Latest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latest_;
}

Result<OnlineUpdate> QuerySession::Await() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return state_ >= SessionState::kDone; });
  if (state_ == SessionState::kDone && final_.has_value()) return *final_;
  if (state_ == SessionState::kCancelled) {
    return Status::ExecutionError("session cancelled");
  }
  return error_.ok() ? Status::ExecutionError("session ended without a result")
                     : error_;
}

void QuerySession::Cancel() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ >= SessionState::kDone) return;
  if (!cancel_requested_) NoteEventLocked("cancel_requested");
  cancel_requested_ = true;
  cv_.notify_all();
}

Status QuerySession::Checkpoint(const std::string& path) {
  std::lock_guard<std::mutex> step_lock(step_mu_);
  if (exec_ == nullptr) {
    return Status::ExecutionError(
        "session is not running (checkpoint needs a live executor)");
  }
  Status st = exec_->Checkpoint(path);
  if (st.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    NoteEventLocked("checkpoint");
  }
  return st;
}

int QuerySession::batches_done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_done_;
}

int QuerySession::total_batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_batches_;
}

int64_t QuerySession::updates_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

double QuerySession::seconds_to_first_update() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_update_seconds_;
}

double QuerySession::seconds_to_done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_seconds_;
}

Degradation QuerySession::degradation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return degradation_;
}

int QuerySession::pending_updates() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(pending_.size());
}

std::vector<obs::SloCrossing> QuerySession::slo_crossings() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slo_crossings_;
}

std::vector<obs::QueryLogEvent> QuerySession::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

obs::GroupConvergenceSummary QuerySession::group_summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  return group_summary_;
}

void QuerySession::Start(
    const Catalog* catalog,
    std::shared_ptr<const MiniBatchPartitioner> shared_scan) {
  std::lock_guard<std::mutex> step_lock(step_mu_);
  bool cancelled;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled = cancel_requested_;
  }
  if (cancelled) {
    // Cancelled while queued: never build an executor. Finish still runs so
    // the wide-event log records the stillborn session.
    Finish(SessionState::kCancelled, Status::OK());
    return;
  }
  auto exec = OnlineQueryExecutor::Create(catalog, std::move(query_),
                                          options_.gola, std::move(shared_scan));
  if (!exec.ok()) {
    Finish(SessionState::kFailed, exec.status());
    return;
  }
  exec_ = std::move(*exec);
  std::lock_guard<std::mutex> lock(mu_);
  state_ = SessionState::kRunning;
  scan_shared_ = exec_->scan_shared();
  total_batches_ = exec_->total_batches();
  if (scan_shared_) NoteEventLocked("scan_attach");
  cv_.notify_all();
}

bool QuerySession::StepOnce() {
  std::lock_guard<std::mutex> step_lock(step_mu_);
  if (exec_ == nullptr) return false;
  bool cancelled;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ != SessionState::kRunning) return false;
    cancelled = cancel_requested_;
  }
  if (cancelled) {
    HarvestExecutorTelemetry();
    Finish(SessionState::kCancelled, Status::OK());
    exec_.reset();  // releases the shared scan reference
    return false;
  }

  Result<OnlineUpdate> update = exec_->Step();
  HarvestExecutorTelemetry();
  if (!update.ok()) {
    Finish(SessionState::kFailed, update.status());
    exec_.reset();
    return false;
  }
  const bool final = exec_->done();
  Publish(std::move(*update), final);
  if (final) {
    Finish(SessionState::kDone, Status::OK());
    exec_.reset();
    return false;
  }
  return true;
}

void QuerySession::Publish(OnlineUpdate update, bool final) {
  std::lock_guard<std::mutex> lock(mu_);
  batches_done_ = update.batch_index;
  if (update.degradation > degradation_) {
    NoteEventLocked(std::string("degrade:") +
                    DegradationName(update.degradation));
  }
  degradation_ = update.degradation;
  recomputes_ = update.recomputes_so_far;
  // Watchdog alerts become lifecycle events ("stall", "ci_regression",
  // "uncertain_growth") — the wide event and /sessions/<id> both show them.
  for (const obs::WatchdogAlert& alert : update.alerts) {
    NoteEventLocked(alert.kind);
  }
  if (!update.groups.empty()) group_summary_ = update.groups;
  if (first_update_seconds_ < 0) {
    first_update_seconds_ = SecondsSince(submit_time_);
    // Time-to-first-estimate, the latency clients actually feel. The
    // labeled family is what bench_server reads its ttfe percentiles from.
    if (obs::MetricsEnabled()) {
      obs::MetricLabels labels;
      labels.table = table_;
      obs::MetricsRegistry::Global()
          .GetHistogram("gola_server_ttfe_us", labels)
          ->Record(static_cast<int64_t>(first_update_seconds_ * 1e6));
    }
  }
  stats_total_ += update.stats;  // per-batch deltas, summed for the wide event
  if (update.headline.has_estimate) headline_ = update.headline;
  latest_ = update;
  if (final) final_ = update;
  // Slow consumer: shed the oldest pending update rather than stalling the
  // shared sweep — a dashboard wants the freshest estimate. The final
  // update cannot be shed: nothing is published after it, so it is always
  // the newest element.
  while (pending_.size() >=
         static_cast<size_t>(options_.max_pending_updates)) {
    pending_.pop_front();
    ++dropped_;
  }
  pending_.push_back(std::move(update));
  cv_.notify_all();
}

void QuerySession::Finish(SessionState terminal, Status status) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ >= SessionState::kDone) return;
    state_ = terminal;
    error_ = std::move(status);
    done_seconds_ = SecondsSince(submit_time_);
    cv_.notify_all();
  }
  // Terminal side effects run outside mu_ (the wide-event serialization and
  // counter flush must not block cursor readers). Exactly once: the early
  // return above means only the first terminal transition reaches here.
  if (obs::MetricsEnabled()) {
    auto& reg = obs::MetricsRegistry::Global();
    obs::MetricLabels labels;
    labels.table = table_;
    reg.GetCounter(Format("gola_server_sessions_finished_total{state=\"%s\"}",
                          SessionStateName(terminal)))
        ->Increment();
    int64_t dropped;
    {
      std::lock_guard<std::mutex> lock(mu_);
      dropped = dropped_;
    }
    if (dropped > 0) {
      obs::MetricLabels drop_labels = labels;
      drop_labels.session_id = std::to_string(id_);
      reg.GetCounter("gola_server_updates_dropped_total", drop_labels)
          ->Add(dropped);
    }
  }
  EmitWideEvent();
}

void QuerySession::NoteEventLocked(std::string name) {
  events_.push_back({SecondsSince(submit_time_), std::move(name)});
}

void QuerySession::HarvestExecutorTelemetry() {
  if (exec_ == nullptr) return;
  const obs::AccuracySloTracker& slo = exec_->slo();
  std::lock_guard<std::mutex> lock(mu_);
  slo_crossings_ = slo.crossings();
}

void QuerySession::EmitWideEvent() {
  obs::QueryLog& log = obs::QueryLog::Global();
  if (!log.enabled()) return;
  obs::QueryLogRecord rec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rec.session_id = std::to_string(id_);
    rec.label = label_;
    rec.table = table_;
    rec.sql = sql_;
    rec.state = SessionStateName(state_);
    if (!error_.ok()) rec.error = error_.ToString();
    rec.degradation = DegradationName(degradation_);
    rec.num_batches = options_.gola.num_batches;
    rec.bootstrap_replicates = options_.gola.bootstrap_replicates;
    rec.seed = options_.gola.seed;
    rec.deadline_ms = static_cast<int64_t>(options_.gola.deadline_ms);
    rec.share_scan_requested = options_.share_scan;
    rec.scan_shared = scan_shared_;
    rec.batches_done = batches_done_;
    rec.total_batches = total_batches_;
    rec.recomputes = recomputes_;
    rec.updates_dropped = dropped_;
    rec.seconds_to_first_update = first_update_seconds_;
    rec.seconds_to_done = done_seconds_;
    rec.slo = slo_crossings_;
    rec.stats = stats_total_;
    rec.events = events_;
    rec.groups = group_summary_;
    rec.headline = headline_;
    if (latest_.has_value()) rec.max_rsd = latest_->max_rsd;
  }
  log.Append(rec);
}

}  // namespace server
}  // namespace gola
