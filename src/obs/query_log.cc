#include "obs/query_log.h"

#include <cstdlib>

#include "common/string_util.h"

namespace gola {
namespace obs {

namespace {

void AppendField(std::string& out, const char* key, const std::string& value) {
  out += Format("\"%s\": \"%s\", ", key, JsonEscape(value).c_str());
}
void AppendField(std::string& out, const char* key, double value) {
  out += Format("\"%s\": %s, ", key, JsonNumber(value).c_str());
}
void AppendField(std::string& out, const char* key, int64_t value) {
  out += Format("\"%s\": %lld, ", key, static_cast<long long>(value));
}
void AppendField(std::string& out, const char* key, int value) {
  AppendField(out, key, static_cast<int64_t>(value));
}
void AppendField(std::string& out, const char* key, bool value) {
  out += Format("\"%s\": %s, ", key, value ? "true" : "false");
}

}  // namespace

std::string QueryLogRecord::ToJson() const {
  std::string out = "{";
  AppendField(out, "kind", std::string("query_wide_event"));
  AppendField(out, "session_id", session_id);
  AppendField(out, "label", label);
  AppendField(out, "table", table);
  AppendField(out, "sql", sql);
  AppendField(out, "state", state);
  AppendField(out, "error", error);
  AppendField(out, "degradation", degradation);

  AppendField(out, "num_batches", num_batches);
  AppendField(out, "bootstrap_replicates", bootstrap_replicates);
  AppendField(out, "seed", static_cast<int64_t>(seed));
  AppendField(out, "deadline_ms", deadline_ms);
  AppendField(out, "share_scan_requested", share_scan_requested);
  AppendField(out, "scan_shared", scan_shared);

  AppendField(out, "batches_done", batches_done);
  AppendField(out, "total_batches", total_batches);
  AppendField(out, "recomputes", recomputes);
  AppendField(out, "updates_dropped", updates_dropped);

  AppendField(out, "seconds_to_first_update", seconds_to_first_update);
  AppendField(out, "seconds_to_done", seconds_to_done);

  out += "\"slo\": [";
  for (size_t i = 0; i < slo.size(); ++i) {
    if (i) out += ", ";
    out += Format("{\"target_rsd\": %.6g, \"met\": %s, \"seconds\": %.6g}",
                  slo[i].target_rsd, slo[i].met ? "true" : "false",
                  slo[i].seconds);
  }
  out += "], ";

  out += "\"stats\": {";
  {
    std::string inner;
    AppendField(inner, "envelope_check_seconds", stats.envelope_check_seconds);
    AppendField(inner, "delta_exec_seconds", stats.delta_exec_seconds);
    AppendField(inner, "emit_seconds", stats.emit_seconds);
    AppendField(inner, "emit_overlay_seconds", stats.emit_overlay_seconds);
    AppendField(inner, "emit_finalize_seconds", stats.emit_finalize_seconds);
    AppendField(inner, "emit_broadcast_seconds", stats.emit_broadcast_seconds);
    AppendField(inner, "emit_root_seconds", stats.emit_root_seconds);
    AppendField(inner, "rebuild_seconds", stats.rebuild_seconds);
    AppendField(inner, "materialize_seconds", stats.materialize_seconds);
    AppendField(inner, "morsels", stats.morsels);
    AppendField(inner, "rows_in", stats.rows_in);
    AppendField(inner, "rows_folded", stats.rows_folded);
    AppendField(inner, "rows_uncertain", stats.rows_uncertain);
    // Strip the trailing ", ".
    inner.resize(inner.size() - 2);
    out += inner;
  }
  out += "}, ";

  out += "\"events\": [";
  for (size_t i = 0; i < events.size(); ++i) {
    if (i) out += ", ";
    out += Format("{\"seconds\": %.6g, \"name\": \"%s\"}", events[i].seconds,
                  JsonEscape(events[i].name).c_str());
  }
  out += "], ";

  out += "\"groups\": " + groups.ToJson() + ", ";

  AppendField(out, "has_estimate", headline.has_estimate);
  AppendField(out, "estimate", headline.estimate);
  AppendField(out, "ci_lo", headline.ci_lo);
  AppendField(out, "ci_hi", headline.ci_hi);
  AppendField(out, "max_rsd", max_rsd);

  out.resize(out.size() - 2);
  out += "}";
  return out;
}

QueryLog::~QueryLog() { Close(); }

bool QueryLog::Open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  path_ = path;
  if (path.empty()) return true;
  file_ = std::fopen(path.c_str(), "a");
  if (file_ == nullptr) {
    path_.clear();
    return false;
  }
  return true;
}

void QueryLog::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  path_.clear();
}

bool QueryLog::enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return file_ != nullptr;
}

void QueryLog::Append(const QueryLogRecord& record) {
  // Serialize outside the lock; only the write is exclusive, so one slow
  // ToJson never blocks another session's terminal transition.
  std::string line;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (file_ == nullptr) return;
  }
  line = record.ToJson();
  line += '\n';
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
}

QueryLog& QueryLog::Global() {
  // Leaked on purpose: sessions may finish during static destruction.
  static QueryLog* log = [] {
    auto* l = new QueryLog();
    if (const char* env = std::getenv("GOLA_QUERY_LOG_PATH")) {
      if (env[0] != '\0') l->Open(env);
    }
    return l;
  }();
  return *log;
}

}  // namespace obs
}  // namespace gola
