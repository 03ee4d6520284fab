#include "obs/query_registry.h"

#include "common/string_util.h"

namespace gola {
namespace obs {

namespace {

void AppendQueryJson(const QueryStatus& q, std::string* out) {
  *out += Format(
      "{\"query_id\": %llu, \"label\": \"%s\", \"batch_index\": %d, "
      "\"total_batches\": %d, \"fraction_processed\": %.6g, "
      "\"max_rsd\": %s, \"uncertain_tuples\": %lld, "
      "\"uncertain_groups\": %lld, \"recomputes\": %d, "
      "\"batch_seconds\": %.6g, \"elapsed_seconds\": %.6g, \"done\": %s",
      static_cast<unsigned long long>(q.query_id), JsonEscape(q.label).c_str(),
      q.batch_index, q.total_batches, q.fraction_processed,
      JsonNumber(q.max_rsd).c_str(), static_cast<long long>(q.uncertain_tuples),
      static_cast<long long>(q.uncertain_groups), q.recomputes_so_far,
      q.batch_seconds, q.elapsed_seconds, q.done ? "true" : "false");
  *out += ", \"groups\": " + q.groups.ToJson();
  *out += ", \"warnings\": [";
  for (size_t i = 0; i < q.warnings.size(); ++i) {
    if (i) *out += ", ";
    *out += StrCat("\"", JsonEscape(q.warnings[i]), "\"");
  }
  *out += "]";
  const QueryStats& s = q.stats;
  *out += Format(
      ", \"last_batch\": {\"envelope_check_seconds\": %.6g, "
      "\"delta_exec_seconds\": %.6g, \"emit_seconds\": %.6g, "
      "\"emit_overlay_seconds\": %.6g, \"emit_finalize_seconds\": %.6g, "
      "\"emit_broadcast_seconds\": %.6g, \"emit_root_seconds\": %.6g, "
      "\"rebuild_seconds\": %.6g, \"materialize_seconds\": %.6g, "
      "\"morsels\": %lld, \"rows_in\": %lld, \"rows_folded\": %lld, "
      "\"rows_uncertain\": %lld, \"failure_cause\": %s%s%s}}",
      s.envelope_check_seconds, s.delta_exec_seconds, s.emit_seconds,
      s.emit_overlay_seconds, s.emit_finalize_seconds, s.emit_broadcast_seconds,
      s.emit_root_seconds, s.rebuild_seconds, s.materialize_seconds,
      static_cast<long long>(s.morsels), static_cast<long long>(s.rows_in),
      static_cast<long long>(s.rows_folded),
      static_cast<long long>(s.rows_uncertain),
      s.failure_cause == nullptr ? "null" : "\"",
      s.failure_cause == nullptr ? "" : JsonEscape(s.failure_cause).c_str(),
      s.failure_cause == nullptr ? "" : "\"");
}

}  // namespace

uint64_t QueryRegistry::Register(std::string label) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  QueryStatus status;
  status.query_id = id;
  status.label = std::move(label);
  active_.emplace(id, std::move(status));
  return id;
}

void QueryRegistry::Update(uint64_t id, const UpdateRecord& update, bool done,
                           const std::vector<std::string>& warnings) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(id);
  if (it == active_.end()) return;
  static_cast<UpdateRecord&>(it->second) = update;
  it->second.done = done;
  it->second.warnings = warnings;
}

void QueryRegistry::Deregister(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(id);
  if (it == active_.end()) return;
  recent_.push_back(std::move(it->second));
  if (recent_.size() > kRecentCap) recent_.pop_front();
  active_.erase(it);
}

std::vector<QueryStatus> QueryRegistry::ActiveQueries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryStatus> out;
  out.reserve(active_.size());
  for (const auto& [id, status] : active_) out.push_back(status);
  return out;
}

std::vector<QueryStatus> QueryRegistry::RecentQueries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {recent_.begin(), recent_.end()};
}

int64_t QueryRegistry::queries_started() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(next_id_ - 1);
}

std::string QueryRegistry::StatuszJson() const {
  std::vector<QueryStatus> active = ActiveQueries();
  std::vector<QueryStatus> recent = RecentQueries();
  std::string out = "{\"queries_started_total\": " +
                    std::to_string(queries_started()) +
                    ",\n\"active_queries\": [";
  for (size_t i = 0; i < active.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    AppendQueryJson(active[i], &out);
  }
  out += "\n],\n\"recent_queries\": [";
  for (size_t i = 0; i < recent.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    AppendQueryJson(recent[i], &out);
  }
  out += "\n]}\n";
  return out;
}

QueryRegistry& QueryRegistry::Global() {
  static QueryRegistry* registry = new QueryRegistry();
  return *registry;
}

}  // namespace obs
}  // namespace gola
