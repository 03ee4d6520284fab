#include "server/http_service.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <functional>
#include <optional>
#include <vector>

#include "common/string_util.h"
#include "gola/engine.h"
#include "obs/query_registry.h"

namespace gola {
namespace server {

namespace {

std::string ValueJson(const Value& v) {
  if (v.is_null()) return "null";
  switch (v.type()) {
    case TypeId::kBool: return v.AsBool() ? "true" : "false";
    case TypeId::kInt64:
      return std::to_string(static_cast<long long>(v.AsInt()));
    case TypeId::kFloat64: {
      // %.17g round-trips doubles; JSON has no inf/nan, so stringify those.
      double d = v.AsFloat();
      if (d != d || d == 1.0 / 0.0 || d == -1.0 / 0.0) {
        return StrCat("\"", v.ToString(), "\"");
      }
      return Format("%.17g", d);
    }
    case TypeId::kString: return StrCat("\"", JsonEscape(v.AsString()), "\"");
    default: return StrCat("\"", JsonEscape(v.ToString()), "\"");
  }
}

/// Strict base-10 integer; false on junk (empty, trailing characters).
bool ParseNumber(const std::string& s, long long* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

std::string Param(const obs::HttpServer::Request& req, const std::string& key) {
  auto it = req.params.find(key);
  return it == req.params.end() ? std::string() : it->second;
}

std::string ErrorJson(const std::string& message) {
  return "{\"error\": \"" + JsonEscape(message) + "\"}\n";
}

int HttpStatusFor(const Status& st) {
  switch (st.code()) {
    case StatusCode::kParseError:
    case StatusCode::kKeyError:
    case StatusCode::kPlanError:
    case StatusCode::kTypeError:
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotImplemented:
      return 400;
    case StatusCode::kUnavailable:
      return 429;  // admission pushback: retry with backoff
    default:
      return 500;
  }
}

}  // namespace

QueryService::QueryService(Engine* engine) : engine_(engine) {}

std::string QueryService::TableJson(const Table& table, int64_t limit) {
  std::string out = "{\"columns\": [";
  if (table.schema() != nullptr) {
    for (size_t i = 0; i < table.schema()->num_fields(); ++i) {
      if (i > 0) out += ", ";
      out += StrCat("\"", JsonEscape(table.schema()->field(i).name), "\"");
    }
  }
  out += "], \"rows\": [";
  const int64_t rows = std::min<int64_t>(table.num_rows(), limit);
  const int cols =
      table.schema() == nullptr ? 0 : static_cast<int>(table.schema()->num_fields());
  for (int64_t r = 0; r < rows; ++r) {
    if (r > 0) out += ", ";
    out += "[";
    for (int c = 0; c < cols; ++c) {
      if (c > 0) out += ", ";
      out += ValueJson(table.At(r, c));
    }
    out += "]";
  }
  out += "]";
  if (table.num_rows() > rows) {
    out += Format(", \"truncated_rows\": %lld",
                  static_cast<long long>(table.num_rows() - rows));
  }
  out += "}";
  return out;
}

std::string QueryService::UpdateJson(const QuerySession& session,
                                     const OnlineUpdate& update) {
  std::string out = Format(
      "{\"id\": %llu, \"batch_index\": %d, \"total_batches\": %d, "
      "\"fraction_processed\": %.6f, \"max_rsd\": %s, \"scale\": %.8g, "
      "\"uncertain_tuples\": %lld, \"uncertain_groups\": %lld, "
      "\"recomputes\": %d, \"elapsed_seconds\": %.6f, "
      "\"degradation\": \"%s\", \"scan_shared\": %s, ",
      static_cast<unsigned long long>(session.id()), update.batch_index,
      update.total_batches, update.fraction_processed,
      JsonNumber(update.max_rsd, 8).c_str(),
      update.scale, static_cast<long long>(update.uncertain_tuples),
      static_cast<long long>(update.uncertain_groups),
      update.recomputes_so_far, update.elapsed_seconds,
      DegradationName(update.degradation),
      session.scan_shared() ? "true" : "false");
  out += "\"result\": " + TableJson(update.result, 32) + "}";
  return out;
}

std::string QueryService::SessionJson(const QuerySession& session,
                                      bool include_result) {
  const SessionState state = session.state();
  std::string out = Format(
      "{\"id\": %llu, \"label\": \"%s\", \"table\": \"%s\", "
      "\"state\": \"%s\", \"scan_shared\": %s, \"batches_done\": %d, "
      "\"total_batches\": %d, \"updates_dropped\": %lld, "
      "\"seconds_to_first_update\": %.6f, \"seconds_to_done\": %.6f, "
      "\"degradation\": \"%s\"",
      static_cast<unsigned long long>(session.id()),
      JsonEscape(session.label().empty() ? session.sql() : session.label())
          .c_str(),
      JsonEscape(session.table()).c_str(), SessionStateName(state),
      session.scan_shared() ? "true" : "false", session.batches_done(),
      session.total_batches(),
      static_cast<long long>(session.updates_dropped()),
      session.seconds_to_first_update(), session.seconds_to_done(),
      DegradationName(session.degradation()));
  out += Format(", \"pending_updates\": %d", session.pending_updates());
  // Accuracy-SLO crossings (wall time until the estimate first reached each
  // RSD target; -1 unmet) and lifecycle events — the live view of what the
  // wide-event query log records at the end.
  out += ", \"slo\": [";
  bool first_slo = true;
  for (const obs::SloCrossing& c : session.slo_crossings()) {
    if (!first_slo) out += ", ";
    first_slo = false;
    out += Format("{\"target_rsd\": %.6g, \"met\": %s, \"seconds\": %.6g}",
                  c.target_rsd, c.met ? "true" : "false", c.seconds);
  }
  out += "], \"events\": [";
  bool first_event = true;
  for (const obs::QueryLogEvent& e : session.events()) {
    if (!first_event) out += ", ";
    first_event = false;
    out += Format("{\"seconds\": %.6g, \"name\": \"%s\"}", e.seconds,
                  JsonEscape(e.name).c_str());
  }
  out += "]";
  // Per-group convergence state (DESIGN.md §14): top-K worst cells by RSD
  // plus churn — the live twin of the wide event's `groups` block.
  out += ", \"groups\": " + session.group_summary().ToJson();
  if (state == SessionState::kFailed) {
    out += ", \"error\": \"" + JsonEscape(session.status().ToString()) + "\"";
  }
  std::optional<OnlineUpdate> latest = session.Latest();
  if (latest.has_value()) {
    out += Format(", \"batch_index\": %d, \"max_rsd\": %s", latest->batch_index,
                  JsonNumber(latest->max_rsd, 8).c_str());
    if (include_result) {
      out += ", \"result\": " + TableJson(latest->result, 64);
    }
  }
  out += "}";
  return out;
}

void QueryService::AttachTo(obs::HttpServer* server) {
  Engine* engine = engine_;

  // POST /query — submit and stream. One streaming route serves both modes:
  // SSE (default) and stream=none (immediate JSON receipt).
  server->RouteStream(
      "/query", "text/event-stream",
      [engine](const obs::HttpServer::Request& req,
               obs::HttpServer::ChunkWriter& writer) {
        if (req.method != "POST") {
          writer.set_status(405);
          writer.set_content_type("application/json");
          writer.Write(ErrorJson("use POST with the SQL text as the body"));
          return;
        }
        std::string sql = req.body.empty() ? Param(req, "sql") : req.body;
        if (sql.empty()) {
          writer.set_status(400);
          writer.set_content_type("application/json");
          writer.Write(ErrorJson("empty query: send SQL as the POST body"));
          return;
        }

        SessionOptions options;
        options.gola = engine->default_options();
        options.label = Param(req, "label");
        struct Knob {
          const char* name;
          long long min, max;
          std::function<void(long long)> apply;
        };
        const std::vector<Knob> knobs = {
            {"batches", 1, 1 << 20,
             [&](long long v) { options.gola.num_batches = static_cast<int>(v); }},
            {"replicates", 2, 1 << 16,
             [&](long long v) {
               options.gola.bootstrap_replicates = static_cast<int>(v);
             }},
            {"seed", 0, (1LL << 62),
             [&](long long v) { options.gola.seed = static_cast<uint64_t>(v); }},
            {"deadline_ms", 0, (1LL << 40),
             [&](long long v) { options.gola.deadline_ms = static_cast<double>(v); }},
            {"share", 0, 1,
             [&](long long v) { options.share_scan = (v != 0); }},
        };
        for (const auto& knob : knobs) {
          std::string raw = Param(req, knob.name);
          if (raw.empty()) continue;
          long long v = 0;
          if (!ParseNumber(raw, &v) || v < knob.min || v > knob.max) {
            writer.set_status(400);
            writer.set_content_type("application/json");
            writer.Write(ErrorJson(Format("bad %s=%s", knob.name, raw.c_str())));
            return;
          }
          knob.apply(v);
        }

        auto session = engine->SubmitOnline(sql, std::move(options));
        if (!session.ok()) {
          writer.set_status(HttpStatusFor(session.status()));
          writer.set_content_type("application/json");
          writer.Write(ErrorJson(session.status().ToString()));
          return;
        }

        if (Param(req, "stream") == "none") {
          writer.set_status(202);
          writer.set_content_type("application/json");
          writer.Write(SessionJson(**session, false) + "\n");
          return;
        }

        // SSE: one `update` event per mini-batch, `done` (or `error`) last.
        // A vanished client cancels the session — no orphaned work.
        while (true) {
          OnlineUpdate update;
          if ((*session)->Next(&update, std::chrono::milliseconds(250))) {
            if (!writer.Write("event: update\ndata: " +
                              UpdateJson(**session, update) + "\n\n")) {
              (*session)->Cancel();
              return;
            }
            continue;
          }
          if ((*session)->state() >= SessionState::kDone) break;
          // Cursor timeout: SSE comment as keepalive (also detects a
          // silently-gone client between updates).
          if (!writer.Write(": keepalive\n\n")) {
            (*session)->Cancel();
            return;
          }
        }
        if ((*session)->state() == SessionState::kFailed) {
          writer.Write("event: error\ndata: " +
                       ErrorJson((*session)->status().ToString()) + "\n");
        } else {
          writer.Write("event: done\ndata: " + SessionJson(**session, true) +
                       "\n\n");
        }
      });

  // GET /sessions — every session the dispatcher remembers.
  server->Route(
      "/sessions", obs::HttpServer::Handler([engine](
                       const obs::HttpServer::Request&) {
        obs::HttpServer::Response r;
        r.content_type = "application/json";
        r.body = "{\"sessions\": [";
        bool first = true;
        for (const auto& s : engine->sessions().Sessions()) {
          if (!first) r.body += ",\n";
          first = false;
          r.body += SessionJson(*s, false);
        }
        const ScanShareStats stats = engine->sessions().scan_stats();
        r.body += Format("], \"scan_share\": {\"hits\": %lld, \"misses\": %lld}}\n",
                         static_cast<long long>(stats.hits),
                         static_cast<long long>(stats.misses));
        return r;
      }));

  // GET /sessions/<id> — one session, latest estimate inlined.
  server->RoutePrefix(
      "/sessions/", obs::HttpServer::Handler([engine](
                        const obs::HttpServer::Request& req) {
        obs::HttpServer::Response r;
        r.content_type = "application/json";
        long long id = 0;
        if (!ParseNumber(req.path.substr(10), &id) || id < 0) {
          r.status = 400;
          r.body = ErrorJson("bad session id: " + req.path.substr(10));
          return r;
        }
        SessionPtr session = engine->sessions().Find(static_cast<uint64_t>(id));
        if (session == nullptr) {
          r.status = 404;
          r.body = ErrorJson(Format("no session %lld (evicted or never existed)", id));
          return r;
        }
        r.body = SessionJson(*session, true) + "\n";
        return r;
      }));

  // /statusz — the introspection payload with the session layer spliced in,
  // so one scrape covers executors and sessions.
  server->Route(
      "/statusz", obs::HttpServer::Handler([engine](
                      const obs::HttpServer::Request&) {
        obs::HttpServer::Response r;
        r.content_type = "application/json";
        std::string sessions = "\"sessions\": [";
        bool first = true;
        for (const auto& s : engine->sessions().Sessions()) {
          if (!first) sessions += ",\n";
          first = false;
          sessions += SessionJson(*s, false);
        }
        sessions += "],\n";
        r.body = obs::QueryRegistry::Global().StatuszJson();
        size_t brace = r.body.find('{');
        if (brace == std::string::npos) {
          r.body = "{" + sessions + "\"registry\": null}\n";
        } else {
          r.body.insert(brace + 1, "\n" + sessions);
        }
        return r;
      }));

  // /metrics and /timez on the service port too, so a front end scraping
  // only this server still gets the labeled families and the convergence
  // time series without the introspection port.
  obs::AttachMetricsAndTimezRoutes(server);
}

}  // namespace server
}  // namespace gola
