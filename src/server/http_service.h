// HTTP face of the concurrent session layer: turns an Engine's Dispatcher
// into a multi-client online-aggregation service on the embedded loopback
// server (obs/http_server.h).
//
// Routes registered by AttachTo:
//
//   POST /query            body = raw SQL; streams the converging answer as
//                          Server-Sent Events (one `update` event per
//                          mini-batch, a final `done` event). Query-string
//                          knobs: batches, replicates, seed, deadline_ms,
//                          share=0|1 (scan sharing), label,
//                          stream=sse|none (none → immediate JSON receipt
//                          {id,...}; poll /sessions/<id>).
//   GET  /sessions         JSON array: every queued/running/recent session.
//   GET  /sessions/<id>    JSON detail, latest estimate included.
//   GET  /statusz          the introspection payload from
//                          QueryRegistry::StatuszJson() with a "sessions"
//                          array spliced in, so one scrape shows both the
//                          executor registry and the session layer.
//
// Example (two dashboards sharing one scan):
//   curl -N -X POST --data 'SELECT AVG(play_time) FROM conviva'
//        'http://127.0.0.1:8080/query?batches=50' &
//   curl -N -X POST --data 'SELECT geo, AVG(buffer_time) FROM conviva GROUP BY geo'
//        'http://127.0.0.1:8080/query?batches=50'
#ifndef GOLA_SERVER_HTTP_SERVICE_H_
#define GOLA_SERVER_HTTP_SERVICE_H_

#include <string>

#include "obs/http_server.h"
#include "server/dispatcher.h"

namespace gola {

class Engine;

namespace server {

class QueryService {
 public:
  /// Serves `engine`'s session dispatcher. The engine must outlive the
  /// service, and the service must outlive the server (Stop the server —
  /// or the service's detach — before destroying either; in practice:
  /// server.Stop() first, engine last).
  explicit QueryService(Engine* engine);

  /// Registers the routes above on `server` (replacing its /statusz with
  /// the spliced variant). Call once per server, before or after Start.
  void AttachTo(obs::HttpServer* server);

  // JSON renderers, exposed for tests and the /statusz splice.

  /// One session as a JSON object; with `include_result`, the latest
  /// estimate rows are inlined under "result".
  static std::string SessionJson(const QuerySession& session,
                                 bool include_result);
  /// One OnlineUpdate as the SSE `data:` payload (single line).
  static std::string UpdateJson(const QuerySession& session,
                                const OnlineUpdate& update);
  /// A result table as {"columns": [...], "rows": [[...], ...]}.
  static std::string TableJson(const Table& table, int64_t limit = 64);

 private:
  Engine* engine_;
};

}  // namespace server
}  // namespace gola

#endif  // GOLA_SERVER_HTTP_SERVICE_H_
