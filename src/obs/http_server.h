// Dependency-free embedded HTTP/1.1 server: introspection scrapes plus the
// concurrent-query front end (server/http_service.h). Built on raw POSIX
// sockets — no third-party dependency, because the whole point of G-OLA is
// that a user *watches* an answer converge, and that must work in any
// build.
//
// The process-wide instance (EnsureIntrospectionServer) serves:
//   GET  /          route index
//   GET  /metrics   Prometheus text exposition (MetricsRegistry::Global)
//   GET  /statusz   JSON: active queries — batch index, fraction_processed,
//                   max_rsd, uncertain-tuple counts, per-phase QueryStats,
//                   recompute count (QueryRegistry::Global); when a
//                   QueryService is attached, also every live session
//   GET  /tracez    Chrome-trace JSON of the most recent spans
//   GET  /flightz   text dump of the flight recorder's recent-event ring
// and, with a QueryService attached, POST /query + GET /sessions.
//
// Concurrency: each accepted connection is handled on its own thread, so a
// long-lived SSE stream (a dashboard client watching updates) never blocks
// a metrics scrape. Handlers only read snapshot-style state or talk to the
// thread-safe session layer. Requests are parsed up to a size cap; a
// malformed request gets "400 Bad Request", never a silent connection
// drop. POST bodies are read per Content-Length (4 MiB cap → 413).
#ifndef GOLA_OBS_HTTP_SERVER_H_
#define GOLA_OBS_HTTP_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>

#include "common/status.h"

namespace gola {
namespace obs {

class HttpServer {
 public:
  /// One parsed request. `params` holds the decoded query string
  /// ("?a=1&b=x" → {a:"1", b:"x"}; flag-style "?a" → {a:""}).
  struct Request {
    std::string method;  // upper-cased: "GET", "POST", ...
    std::string path;    // without the query string
    std::map<std::string, std::string> params;
    std::string body;  // POST payload (Content-Length bytes)
  };

  struct Response {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };

  /// Incremental chunked-transfer writer handed to streaming handlers
  /// (Server-Sent Events, long downloads). The response head goes out on
  /// the first Write; End() (or handler return) terminates the stream.
  class ChunkWriter {
   public:
    /// Sends one HTTP chunk. Returns false when the client disconnected or
    /// the server began draining — the handler should stop producing.
    bool Write(std::string_view data);
    bool ok() const { return ok_; }
    /// Override the response head before the first Write (no-ops after —
    /// the head is already on the wire). Lets one streaming route answer
    /// errors with real status codes instead of a 200 stream.
    void set_status(int status) {
      if (!head_sent_) status_ = status;
    }
    void set_content_type(std::string content_type) {
      if (!head_sent_) content_type_ = std::move(content_type);
    }

   private:
    friend class HttpServer;
    ChunkWriter(HttpServer* server, int fd, std::string content_type)
        : server_(server), fd_(fd), content_type_(std::move(content_type)) {}
    void End();

    HttpServer* server_;
    int fd_;
    std::string content_type_;
    int status_ = 200;
    bool head_sent_ = false;
    bool ok_ = true;
  };

  using Handler = std::function<Response(const Request&)>;
  using StreamHandler = std::function<void(const Request&, ChunkWriter&)>;

  HttpServer() = default;
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers a route (exact path match; any method — the handler sees
  /// Request::method). Thread-safe; may be called while serving.
  void Route(const std::string& path, Handler handler);
  /// Legacy zero-argument handler (GET-style scrape routes).
  void Route(const std::string& path, std::function<Response()> handler);
  /// Registers a prefix route: matches every path starting with `prefix`
  /// when no exact route matches (longest prefix wins). For path-parameter
  /// routes like /sessions/<id>.
  void RoutePrefix(const std::string& prefix, Handler handler);
  /// Registers a streaming route (chunked transfer; `content_type` is sent
  /// in the response head). Exact path match, checked before plain routes.
  void RouteStream(const std::string& path, std::string content_type,
                   StreamHandler handler);

  /// Binds loopback:`port` (0 → ephemeral; see port()) and starts the
  /// accept loop on a dedicated thread.
  Status Start(int port);

  /// Puts the server into drain mode: connections already accepted (and any
  /// accepted until the socket closes) get "503 Service Unavailable" instead
  /// of a route dispatch, and in-flight streams see Write() fail, so a
  /// client polling during shutdown sees an honest retryable status, never
  /// a half-written body or a reset. Stop() implies this.
  void BeginDrain() { stopping_.store(true, std::memory_order_release); }

  /// Stops the accept loop, unblocks streaming handlers, and joins every
  /// connection. Idempotent; drains first.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  bool stopping() const { return stopping_.load(std::memory_order_acquire); }
  /// Actual bound port (after Start with port 0 resolves the ephemeral
  /// assignment); 0 when not running.
  int port() const { return port_; }

 private:
  void Serve();
  void HandleConnection(int fd);
  void ConnectionThread(int fd);

  mutable std::mutex routes_mu_;
  std::map<std::string, Handler> routes_;
  std::map<std::string, Handler> prefix_routes_;
  std::map<std::string, std::pair<std::string, StreamHandler>> stream_routes_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;

  // Live connections: fds are force-shutdown on Stop so streaming handlers
  // unblock; Stop waits until the last connection thread exits.
  std::mutex conns_mu_;
  std::condition_variable conns_cv_;
  std::set<int> open_fds_;
  int live_connections_ = 0;
};

/// Registers GET /metrics (Prometheus text of MetricsRegistry::Global),
/// GET /timez (JSON snapshot; ?name= &session= &since_ms= filters) and
/// GET /timez/stream (SSE: one `sample` event per sampling period carrying
/// the samples since the previous event) on `server`. Shared by the
/// process-wide introspection server and the query-service front end.
void AttachMetricsAndTimezRoutes(HttpServer* server);

/// Starts the process-wide introspection server on `port` (0 → ephemeral)
/// with the /metrics, /statusz, /tracez and /flightz routes. The first
/// call wins; later calls return the running server regardless of `port`.
/// Returns the server, or the bind error from the first attempt.
Result<HttpServer*> EnsureIntrospectionServer(int port);

/// The running process-wide server, or null when never started (or the
/// first Start failed).
HttpServer* IntrospectionServer();

}  // namespace obs
}  // namespace gola

#endif  // GOLA_OBS_HTTP_SERVER_H_
