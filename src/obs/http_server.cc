#include "obs/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <vector>

#include <chrono>
#include <thread>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/query_registry.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace gola {
namespace obs {

namespace {

constexpr size_t kMaxHeadBytes = 16 * 1024;
constexpr size_t kMaxBodyBytes = 4 * 1024 * 1024;

const char* StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

bool SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      // SO_SNDTIMEO expiry (EAGAIN/EWOULDBLOCK on a blocking socket): the
      // client stopped reading but kept the connection open — drop it so a
      // wedged SSE consumer cannot pin a connection thread forever. Other
      // failures are the ordinary peer-went-away close.
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) &&
          MetricsEnabled()) {
        MetricsRegistry::Global()
            .GetCounter(
                "gola_http_dropped_connections_total{cause=\"send_timeout\"}")
            ->Increment();
      }
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

void SendResponse(int fd, const HttpServer::Response& r) {
  std::string out = Format("HTTP/1.1 %d %s\r\n", r.status, StatusText(r.status));
  out += "Content-Type: " + r.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(r.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += r.body;
  SendAll(fd, out);
}

void SendPlain(int fd, int status, const std::string& body) {
  SendResponse(fd, {status, "text/plain; charset=utf-8", body});
}

int HexVal(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string UrlDecode(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    if (in[i] == '+') {
      out += ' ';
    } else if (in[i] == '%' && i + 2 < in.size() && HexVal(in[i + 1]) >= 0 &&
               HexVal(in[i + 2]) >= 0) {
      out += static_cast<char>(HexVal(in[i + 1]) * 16 + HexVal(in[i + 2]));
      i += 2;
    } else {
      out += in[i];
    }
  }
  return out;
}

void ParseQueryString(std::string_view qs,
                      std::map<std::string, std::string>* params) {
  size_t pos = 0;
  while (pos < qs.size()) {
    size_t amp = qs.find('&', pos);
    std::string_view pair =
        qs.substr(pos, amp == std::string_view::npos ? amp : amp - pos);
    if (!pair.empty()) {
      size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        (*params)[UrlDecode(pair)] = "";
      } else {
        (*params)[UrlDecode(pair.substr(0, eq))] = UrlDecode(pair.substr(eq + 1));
      }
    }
    if (amp == std::string_view::npos) break;
    pos = amp + 1;
  }
}

/// Case-insensitive header lookup in the raw head (after the request line).
/// Returns false when absent; `value` gets the trimmed field value.
bool FindHeader(const std::string& head, const std::string& name,
                std::string* value) {
  std::string lower_head = ToLower(head);
  std::string needle = "\r\n" + ToLower(name) + ":";
  size_t pos = lower_head.find(needle);
  if (pos == std::string::npos) return false;
  size_t start = pos + needle.size();
  size_t end = head.find("\r\n", start);
  if (end == std::string::npos) end = head.size();
  std::string v = head.substr(start, end - start);
  size_t b = v.find_first_not_of(" \t");
  size_t e = v.find_last_not_of(" \t");
  *value = (b == std::string::npos) ? "" : v.substr(b, e - b + 1);
  return true;
}

}  // namespace

// ----------------------------------------------------------- ChunkWriter --

bool HttpServer::ChunkWriter::Write(std::string_view data) {
  if (!ok_) return false;
  if (server_->stopping()) {
    ok_ = false;
    return false;
  }
  if (!head_sent_) {
    std::string head =
        Format("HTTP/1.1 %d %s\r\n", status_, StatusText(status_));
    head += "Content-Type: " + content_type_ + "\r\n";
    head += "Transfer-Encoding: chunked\r\n";
    head += "Cache-Control: no-cache\r\n";
    head += "Connection: close\r\n\r\n";
    if (!SendAll(fd_, head)) {
      ok_ = false;
      return false;
    }
    head_sent_ = true;
  }
  if (data.empty()) return true;
  std::string chunk = Format("%zx\r\n", data.size());
  chunk.append(data.data(), data.size());
  chunk += "\r\n";
  ok_ = SendAll(fd_, chunk);
  return ok_;
}

void HttpServer::ChunkWriter::End() {
  if (!head_sent_) {
    // Handler never produced output: send an honest empty response instead
    // of leaving the client with a headerless close.
    if (ok_) SendResponse(fd_, {status_, content_type_, ""});
    return;
  }
  if (ok_) SendAll(fd_, "0\r\n\r\n");
}

// ------------------------------------------------------------ HttpServer --

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Route(const std::string& path, Handler handler) {
  std::lock_guard<std::mutex> lock(routes_mu_);
  routes_[path] = std::move(handler);
}

void HttpServer::Route(const std::string& path,
                       std::function<Response()> handler) {
  Route(path, Handler([handler = std::move(handler)](const Request&) {
          return handler();
        }));
}

void HttpServer::RoutePrefix(const std::string& prefix, Handler handler) {
  std::lock_guard<std::mutex> lock(routes_mu_);
  prefix_routes_[prefix] = std::move(handler);
}

void HttpServer::RouteStream(const std::string& path, std::string content_type,
                             StreamHandler handler) {
  std::lock_guard<std::mutex> lock(routes_mu_);
  stream_routes_[path] = {std::move(content_type), std::move(handler)};
}

Status HttpServer::Start(int port) {
  if (running()) return Status::ExecutionError("http server already running");

  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("http server: socket() failed");
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  // Loopback only: this is an introspection port, not a public service.
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    close(fd);
    return Status::IoError(
        Format("http server: cannot bind loopback port %d", port));
  }
  if (listen(fd, 64) < 0) {
    close(fd);
    return Status::IoError("http server: listen() failed");
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  } else {
    port_ = port;
  }

  listen_fd_ = fd;
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Serve(); });
  return Status::OK();
}

void HttpServer::Stop() {
  // Drain before tearing the socket down: a request racing the shutdown is
  // answered with 503 instead of dispatching into handlers mid-teardown,
  // and in-flight streams see Write() fail and wind down.
  BeginDrain();
  if (running_.exchange(false, std::memory_order_acq_rel)) {
    // Knock the accept loop out of its blocking accept(2): shutdown makes a
    // pending accept return, and close releases the port. The fd member is
    // only reset after the join — the serve thread still reads it.
    shutdown(listen_fd_, SHUT_RDWR);
    close(listen_fd_);
  }
  if (thread_.joinable()) thread_.join();
  // Force any connection still blocked in recv/send to fail, then wait for
  // every connection thread to finish (they close their own fds).
  {
    std::unique_lock<std::mutex> lock(conns_mu_);
    for (int fd : open_fds_) shutdown(fd, SHUT_RDWR);
    conns_cv_.wait(lock, [this] { return live_connections_ == 0; });
  }
  listen_fd_ = -1;
  port_ = 0;
}

void HttpServer::Serve() {
  while (running()) {
    int conn = accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (!running()) break;  // Stop() closed the socket under us
      continue;               // transient (EINTR, aborted connection)
    }
    // Bounded patience for slow request writers; streaming *responses* are
    // unaffected (they only send).
    timeval tv{2, 0};
    setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    // ...and for stalled readers: a send() blocked this long means the
    // client accepted the connection but stopped draining it. SendAll then
    // fails with EAGAIN, the connection is dropped (counted under
    // gola_http_dropped_connections_total{cause="send_timeout"}) and the
    // thread is reclaimed. Generous enough that a merely slow dashboard
    // never trips it.
    timeval send_tv{10, 0};
    setsockopt(conn, SOL_SOCKET, SO_SNDTIMEO, &send_tv, sizeof(send_tv));
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      open_fds_.insert(conn);
      ++live_connections_;
    }
    // One thread per connection: an SSE stream can stay open for the whole
    // life of a query without blocking scrapes or other clients. Threads
    // are tracked through live_connections_ (joined logically in Stop).
    std::thread([this, conn] { ConnectionThread(conn); }).detach();
  }
}

void HttpServer::ConnectionThread(int fd) {
  HandleConnection(fd);
  std::lock_guard<std::mutex> lock(conns_mu_);
  close(fd);
  open_fds_.erase(fd);
  if (--live_connections_ == 0) conns_cv_.notify_all();
}

void HttpServer::HandleConnection(int fd) {
  // Read the request head (request line + headers) up to a sane cap.
  std::string raw;
  char buf[4096];
  size_t head_end = std::string::npos;
  while (raw.size() < kMaxHeadBytes) {
    head_end = raw.find("\r\n\r\n");
    if (head_end != std::string::npos) break;
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  if (head_end == std::string::npos) head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    if (raw.empty()) return;  // connect-and-close probe; nothing to answer
    SendPlain(fd, 400, "malformed request: missing header terminator\n");
    return;
  }
  const std::string head = raw.substr(0, head_end);

  size_t line_end = head.find("\r\n");
  if (line_end == std::string::npos) line_end = head.size();
  std::vector<std::string> parts = Split(head.substr(0, line_end), ' ');
  if (parts.size() < 2) {
    SendPlain(fd, 400, "malformed request line\n");
    return;
  }

  Request req;
  req.method = parts[0];
  for (char& c : req.method) c = static_cast<char>(std::toupper(c));
  req.path = parts[1];
  size_t query = req.path.find('?');
  if (query != std::string::npos) {
    ParseQueryString(std::string_view(req.path).substr(query + 1), &req.params);
    req.path.resize(query);
  }
  req.path = UrlDecode(req.path);
  if (req.path.empty() || req.path[0] != '/') {
    SendPlain(fd, 400, "malformed request target\n");
    return;
  }
  if (req.method != "GET" && req.method != "POST" && req.method != "HEAD" &&
      req.method != "DELETE") {
    SendPlain(fd, 405, "method not supported\n");
    return;
  }

  // Body: strictly Content-Length framed (no chunked uploads — the clients
  // here are curl and test harnesses). A declared body that never arrives
  // is a malformed request, answered as such rather than dropped.
  std::string cl;
  if (FindHeader(head, "Content-Length", &cl)) {
    size_t length = 0;
    bool numeric = !cl.empty() && cl.size() <= 10;  // > 9,999,999,999 → 400
    for (char c : cl) {
      if (!std::isdigit(static_cast<unsigned char>(c))) {
        numeric = false;
        break;
      }
    }
    if (numeric) length = static_cast<size_t>(std::stoull(cl));
    if (!numeric) {
      SendPlain(fd, 400, "malformed Content-Length\n");
      return;
    }
    if (length > kMaxBodyBytes) {
      SendPlain(fd, 413, "request body too large\n");
      return;
    }
    req.body = raw.substr(head_end + 4);
    while (req.body.size() < length) {
      ssize_t n = recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        SendPlain(fd, 400, "truncated request body\n");
        return;
      }
      req.body.append(buf, static_cast<size_t>(n));
    }
    req.body.resize(length);
  } else if (req.method == "POST" && raw.size() > head_end + 4) {
    SendPlain(fd, 400, "POST body requires Content-Length\n");
    return;
  }

  if (stopping()) {
    SendPlain(fd, 503, "shutting down; retry later\n");
    return;
  }

  // Dispatch: streaming route, then exact route, then longest prefix.
  StreamHandler stream;
  std::string stream_type;
  Handler handler;
  std::string index;
  {
    std::lock_guard<std::mutex> lock(routes_mu_);
    auto sit = stream_routes_.find(req.path);
    if (sit != stream_routes_.end()) {
      stream_type = sit->second.first;
      stream = sit->second.second;
    } else {
      auto it = routes_.find(req.path);
      if (it != routes_.end()) {
        handler = it->second;
      } else {
        size_t best = 0;
        for (const auto& [prefix, h] : prefix_routes_) {
          if (prefix.size() >= best && req.path.size() > prefix.size() &&
              req.path.compare(0, prefix.size(), prefix) == 0) {
            best = prefix.size();
            handler = h;
          }
        }
      }
    }
    if (!stream && !handler) {
      index = "not found: " + req.path + "\nroutes:\n";
      for (const auto& [route, h] : routes_) index += "  " + route + "\n";
      for (const auto& [route, h] : stream_routes_)
        index += "  " + route + " (stream)\n";
      for (const auto& [route, h] : prefix_routes_)
        index += "  " + route + "... (prefix)\n";
    }
  }

  if (stream) {
    ChunkWriter writer(this, fd, stream_type);
    stream(req, writer);
    writer.End();
    return;
  }
  if (handler) {
    SendResponse(fd, handler(req));
    return;
  }
  SendResponse(fd, {404, "text/plain; charset=utf-8", index});
}

// ---------------------------------------------- /metrics + /timez routes --

namespace {

int64_t ParamInt64(const HttpServer::Request& req, const std::string& key) {
  auto it = req.params.find(key);
  if (it == req.params.end() || it->second.empty()) return 0;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

std::string ParamStr(const HttpServer::Request& req, const std::string& key) {
  auto it = req.params.find(key);
  return it == req.params.end() ? "" : it->second;
}

}  // namespace

void AttachMetricsAndTimezRoutes(HttpServer* server) {
  server->Route("/metrics", [] {
    HttpServer::Response r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = MetricsRegistry::Global().RenderText();
    return r;
  });
  server->Route("/timez", [](const HttpServer::Request& req) {
    HttpServer::Response r;
    r.content_type = "application/json";
    r.body = TimeSeriesStore::Global().ToJson(ParamStr(req, "name"),
                                              ParamStr(req, "session"),
                                              ParamInt64(req, "since_ms"));
    return r;
  });
  // SSE: one `sample` event per sampling period carrying every sample that
  // arrived since the previous event (same JSON shape as /timez). The
  // cursor is the store's latest sample timestamp, so a dashboard that
  // connects mid-run starts from "now" and never replays history it can
  // fetch from /timez in one shot.
  server->RouteStream(
      "/timez/stream", "text/event-stream",
      [](const HttpServer::Request& req, HttpServer::ChunkWriter& writer) {
        TimeSeriesStore& store = TimeSeriesStore::Global();
        const std::string name = ParamStr(req, "name");
        const std::string session = ParamStr(req, "session");
        int64_t cursor = store.LatestSampleMs();
        if (!writer.Write(Format("event: hello\ndata: {\"period_ms\": %d}\n\n",
                                 store.options().sample_period_ms))) {
          return;
        }
        while (writer.ok()) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(store.options().sample_period_ms));
          std::string payload = store.ToJson(name, session, cursor);
          const int64_t latest = store.LatestSampleMs();
          if (latest > cursor) cursor = latest;
          if (!writer.Write("event: sample\ndata: " + payload + "\n\n")) break;
        }
      });
}

// ------------------------------------------- process-wide introspection --

namespace {

std::mutex g_server_mu;
HttpServer* g_server = nullptr;        // non-null once started successfully
bool g_server_attempted = false;       // first Start outcome is sticky
Status g_server_status = Status::OK();

HttpServer* BuildIntrospectionServer() {
  auto* server = new HttpServer();
  server->Route("/", [] {
    HttpServer::Response r;
    r.body =
        "gola live introspection\n"
        "  /metrics        Prometheus text exposition\n"
        "  /statusz        active online queries (JSON)\n"
        "  /timez          in-process time series (JSON; ?name= ?session= "
        "?since_ms=)\n"
        "  /timez/stream   time-series samples as SSE\n"
        "  /tracez         most recent trace spans (Chrome trace JSON)\n"
        "  /flightz        flight-recorder ring (text)\n";
    return r;
  });
  server->Route("/statusz", [] {
    HttpServer::Response r;
    r.content_type = "application/json";
    r.body = QueryRegistry::Global().StatuszJson();
    return r;
  });
  server->Route("/tracez", [] {
    HttpServer::Response r;
    r.content_type = "application/json";
    r.body = Tracer::Global().RecentJson(256);
    return r;
  });
  server->Route("/flightz", [] {
    HttpServer::Response r;
    r.body = FlightRecorder::Global().ToText();
    return r;
  });
  AttachMetricsAndTimezRoutes(server);
  return server;
}

}  // namespace

Result<HttpServer*> EnsureIntrospectionServer(int port) {
  std::lock_guard<std::mutex> lock(g_server_mu);
  if (g_server_attempted) {
    if (g_server != nullptr) return g_server;
    return g_server_status;
  }
  g_server_attempted = true;
  HttpServer* server = BuildIntrospectionServer();
  Status st = server->Start(port);
  if (!st.ok()) {
    delete server;
    g_server_status = st;
    return st;
  }
  g_server = server;
  FlightRecorder::Global().Note("http_server_started", nullptr,
                                g_server->port());
  GOLA_LOG(Info) << "live introspection server on http://127.0.0.1:"
                 << g_server->port() << " (/metrics /statusz /tracez /flightz)";
  return g_server;
}

HttpServer* IntrospectionServer() {
  std::lock_guard<std::mutex> lock(g_server_mu);
  return g_server;
}

}  // namespace obs
}  // namespace gola
