// The demo scenario of the paper's §6: a MyTube Inc. operations dashboard
// cycling through ad-popularity and user-retention metrics, every panel an
// online query whose error bars tighten as mini-batches stream in — the
// text-mode equivalent of the paper's Figure 4 web dashboard, with the
// traditional batch engine's latency shown for contrast.
//
// Two modes:
//   ./dashboard                 the classic single-process panel demo
//   ./dashboard --serve         multi-client server: every dashboard panel
//                               becomes a POST /query Server-Sent-Events
//                               stream, and concurrent panels over the same
//                               table share one mini-batch scan. Try:
//       curl -sN -X POST --data 'SELECT AVG(play_time) FROM conviva'
//            'http://127.0.0.1:8080/query?batches=30'
//   flags: --port=N (default 8080), --rows=N (default 200000)
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "gola/gola.h"
#include "obs/http_server.h"
#include "server/http_service.h"
#include "workload/conviva_gen.h"
#include "workload/queries.h"
#include "workload/segment_io.h"

namespace {

/// Renders a crude inline error bar: value with a [lo──hi] span.
std::string Bar(double lo, double hi, double full_lo, double full_hi) {
  const int kWidth = 24;
  auto pos = [&](double v) {
    double t = (v - full_lo) / std::max(1e-9, full_hi - full_lo);
    return std::clamp(static_cast<int>(t * kWidth), 0, kWidth - 1);
  };
  std::string bar(kWidth, ' ');
  int a = pos(lo), b = pos(hi);
  for (int i = a; i <= b; ++i) bar[static_cast<size_t>(i)] = '-';
  bar[static_cast<size_t>(a)] = '[';
  bar[static_cast<size_t>(b)] = ']';
  return bar;
}

/// --serve mode: the engine behind an HTTP front end, blocking until
/// SIGINT/SIGTERM. Multiple curl clients POSTing /query concurrently get
/// independent converging answers while same-table queries share one scan.
int RunServer(gola::Engine& engine, int port) {
  using namespace gola;

  // Block the shutdown signals before any thread spawns, so they land in
  // the sigwait below instead of killing a worker mid-batch.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);

  obs::HttpServer http;
  server::QueryService service(&engine);
  service.AttachTo(&http);
  http.Route("/", [] {
    obs::HttpServer::Response r;
    r.body =
        "gola dashboard server\n"
        "  POST /query          SQL body -> SSE stream of converging answers\n"
        "                       ?batches= &replicates= &seed= &deadline_ms=\n"
        "                       &share=0|1 &stream=sse|none &label=\n"
        "  GET  /sessions       all sessions (JSON)\n"
        "  GET  /sessions/<id>  one session with its latest estimate\n"
        "  GET  /statusz        live introspection incl. sessions\n"
        "  GET  /metrics        Prometheus text incl. per-session families\n"
        "  GET  /timez          convergence time series (JSON; ?session=)\n"
        "  GET  /timez/stream   time-series samples as SSE\n";
    return r;
  });
  Status st = http.Start(port);
  if (!st.ok()) {
    std::fprintf(stderr, "cannot serve: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("SERVING http://127.0.0.1:%d (POST /query; Ctrl-C stops)\n",
              http.port());
  std::fflush(stdout);

  int sig = 0;
  sigwait(&set, &sig);
  std::printf("signal %d: draining\n", sig);
  http.Stop();                   // joins in-flight SSE streams
  engine.sessions().Shutdown();  // cancels + joins live sessions
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gola;

  bool serve = false;
  int port = 8080;
  long long rows = 200'000;
  std::string segments;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--serve") == 0) serve = true;
    else if (std::strncmp(argv[i], "--port=", 7) == 0) port = std::atoi(argv[i] + 7);
    else if (std::strncmp(argv[i], "--rows=", 7) == 0) rows = std::atoll(argv[i] + 7);
    else if (std::strncmp(argv[i], "--segments=", 11) == 0) segments = argv[i] + 11;
  }

  Engine engine;
  bool have_conviva = false;
  if (!segments.empty()) {
    // Serve straight off packed segment files (see tools/gola_segment):
    // scans decode chunk-by-chunk instead of holding the table in memory.
    auto listed = ListSegmentDir(segments);
    GOLA_CHECK(listed.ok()) << listed.status().ToString();
    for (const auto& [name, path] : *listed) {
      GOLA_CHECK_OK(engine.RegisterSegmentTable(name, path));
      std::printf("registered segment table %s from %s\n", name.c_str(),
                  path.c_str());
      if (name == "conviva") have_conviva = true;
    }
  }
  if (!have_conviva) {
    ConvivaGenOptions gen;
    gen.num_rows = rows;
    gen.num_ads = 16;
    GOLA_CHECK_OK(engine.RegisterTable("conviva", GenerateConviva(gen)));
  }

  if (serve) return RunServer(engine, port);

  struct Panel {
    std::string title;
    std::string sql;
  };
  std::vector<Panel> panels = {
      {"User retention: avg playback of slow-buffering sessions", SbiQuery()},
      {"Session quality: join-failure rate by geo (top 5)",
       "SELECT geo, AVG(join_failure_rate) AS jfr FROM conviva "
       "WHERE buffer_time > (SELECT AVG(buffer_time) FROM conviva) "
       "GROUP BY geo ORDER BY jfr DESC, geo LIMIT 5"},
      {"Ad health: abnormal sessions per ad (top 5)",
       "SELECT ad_id, COUNT(*) AS n FROM conviva s "
       "WHERE buffer_time > 1.5 * (SELECT AVG(buffer_time) FROM conviva t "
       "                           WHERE t.ad_id = s.ad_id) "
       "GROUP BY ad_id ORDER BY n DESC, ad_id LIMIT 5"},
  };

  for (const auto& panel : panels) {
    std::printf("==============================================================\n");
    std::printf("%s\n", panel.title.c_str());

    Stopwatch batch_timer;
    auto exact = engine.ExecuteBatch(panel.sql);
    GOLA_CHECK_OK(exact.status());
    double batch_s = batch_timer.ElapsedSeconds();

    GolaOptions opts;
    opts.num_batches = 25;
    opts.bootstrap_replicates = 80;
    auto online = engine.ExecuteOnline(panel.sql, opts);
    GOLA_CHECK_OK(online.status());

    // Show three refresh frames: early, mid, final.
    while (!(*online)->done()) {
      auto update = (*online)->Step();
      GOLA_CHECK_OK(update.status());
      int b = update->batch_index;
      if (b != 1 && b != 8 && b != update->total_batches) continue;

      std::printf("--- %3.0f%% of data, %.3fs (batch engine: %.3fs) ---\n",
                  100 * update->fraction_processed, update->elapsed_seconds, batch_s);
      const Table& r = update->result;
      const auto& schema = *r.schema();
      // Locate the first aggregate column and its lo/hi companions.
      int value_col = -1, lo_col = -1, hi_col = -1;
      for (size_t c = 0; c < schema.num_fields(); ++c) {
        std::string name = schema.field(c).name;
        if (name.size() > 3 && name.substr(name.size() - 3) == "_lo") {
          lo_col = static_cast<int>(c);
          hi_col = lo_col + 1;
          value_col = *schema.FieldIndex(name.substr(0, name.size() - 3));
          break;
        }
      }
      if (value_col < 0) continue;
      // Shared scale for the frame's bars.
      double frame_lo = 1e300, frame_hi = -1e300;
      for (int64_t i = 0; i < r.num_rows(); ++i) {
        frame_lo = std::min(frame_lo, r.At(i, lo_col).ToDouble().ValueOr(0));
        frame_hi = std::max(frame_hi, r.At(i, hi_col).ToDouble().ValueOr(0));
      }
      for (int64_t i = 0; i < r.num_rows(); ++i) {
        std::string label = value_col > 0 ? r.At(i, 0).ToString() : "all";
        double v = r.At(i, value_col).ToDouble().ValueOr(0);
        double lo = r.At(i, lo_col).ToDouble().ValueOr(0);
        double hi = r.At(i, hi_col).ToDouble().ValueOr(0);
        std::printf("  %-6s %10.2f  %s\n", label.c_str(), v,
                    Bar(lo, hi, frame_lo, frame_hi).c_str());
      }
    }
    std::printf("\n");
  }
  return 0;
}
