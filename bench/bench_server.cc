// Concurrent-session benchmark (google-benchmark): a fleet of q dashboard
// panels submitted together against one table, comparing independent
// executors (vec:0 — every session builds its own mini-batch partitioner)
// with the dispatcher's shared scan (vec:1 — the first session builds it,
// the other q-1 attach). Results are bit-identical either way
// (server_session_test pins that); this binary measures the two axes the
// session layer exists for:
//
//   real_time        wall seconds to drain the whole fleet
//   updates_per_sec  aggregate OnlineUpdates/second across the fleet
//   ttfe_p50_ms /    time-to-first-estimate percentiles, read from the same
//   ttfe_p99_ms      `gola_server_ttfe_us{table=...}` histogram production
//                    scrapes from /metrics — bench and server report the
//                    same number from the same instrumentation
//
// check_perf.py pairs vec:0/vec:1 and CI gates BM_ServerSharedScan/q:16 at
// >= 1.5x: scan sharing must amortize the batch gathers across the fleet.
// Emits BENCH_server.json unless --benchmark_out is passed explicitly.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "server/dispatcher.h"

namespace gola {
namespace {

/// Dataset size, shrinkable via GOLA_BENCH_ROWS for CI smoke runs.
int64_t BenchRows() {
  static const int64_t rows = [] {
    if (const char* env = std::getenv("GOLA_BENCH_ROWS")) {
      return static_cast<int64_t>(std::strtoll(env, nullptr, 10));
    }
    return static_cast<int64_t>(120'000);
  }();
  return rows;
}

/// Four cheap one-pass aggregates over distinct columns: the per-batch fold
/// is small relative to the partitioner build, which is exactly the regime
/// a multi-panel dashboard puts the server in (many light queries, one
/// table). The fleet cycles through them.
const char* kFleet[] = {
    "SELECT AVG(play_time) FROM conviva",
    "SELECT AVG(buffer_time) FROM conviva WHERE bitrate_kbps > 2000",
    "SELECT COUNT(*) FROM conviva WHERE join_failure_rate > 0.1",
    "SELECT AVG(bitrate_kbps) FROM conviva WHERE start_hour >= 12",
};

void BM_ServerSharedScan(benchmark::State& state) {
  const int q = static_cast<int>(state.range(0));
  const bool shared = state.range(1) != 0;

  Engine engine;
  ConvivaGenOptions gen;
  gen.num_rows = BenchRows();
  gen.num_ads = 64;
  GOLA_CHECK_OK(engine.RegisterTable("conviva", GenerateConviva(gen)));

  GolaOptions gola;
  gola.num_batches = 40;
  gola.bootstrap_replicates = 16;

  // Window the labeled ttfe histogram to this benchmark configuration: the
  // registry is process-wide and handles survive Reset, so zeroing here
  // keeps one (q, vec) point from polluting the next one's percentiles.
  obs::MetricsRegistry::Global().Reset();

  int64_t total_updates = 0;
  double total_seconds = 0;

  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    std::vector<server::SessionPtr> fleet;
    fleet.reserve(static_cast<size_t>(q));
    for (int i = 0; i < q; ++i) {
      // One seed across the fleet: the partitioner is a pure function of
      // (table, num_batches, row_shuffle, seed), and only same-key queries
      // can attach to one scan — exactly how a dashboard submits panels.
      server::SessionOptions options;
      options.gola = gola;
      options.share_scan = shared;
      auto session = engine.SubmitOnline(
          kFleet[static_cast<size_t>(i) % (sizeof(kFleet) / sizeof(kFleet[0]))],
          std::move(options));
      GOLA_CHECK_OK(session.status());
      fleet.push_back(*session);
    }
    for (const auto& session : fleet) {
      auto final_update = session->Await();
      GOLA_CHECK_OK(final_update.status());
      benchmark::DoNotOptimize(final_update->max_rsd);
    }
    total_seconds += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    for (const auto& session : fleet) {
      total_updates += session->batches_done();
    }
  }

  state.counters["updates_per_sec"] =
      total_seconds > 0 ? static_cast<double>(total_updates) / total_seconds : 0;
  // ttfe percentiles come from the session layer's own labeled histogram —
  // the series /metrics exports — instead of a bench-private sort, so this
  // number is the production telemetry, measured end to end.
  {
    obs::MetricLabels labels;
    labels.table = "conviva";
    obs::Histogram* ttfe_us = obs::MetricsRegistry::Global().GetHistogram(
        "gola_server_ttfe_us", labels);
    if (ttfe_us->Count() > 0) {
      state.counters["ttfe_p50_ms"] = ttfe_us->Percentile(0.50) / 1e3;
      state.counters["ttfe_p99_ms"] = ttfe_us->Percentile(0.99) / 1e3;
    }
  }
  const server::ScanShareStats stats = engine.sessions().scan_stats();
  state.counters["scan_share_hits"] = static_cast<double>(stats.hits);
  state.SetItemsProcessed(total_updates);
}
// Repetitions come from the command line: the CI guard asks for 5, run in
// random interleaved order, and gates their median.
BENCHMARK(BM_ServerSharedScan)
    ->ArgsProduct({{1, 4, 16, 64}, {0, 1}})
    ->ArgNames({"q", "vec"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gola

// Always emit a machine-readable summary (BENCH_server.json in the working
// directory) unless the caller already passed --benchmark_out.
int main(int argc, char** argv) {
  gola::bench::TuneAllocator();
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::vector<char*> args(argv, argv + argc);
  static char out_flag[] = "--benchmark_out=BENCH_server.json";
  static char fmt_flag[] = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag);
    args.push_back(fmt_flag);
  }
  int patched_argc = static_cast<int>(args.size());
  benchmark::Initialize(&patched_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(patched_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
