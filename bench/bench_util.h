// Shared setup and formatting for the experiment harness binaries. Every
// bench prints a self-describing header with the workload parameters so
// EXPERIMENTS.md rows are reproducible from the binary output alone.
#ifndef GOLA_BENCH_BENCH_UTIL_H_
#define GOLA_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "gola/gola.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/conviva_gen.h"
#include "workload/queries.h"
#include "workload/tpch_gen.h"

namespace gola {
namespace bench {

/// Row count taken from argv[1] or the GOLA_BENCH_ROWS env var, else the
/// given default. All benches accept this so CI can run them small.
inline int64_t RowsFromArgs(int argc, char** argv, int64_t default_rows) {
  if (argc > 1) return std::strtoll(argv[1], nullptr, 10);
  if (const char* env = std::getenv("GOLA_BENCH_ROWS")) {
    return std::strtoll(env, nullptr, 10);
  }
  return default_rows;
}

/// Keeps large allocations on the heap instead of per-allocation mmaps.
/// Virtualized single-vCPU environments serve fresh pages slowly, so the
/// default glibc mmap threshold makes big column copies fault-bound.
inline void TuneAllocator() {
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
}

/// Registers "conviva" and "tpch" tables of the requested size. Returned
/// by pointer: Engine owns mutexes (thread-safe catalog, lazy session
/// dispatcher) and is neither copyable nor movable.
inline std::unique_ptr<Engine> MakeEngine(int64_t rows) {
  TuneAllocator();
  auto engine_ptr = std::make_unique<Engine>();
  Engine& engine = *engine_ptr;
  ConvivaGenOptions conviva;
  conviva.num_rows = rows;
  conviva.num_ads = 64;
  conviva.num_contents = 2000;
  GOLA_CHECK_OK(engine.RegisterTable("conviva", GenerateConviva(conviva)));
  TpchGenOptions tpch;
  tpch.num_rows = rows;
  // Part count grows with scale but is capped: per-part sample sizes must
  // grow with the data for per-key variation ranges to tighten (the paper
  // relaxes over-selective clauses for the same reason, footnote 12).
  tpch.num_parts = std::clamp<int64_t>(rows / 500, 200, 2000);
  tpch.num_suppliers = 200;
  GOLA_CHECK_OK(engine.RegisterTable("tpch", GenerateTpch(tpch)));
  return engine_ptr;
}

inline void PrintHeader(const std::string& title, int64_t rows, int batches,
                        int replicates) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("rows per table: %lld | mini-batches: %d | bootstrap replicates: %d\n\n",
              static_cast<long long>(rows), batches, replicates);
}

/// Chrome-trace output path from GOLA_TRACE_PATH; empty → tracing stays off.
/// Opt-in by env keeps the CI overhead guard measuring metrics cost alone.
inline std::string TracePathFromEnv() {
  const char* env = std::getenv("GOLA_TRACE_PATH");
  return env ? std::string(env) : std::string();
}

/// Folds the engine's metrics registry into the bench's artifact set:
/// BENCH_<name>.metrics.json next to the timing output, so CI uploads a
/// machine-readable snapshot of counters/gauges/histograms per run.
inline void WriteMetricsArtifact(const std::string& name) {
  const std::string path = "BENCH_" + name + ".metrics.json";
  std::string json = obs::MetricsRegistry::Global().Snapshot().ToJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nmetrics snapshot: %s\n", path.c_str());
}

/// Convergence JSONL artifact path for a bench's headline online run, next
/// to the timing output. tools/plot_convergence.py turns it into CSV/SVG.
inline std::string ConvergenceArtifact(const std::string& name) {
  const std::string path = "BENCH_" + name + ".convergence.jsonl";
  std::printf("convergence log: %s\n", path.c_str());
  return path;
}

}  // namespace bench
}  // namespace gola

#endif  // GOLA_BENCH_BENCH_UTIL_H_
