// The benchmark's three workloads. Each runs in its own process, times every
// call into the engine's public API with the benchmark's own steady clock,
// and checks every final answer against Engine::ExecuteBatch.
#ifndef GOLA_PERFBENCH_WORKLOADS_H_
#define GOLA_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;  // library | library-pool | dashboard
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  int64_t rows = 0;
  int nproc = 1;
  /// Where the traced run writes its spans once it has ended.
  std::string spans_path;
};

struct RunResult {
  int64_t attempted = 0;
  /// Operations that errored, were refused, or whose final answer differs
  /// from ExecuteBatch.
  int64_t failed = 0;
  std::vector<std::string> failures;  // first few failure messages
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;  // filled by traced runs only
  /// Deterministic counts: a pure function of (workload shape, seed).
  std::map<std::string, int64_t> counts;
  /// Printed beside the metrics (threads, rows, passes, ...).
  std::map<std::string, std::string> config;
  /// Wall seconds of the measured phase; traced vs untraced gives the
  /// tracing overhead.
  double measured_wall_s = 0;
};

RunResult RunLibrary(const RunConfig& config, bool with_pool);
RunResult RunDashboard(const RunConfig& config);

}  // namespace perfbench

#endif  // GOLA_PERFBENCH_WORKLOADS_H_
