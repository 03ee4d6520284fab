// Benchmark binary: runs one workload in this process and prints its
// measurements as one JSON object on the last line of standard output.
//
//   gola_perfbench --workload library|library-pool|dashboard --seed N
//                  --seconds S --trace 0|1 [--spans PATH]
//
// perfbench/run.py builds this binary, runs it in a fresh process per
// workload and turns its output into the benchmark's result line.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "workloads.h"

#ifndef GOLA_PERFBENCH_BUILD_TYPE
#define GOLA_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

// Rows per generated table.
constexpr int64_t kRows = 200'000;

// Environment variables the engine reads that would change the measured
// program: segment spilling, fault injection, metrics and time-series
// switches, and files or sockets opened from inside timed calls.
constexpr const char* kEngineEnv[] = {
    "GOLA_SEGMENT_DIR",   "GOLA_FAILPOINTS",    "GOLA_FAILPOINT_SEED",
    "GOLA_METRICS",       "GOLA_TIMESERIES",    "GOLA_TIMESERIES_MS",
    "GOLA_HTTP_PORT",     "GOLA_FLIGHT_PATH",   "GOLA_QUERY_LOG_PATH",
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload library|library-pool|dashboard --seed N "
               "--seconds S --trace 0|1 [--spans PATH]\n",
               argv0);
  return 2;
}

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

template <typename Map, typename Format>
std::string JsonObject(const Map& map, Format format) {
  std::string out = "{";
  for (const auto& [key, value] : map) {
    if (out.size() > 1) out += ",";
    out += JsonString(key) + ":" + format(value);
  }
  return out + "}";
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.rows = kRows;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      config.seconds = static_cast<int>(std::strtol(value, &end, 10));
      have_seconds = end != value && *end == '\0' && config.seconds > 0;
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
      if (!config.trace && std::strcmp(value, "0") != 0) return Usage(argv[0]);
    } else if (flag == "--spans") {
      config.spans_path = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds) {
    return Usage(argv[0]);
  }
  if (config.workload != "library" && config.workload != "library-pool" &&
      config.workload != "dashboard") {
    return Usage(argv[0]);
  }
  for (const char* name : kEngineEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "refusing to run: %s is set and would change the measured "
                   "program; unset it\n",
                   name);
      return 3;
    }
  }
#if defined(__GLIBC__)
  // Same allocator settings as the repository's benches (bench_util.h
  // TuneAllocator): large column copies come from the heap, not fresh mmaps.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  config.nproc = CpuCount();

  perfbench::RunResult result =
      config.workload == "dashboard"
          ? perfbench::RunDashboard(config)
          : perfbench::RunLibrary(config, config.workload == "library-pool");

  result.config["workload"] = config.workload;
  result.config["seed"] = std::to_string(config.seed);
  result.config["seconds"] = std::to_string(config.seconds);
  result.config["trace"] = config.trace ? "1" : "0";
  result.config["rows"] = std::to_string(config.rows);
  result.config["nproc"] = std::to_string(config.nproc);
  result.config["build_type"] = GOLA_PERFBENCH_BUILD_TYPE;

  for (const std::string& f : result.failures) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }
  std::string failures = "[";
  for (const std::string& f : result.failures) {
    if (failures.size() > 1) failures += ",";
    failures += JsonString(f);
  }
  failures += "]";
  std::printf(
      "{\"attempted\":%lld,\"failed\":%lld,\"failures\":%s,"
      "\"measured_wall_s\":%s,\"config\":%s,\"end_to_end\":%s,"
      "\"per_layer\":%s,\"counts\":%s}\n",
      static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), failures.c_str(),
      Number(result.measured_wall_s).c_str(),
      JsonObject(result.config, JsonString).c_str(),
      JsonObject(result.end_to_end, Number).c_str(),
      JsonObject(result.per_layer, Number).c_str(),
      JsonObject(result.counts,
                 [](int64_t v) { return std::to_string(v); })
          .c_str());
  return result.failed == 0 ? 0 : 1;
}
