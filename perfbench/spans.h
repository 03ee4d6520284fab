// Benchmark-side spans around calls into the engine's public API. Spans are
// kept in memory and written when the run ends, so tracing never does I/O
// inside a timed region. Every span is recorded on the one thread that
// drives the workload, which is what lets a parent's self time be its
// duration minus its direct children's.
#ifndef GOLA_PERFBENCH_SPANS_H_
#define GOLA_PERFBENCH_SPANS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Layer a span's self time is attributed to. kBench is the benchmark's own
/// work (correctness checks, client idling); the root span's self time is
/// the unattributed remainder.
enum class Layer : uint8_t {
  kBench,
  kWorkload,
  kStorage,
  kPlan,
  kExec,
  kGola,
  kServer,
};
inline constexpr int kNumLayers = 7;
const char* LayerName(Layer layer);

struct Span {
  const char* name;
  Layer layer;
  Clock::time_point start;
  Clock::time_point end;
  int32_t parent;  // index into the span list, -1 for the root
  int64_t id;      // query or session id, -1 when none
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open one; returns its handle
  /// (-1 when tracing is off).
  int32_t Begin(const char* name, Layer layer, int64_t id = -1);
  void End(int32_t handle);

  /// Self seconds per layer plus the root's self time (the unattributed
  /// remainder). Requires every span to be closed.
  struct SelfTimes {
    std::array<double, kNumLayers> layer{};
    double unattributed = 0;
    double wall = 0;
  };
  SelfTimes ComputeSelfTimes() const;

  /// Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
  bool WriteChromeTrace(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a no-op when the recorder is off.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, Layer layer, int64_t id = -1)
      : rec_(rec), handle_(rec.Begin(name, layer, id)) {}
  ~ScopedSpan() { rec_.End(handle_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int32_t handle_;
};

}  // namespace perfbench

#endif  // GOLA_PERFBENCH_SPANS_H_
