// RAII trace spans recorded into per-thread ring buffers, exported as
// Chrome trace-event JSON (load the file in chrome://tracing or Perfetto).
//
// A whole online query renders as a timeline: batch → block → phase
// (envelope check / delta exec / emit) → morsel → stage. Nesting is implied
// by time containment on each thread track, which the Chrome format renders
// natively from overlapping complete ("ph":"X") events.
//
// A span can also add its duration to a `double` of seconds: the per-phase
// QueryStats are timed this way, so stats and traces read one clock.
//
// Cost model: when tracing is disabled (the default) and the span feeds no
// seconds, a TraceSpan is two relaxed loads and no clock reads. A span that
// feeds seconds always costs two steady_clock reads; when tracing is
// enabled, a span adds one append into its thread's buffer (per-thread, so
// the mutex is uncontended except during export). Span names and arg names
// must be string literals (the buffer stores the pointers).
#ifndef GOLA_OBS_TRACE_H_
#define GOLA_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace gola {
namespace obs {

struct TraceEvent {
  const char* name = nullptr;      // literal
  const char* arg_name = nullptr;  // literal; null → no args object
  int64_t arg = 0;
  int64_t start_ns = 0;  // since tracer epoch
  int64_t dur_ns = 0;
};

/// Collects spans from all threads; export with ToJson/WriteJson.
class Tracer {
 public:
  /// Per-thread event cap — a full buffer drops further events (counted in
  /// dropped()) rather than growing without bound.
  static constexpr size_t kMaxEventsPerThread = size_t{1} << 17;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Nanoseconds since this tracer's epoch.
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  void Record(const char* name, int64_t start_ns, int64_t dur_ns,
              const char* arg_name = nullptr, int64_t arg = 0);

  /// Chrome trace-event JSON: {"traceEvents":[...]} with ts/dur in
  /// microseconds. Safe to call while other threads are still recording
  /// (their buffers are briefly locked).
  std::string ToJson() const;
  /// Same format, truncated to the most recent `max_per_thread` events on
  /// each thread track — the GET /tracez view of a live query, bounded so
  /// a long-running process cannot make the endpoint arbitrarily slow.
  std::string RecentJson(size_t max_per_thread) const;
  Status WriteJson(const std::string& path) const;

  /// Discards all recorded events (buffers stay registered).
  void Clear();

  int64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  size_t num_events() const;

  /// Process-wide tracer every layer records into (lazily constructed,
  /// never destroyed).
  static Tracer& Global();

 private:
  struct Buffer {
    mutable std::mutex mu;
    std::vector<TraceEvent> events;
    uint32_t tid = 0;
  };

  Buffer* ThreadBuffer();

  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> dropped_{0};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  // guards buffers_ registration
  std::vector<std::shared_ptr<Buffer>> buffers_;
};

/// RAII span against the global tracer: records a complete event covering
/// its lifetime and, when `seconds` is non-null, adds that lifetime to
/// `*seconds`. Near-free when tracing is disabled and `seconds` is null.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, double* seconds = nullptr)
      : TraceSpan(name, nullptr, 0, seconds) {}

  TraceSpan(const char* name, const char* arg_name, int64_t arg,
            double* seconds = nullptr)
      : name_(name), arg_name_(arg_name), arg_(arg), seconds_(seconds) {
    Tracer& tracer = Tracer::Global();
    armed_ = tracer.enabled();
    if (armed_ || seconds_ != nullptr) start_ns_ = tracer.NowNs();
  }

  ~TraceSpan() {
    if (!armed_ && seconds_ == nullptr) return;
    Tracer& tracer = Tracer::Global();
    const int64_t dur_ns = tracer.NowNs() - start_ns_;
    if (armed_) tracer.Record(name_, start_ns_, dur_ns, arg_name_, arg_);
    if (seconds_ != nullptr) *seconds_ += static_cast<double>(dur_ns) * 1e-9;
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  const char* arg_name_;
  int64_t arg_;
  double* seconds_;
  int64_t start_ns_ = 0;
  bool armed_ = false;
};

}  // namespace obs
}  // namespace gola

#endif  // GOLA_OBS_TRACE_H_
