// In-process time-series store behind GET /timez: a fixed-capacity ring of
// (timestamp, value) samples per registered series, so /statusz's
// point-in-time snapshot gains *history* — the convergence trajectory of
// every live session, queue depth over the last minutes, all without an
// external TSDB.
//
// Bounded memory by construction: each series holds at most
// `ring_capacity` samples. Every sample carries a weight — how many raw
// appends it represents. When a ring fills, adjacent *equal-weight* pairs
// in the oldest half are averaged into one sample of doubled weight, so
// the retained weights form a geometric ladder: the newest half stays
// raw (weight 1) while the distant past is exponentially coarser
// (log-time downsampling) — total weight is conserved, meaning a ring of
// a few hundred samples covers an arbitrarily long run end to end, back
// to its very first sample. Finished series are retired (kept readable
// for dashboards) and evicted oldest-first once `max_series` is exceeded.
//
// Two feeding modes: push (`Append` from the instrumentation site — the
// controller pushes max_rsd / CI half-width / fraction_processed after
// every mini-batch) and pull (`RegisterSampled` with a callback the
// store's sampler thread polls every `sample_period_ms` — dispatcher queue
// depth, active sessions). Appends take one per-series mutex; snapshots
// copy under the same mutex, so readers never see a ring mid-compaction.
#ifndef GOLA_OBS_TIMESERIES_H_
#define GOLA_OBS_TIMESERIES_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace gola {
namespace obs {

struct TimeSeriesOptions {
  /// Master switch: a disabled store rejects registrations (Register
  /// returns kInvalidSeries) and never starts its sampler thread, so the
  /// metrics-off configuration pays nothing.
  bool enabled = true;
  /// Samples kept per series; must be >= 8 (clamped). The compaction
  /// scheme keeps the newest capacity/2 samples at full resolution.
  int ring_capacity = 512;
  /// Cadence of the background sampler thread for pull-based series
  /// (overridable via GOLA_TIMESERIES_MS for the Global() store).
  int sample_period_ms = 250;
  /// Series cap: once exceeded, retired series are evicted oldest-first.
  /// Live series are never evicted.
  int max_series = 512;
};

struct TimeSeriesSample {
  int64_t t_ms = 0;  // unix epoch milliseconds
  double value = 0;
  /// Raw appends this sample represents (t_ms and value are their means).
  /// 1 for never-compacted samples; powers of two up the downsampling
  /// ladder. Series-wide, weights sum to the series' total append count.
  int64_t weight = 1;
};

/// Copy of one series for rendering; samples are time-ordered.
struct TimeSeriesSnapshot {
  std::string name;
  MetricLabels labels;
  bool retired = false;
  std::vector<TimeSeriesSample> samples;
};

class TimeSeriesStore {
 public:
  using SeriesId = uint64_t;
  static constexpr SeriesId kInvalidSeries = 0;

  explicit TimeSeriesStore(TimeSeriesOptions options = {});
  ~TimeSeriesStore();
  TimeSeriesStore(const TimeSeriesStore&) = delete;
  TimeSeriesStore& operator=(const TimeSeriesStore&) = delete;

  /// Registers a push-based series (the caller Appends samples). Names
  /// follow the metric naming scheme; labels carry the session identity.
  SeriesId Register(const std::string& name, const MetricLabels& labels);

  /// Registers a pull-based series: the sampler thread (started lazily)
  /// invokes `sample` every period. The callback must be thread-safe and
  /// non-blocking (a gauge read, not a computation).
  SeriesId RegisterSampled(const std::string& name, const MetricLabels& labels,
                           std::function<double()> sample);

  /// Appends a sample timestamped now. Unknown/evicted ids are ignored.
  void Append(SeriesId id, double value);
  /// Appends with an explicit timestamp (tests; replaying recorded data).
  /// Timestamps should be nondecreasing per series.
  void AppendAt(SeriesId id, int64_t t_ms, double value);

  /// Stops sampling (pull series) and marks the series evictable. Its data
  /// stays readable until eviction, so a dashboard can still show a query
  /// that just finished. Idempotent. Synchronizes with the sampler: once
  /// Retire returns, the series' callback will never run again, so state
  /// it captures may be freed.
  void Retire(SeriesId id);

  /// All series (optionally filtered) with their samples. `name_filter`
  /// matches as substring of the base name; `session_filter` matches the
  /// session_id label exactly; `since_ms` keeps samples with t > since_ms.
  std::vector<TimeSeriesSnapshot> Snapshot(const std::string& name_filter = "",
                                           const std::string& session_filter = "",
                                           int64_t since_ms = 0) const;

  /// The /timez document: {"period_ms": N, "series": [{name, labels,
  /// retired, samples: [[t_ms, value], ...]}, ...]}.
  std::string ToJson(const std::string& name_filter = "",
                     const std::string& session_filter = "",
                     int64_t since_ms = 0) const;

  /// Latest sample timestamp across every series (0 when empty) — the SSE
  /// streamer's cursor.
  int64_t LatestSampleMs() const;

  int series_count() const;
  const TimeSeriesOptions& options() const { return options_; }

  /// Process-wide store the introspection routes serve. Sampling cadence
  /// honors GOLA_TIMESERIES_MS; GOLA_TIMESERIES=0 disables the store
  /// entirely (Register returns kInvalidSeries, Append is a no-op), which
  /// is what the overhead CI gate compares against.
  static TimeSeriesStore& Global();
  /// False when GOLA_TIMESERIES=0/off disabled the Global() store.
  static bool GlobalEnabled();

 private:
  struct Series {
    std::string name;
    MetricLabels labels;
    std::function<double()> sample;  // null for push-based series
    std::atomic<bool> retired{false};  // read by sampler + snapshot threads

    std::mutex mu;  // guards samples
    std::vector<TimeSeriesSample> samples;
  };

  void AppendLocked(Series& s, int64_t t_ms, double value);
  void SamplerLoop();
  void EnsureSampler();

  const TimeSeriesOptions options_;

  mutable std::mutex mu_;  // guards series_ map and next_id_
  SeriesId next_id_ = 1;
  std::map<SeriesId, std::shared_ptr<Series>> series_;

  std::mutex sampler_mu_;
  std::condition_variable sampler_cv_;
  bool sampler_running_ = false;
  bool shutdown_ = false;
  std::thread sampler_;
};

}  // namespace obs
}  // namespace gola

#endif  // GOLA_OBS_TIMESERIES_H_
