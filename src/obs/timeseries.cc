#include "obs/timeseries.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "common/string_util.h"

namespace gola {
namespace obs {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TimeSeriesStore::TimeSeriesStore(TimeSeriesOptions options)
    : options_([&options] {
        options.ring_capacity = std::max(options.ring_capacity, 8);
        options.sample_period_ms = std::max(options.sample_period_ms, 1);
        options.max_series = std::max(options.max_series, 1);
        return options;
      }()) {}

TimeSeriesStore::~TimeSeriesStore() {
  {
    std::lock_guard<std::mutex> lock(sampler_mu_);
    shutdown_ = true;
  }
  sampler_cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
}

TimeSeriesStore::SeriesId TimeSeriesStore::Register(const std::string& name,
                                                    const MetricLabels& labels) {
  if (!options_.enabled) return kInvalidSeries;
  auto s = std::make_shared<Series>();
  s->name = name;
  s->labels = labels;

  std::lock_guard<std::mutex> lock(mu_);
  // Make room: retired series go first, oldest first. Live series are never
  // evicted, so a burst of concurrent queries can transiently exceed the cap.
  while (static_cast<int>(series_.size()) >= options_.max_series) {
    auto victim = series_.end();
    for (auto it = series_.begin(); it != series_.end(); ++it) {
      if (it->second->retired) {
        victim = it;
        break;
      }
    }
    if (victim == series_.end()) break;
    series_.erase(victim);
  }
  SeriesId id = next_id_++;
  series_.emplace(id, std::move(s));
  return id;
}

TimeSeriesStore::SeriesId TimeSeriesStore::RegisterSampled(
    const std::string& name, const MetricLabels& labels,
    std::function<double()> sample) {
  SeriesId id = Register(name, labels);
  if (id == kInvalidSeries) return id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = series_.find(id);
    if (it != series_.end()) it->second->sample = std::move(sample);
  }
  EnsureSampler();
  return id;
}

void TimeSeriesStore::Append(SeriesId id, double value) {
  AppendAt(id, NowMs(), value);
}

void TimeSeriesStore::AppendAt(SeriesId id, int64_t t_ms, double value) {
  if (id == kInvalidSeries) return;
  std::shared_ptr<Series> s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = series_.find(id);
    if (it == series_.end()) return;
    s = it->second;
  }
  std::lock_guard<std::mutex> lock(s->mu);
  AppendLocked(*s, t_ms, value);
}

void TimeSeriesStore::AppendLocked(Series& s, int64_t t_ms, double value) {
  if (!s.samples.empty() && t_ms < s.samples.back().t_ms) {
    t_ms = s.samples.back().t_ms;
  }
  s.samples.push_back({t_ms, value, 1});
  const size_t cap = static_cast<size_t>(options_.ring_capacity);
  if (s.samples.size() < cap) return;
  // Log-time downsampling: in the oldest half, average adjacent
  // *equal-weight* pairs into one sample of doubled weight; the newest
  // half stays verbatim. Equal-weight merging is what makes retention
  // logarithmic rather than sliding-window: a sample only coarsens when a
  // partner of its own resolution has accumulated behind it, so the
  // surviving weights form a geometric ladder (..., 8, 4, 2, 1, 1, ...),
  // total weight is conserved, and history reaches back to the first
  // append while the most recent cap/2 samples always stay exact.
  const size_t old_half = s.samples.size() / 2;
  std::vector<TimeSeriesSample> merged;
  merged.reserve(s.samples.size());
  size_t i = 0;
  while (i < old_half) {
    if (i + 1 < old_half && s.samples[i].weight == s.samples[i + 1].weight) {
      const TimeSeriesSample& a = s.samples[i];
      const TimeSeriesSample& b = s.samples[i + 1];
      merged.push_back(
          {(a.t_ms + b.t_ms) / 2, (a.value + b.value) / 2, a.weight * 2});
      i += 2;
    } else {
      merged.push_back(s.samples[i]);
      ++i;
    }
  }
  for (; i < s.samples.size(); ++i) merged.push_back(s.samples[i]);
  if (merged.size() == s.samples.size() && merged.size() >= 2) {
    // The ladder had no equal-weight pair to merge (strictly descending
    // weights all the way down). Fold the two oldest samples with a
    // weighted mean so every compaction is guaranteed to shrink the ring.
    const TimeSeriesSample a = merged[0];
    const TimeSeriesSample b = merged[1];
    const double w = static_cast<double>(a.weight + b.weight);
    merged[1] = {static_cast<int64_t>(
                     (static_cast<double>(a.t_ms) * static_cast<double>(a.weight) +
                      static_cast<double>(b.t_ms) * static_cast<double>(b.weight)) /
                     w),
                 (a.value * static_cast<double>(a.weight) +
                  b.value * static_cast<double>(b.weight)) /
                     w,
                 a.weight + b.weight};
    merged.erase(merged.begin());
  }
  s.samples = std::move(merged);
}

void TimeSeriesStore::Retire(SeriesId id) {
  if (id == kInvalidSeries) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(id);
  if (it != series_.end()) it->second->retired = true;
}

std::vector<TimeSeriesSnapshot> TimeSeriesStore::Snapshot(
    const std::string& name_filter, const std::string& session_filter,
    int64_t since_ms) const {
  std::vector<std::shared_ptr<Series>> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    all.reserve(series_.size());
    for (const auto& [id, s] : series_) all.push_back(s);
  }
  std::vector<TimeSeriesSnapshot> out;
  for (const auto& s : all) {
    if (!name_filter.empty() &&
        s->name.find(name_filter) == std::string::npos) {
      continue;
    }
    if (!session_filter.empty() && s->labels.session_id != session_filter) {
      continue;
    }
    TimeSeriesSnapshot snap;
    snap.name = s->name;
    snap.labels = s->labels;
    {
      std::lock_guard<std::mutex> lock(s->mu);
      snap.retired = s->retired;
      for (const TimeSeriesSample& sample : s->samples) {
        if (sample.t_ms > since_ms) snap.samples.push_back(sample);
      }
    }
    out.push_back(std::move(snap));
  }
  return out;
}

std::string TimeSeriesStore::ToJson(const std::string& name_filter,
                                    const std::string& session_filter,
                                    int64_t since_ms) const {
  std::vector<TimeSeriesSnapshot> snaps =
      Snapshot(name_filter, session_filter, since_ms);
  std::string out = "{";
  out += Format("\"period_ms\": %d, \"series\": [", options_.sample_period_ms);
  bool first = true;
  for (const TimeSeriesSnapshot& s : snaps) {
    if (!first) out += ", ";
    first = false;
    out += "{\"name\": \"" + JsonEscape(s.name) + "\", \"labels\": {";
    bool first_label = true;
    auto label = [&](const char* key, const std::string& value) {
      if (value.empty()) return;
      if (!first_label) out += ", ";
      first_label = false;
      out += std::string("\"") + key + "\": \"" + JsonEscape(value) + "\"";
    };
    label("session_id", s.labels.session_id);
    label("table", s.labels.table);
    label("phase", s.labels.phase);
    out += Format("}, \"retired\": %s, \"samples\": [",
                  s.retired ? "true" : "false");
    for (size_t i = 0; i < s.samples.size(); ++i) {
      if (i) out += ", ";
      out += Format("[%lld, %.6g]",
                    static_cast<long long>(s.samples[i].t_ms),
                    s.samples[i].value);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

int64_t TimeSeriesStore::LatestSampleMs() const {
  int64_t latest = 0;
  std::vector<std::shared_ptr<Series>> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, s] : series_) all.push_back(s);
  }
  for (const auto& s : all) {
    std::lock_guard<std::mutex> lock(s->mu);
    if (!s->samples.empty()) latest = std::max(latest, s->samples.back().t_ms);
  }
  return latest;
}

int TimeSeriesStore::series_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(series_.size());
}

void TimeSeriesStore::EnsureSampler() {
  std::lock_guard<std::mutex> lock(sampler_mu_);
  if (sampler_running_ || shutdown_) return;
  sampler_running_ = true;
  sampler_ = std::thread([this] { SamplerLoop(); });
}

void TimeSeriesStore::SamplerLoop() {
  std::unique_lock<std::mutex> lock(sampler_mu_);
  while (!shutdown_) {
    sampler_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.sample_period_ms),
        [this] { return shutdown_; });
    if (shutdown_) break;
    lock.unlock();
    {
      // Callbacks run under mu_: Retire also takes mu_, so once Retire
      // returns the sampler can never invoke that series' callback again —
      // the owner of the captured state may free it. Callbacks are
      // documented as non-blocking gauge reads, so holding mu_ here is
      // cheap; lock order is always mu_ → Series::mu.
      std::lock_guard<std::mutex> series_lock(mu_);
      const int64_t now = NowMs();
      for (const auto& [id, s] : series_) {
        if (!s->sample || s->retired) continue;
        const double v = s->sample();
        std::lock_guard<std::mutex> sample_lock(s->mu);
        AppendLocked(*s, now, v);
      }
    }
    lock.lock();
  }
}

TimeSeriesStore& TimeSeriesStore::Global() {
  // Leaked on purpose (like MetricsRegistry::Global): route handlers and
  // sessions may touch the store during static destruction.
  static TimeSeriesStore* store = [] {
    TimeSeriesOptions options;
    options.enabled = GlobalEnabled();
    if (const char* env = std::getenv("GOLA_TIMESERIES_MS")) {
      const int ms = std::atoi(env);
      if (ms > 0) options.sample_period_ms = ms;
    }
    return new TimeSeriesStore(options);
  }();
  return *store;
}

bool TimeSeriesStore::GlobalEnabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("GOLA_TIMESERIES");
    if (env == nullptr) return true;
    const std::string v = ToLower(env);
    return !(v == "0" || v == "off" || v == "false");
  }();
  return enabled;
}

}  // namespace obs
}  // namespace gola
