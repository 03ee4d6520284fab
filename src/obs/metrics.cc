#include "obs/metrics.h"

#include <cstdlib>
#include <cstring>

#include "common/string_util.h"

namespace gola {
namespace obs {

// ---------------------------------------------------------- enabled flag --

namespace {

bool EnabledFromEnv() {
  const char* env = std::getenv("GOLA_METRICS");
  if (env == nullptr) return true;
  std::string v = ToLower(env);
  return !(v == "0" || v == "off" || v == "false" || v == "no");
}

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled{EnabledFromEnv()};
  return enabled;
}

}  // namespace

bool MetricsEnabled() { return EnabledFlag().load(std::memory_order_relaxed); }
void SetMetricsEnabled(bool enabled) {
  EnabledFlag().store(enabled, std::memory_order_relaxed);
}

// ---------------------------------------------------------------- Counter --

size_t Counter::ShardIndex() {
  // Stable per-thread slot: threads are numbered in creation order, so the
  // handful of pool workers land on distinct shards.
  static std::atomic<size_t> next{0};
  thread_local size_t slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot & (kShards - 1);
}

// -------------------------------------------------------------- Histogram --

size_t Histogram::BucketIndex(uint64_t value) {
  if (value < kSub) return static_cast<size_t>(value);  // exact small values
  // Position of the leading bit; values ≥ kSub have msb ≥ kSubBits.
  int msb = 63 - __builtin_clzll(value);
  if (msb > 62) msb = 62;  // clamp so the top octave still fits
  size_t sub =
      static_cast<size_t>((value >> (msb - kSubBits)) & (kSub - 1));
  return static_cast<size_t>(msb - kSubBits + 1) * kSub + sub;
}

void Histogram::BucketBounds(size_t index, uint64_t* lo, uint64_t* hi) {
  if (index < kSub) {
    *lo = *hi = static_cast<uint64_t>(index);
    return;
  }
  size_t g = index >> kSubBits;
  size_t sub = index & (kSub - 1);
  int msb = static_cast<int>(g) + kSubBits - 1;
  uint64_t width = uint64_t{1} << (msb - kSubBits);
  *lo = (uint64_t{1} << msb) + sub * width;
  *hi = *lo + width - 1;
}

int64_t Histogram::Count() const {
  int64_t total = 0;
  for (const auto& b : buckets_) {
    total += static_cast<int64_t>(b.load(std::memory_order_relaxed));
  }
  return total;
}

double Histogram::Percentile(double q) const {
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  uint64_t counts[kNumBuckets];
  uint64_t total = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0;
  // Rank of the q-quantile among `total` observations (nearest-rank with
  // interpolation inside the winning bucket).
  double rank = q * static_cast<double>(total - 1);
  uint64_t before = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (counts[i] == 0) continue;
    double first = static_cast<double>(before);
    double last = static_cast<double>(before + counts[i] - 1);
    if (rank <= last) {
      uint64_t lo, hi;
      BucketBounds(i, &lo, &hi);
      if (hi == lo || counts[i] == 1) {
        return static_cast<double>(lo) + (hi - lo) * 0.5;
      }
      double frac = (rank - first) / static_cast<double>(counts[i] - 1);
      return static_cast<double>(lo) + frac * static_cast<double>(hi - lo);
    }
    before += counts[i];
  }
  uint64_t lo, hi;
  BucketBounds(kNumBuckets - 1, &lo, &hi);
  return static_cast<double>(hi);
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

// ----------------------------------------------------------- MetricLabels --

namespace {

/// Escapes a label value for Prometheus exposition (`\` and `"`).
std::string EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') out += '\\';
    out += c;
  }
  return out;
}

void AppendLabel(std::string* out, const char* key, const std::string& value) {
  if (value.empty()) return;
  if (!out->empty()) *out += ',';
  *out += key;
  *out += "=\"";
  *out += EscapeLabelValue(value);
  *out += '"';
}

}  // namespace

std::string MetricLabels::Render() const {
  std::string out;
  AppendLabel(&out, "session_id", session_id);
  AppendLabel(&out, "table", table);
  AppendLabel(&out, "phase", phase);
  return out;
}

std::string LabeledName(const std::string& base, const MetricLabels& labels) {
  if (labels.empty()) return base;
  return base + "{" + labels.Render() + "}";
}

bool ParseSeriesName(const std::string& full, std::string* base,
                     std::map<std::string, std::string>* labels) {
  labels->clear();
  size_t brace = full.find('{');
  if (brace == std::string::npos) {
    *base = full;
    return true;
  }
  if (full.back() != '}') return false;
  *base = full.substr(0, brace);
  size_t i = brace + 1;
  const size_t end = full.size() - 1;  // position of '}'
  while (i < end) {
    size_t eq = full.find('=', i);
    if (eq == std::string::npos || eq >= end) return false;
    std::string key = full.substr(i, eq - i);
    if (key.empty() || eq + 1 >= end || full[eq + 1] != '"') return false;
    std::string value;
    size_t j = eq + 2;
    for (; j < end && full[j] != '"'; ++j) {
      if (full[j] == '\\' && j + 1 < end) ++j;  // escaped `\"` or `\\`
      value += full[j];
    }
    if (j >= end) return false;  // unterminated value
    (*labels)[key] = value;
    i = j + 1;
    if (i < end) {
      if (full[i] != ',') return false;
      ++i;
    }
  }
  return true;
}

// -------------------------------------------------------- MetricsRegistry --

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const MetricLabels& labels) {
  return GetCounter(LabeledName(name, labels));
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const MetricLabels& labels) {
  return GetGauge(LabeledName(name, labels));
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const MetricLabels& labels) {
  return GetHistogram(LabeledName(name, labels));
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->Value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->Value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSample s;
    s.name = name;
    s.count = h->Count();
    s.sum = h->Sum();
    s.p50 = h->Percentile(0.50);
    s.p95 = h->Percentile(0.95);
    s.p99 = h->Percentile(0.99);
    snap.histograms.push_back(std::move(s));
  }
  return snap;
}

namespace {

/// Splits `name{labels}` into base name and inner label text ("" if none).
void SplitLabels(const std::string& name, std::string* base, std::string* labels) {
  size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') {
    *base = name;
    labels->clear();
    return;
  }
  *base = name.substr(0, brace);
  *labels = name.substr(brace + 1, name.size() - brace - 2);
}

/// `name{labels}` with one extra label appended.
std::string WithLabel(const std::string& name, const std::string& extra) {
  std::string base, labels;
  SplitLabels(name, &base, &labels);
  if (labels.empty()) return base + "{" + extra + "}";
  return base + "{" + labels + "," + extra + "}";
}

}  // namespace

std::string MetricsRegistry::RenderText() const {
  MetricsSnapshot snap = Snapshot();
  std::string out;
  std::string base, labels, last_base;
  for (const auto& c : snap.counters) {
    SplitLabels(c.name, &base, &labels);
    if (base != last_base) {
      out += "# TYPE " + base + " counter\n";
      last_base = base;
    }
    out += c.name + " " + std::to_string(c.value) + "\n";
  }
  last_base.clear();
  for (const auto& g : snap.gauges) {
    SplitLabels(g.name, &base, &labels);
    if (base != last_base) {
      out += "# TYPE " + base + " gauge\n";
      last_base = base;
    }
    out += g.name + " " + std::to_string(g.value) + "\n";
  }
  last_base.clear();
  for (const auto& h : snap.histograms) {
    SplitLabels(h.name, &base, &labels);
    if (base != last_base) {
      out += "# TYPE " + base + " summary\n";
      last_base = base;
    }
    out += WithLabel(h.name, "quantile=\"0.5\"") + " " + Format("%.6g", h.p50) + "\n";
    out += WithLabel(h.name, "quantile=\"0.95\"") + " " + Format("%.6g", h.p95) + "\n";
    out += WithLabel(h.name, "quantile=\"0.99\"") + " " + Format("%.6g", h.p99) + "\n";
    std::string suffixed_base, inner;
    SplitLabels(h.name, &suffixed_base, &inner);
    std::string label_part = inner.empty() ? "" : "{" + inner + "}";
    out += suffixed_base + "_sum" + label_part + " " + std::to_string(h.sum) + "\n";
    out += suffixed_base + "_count" + label_part + " " + std::to_string(h.count) + "\n";
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& c : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(c.name) + "\": " + std::to_string(c.value);
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& g : gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(g.name) + "\": " + std::to_string(g.value);
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& h : histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(h.name) + "\": {\"count\": " +
           std::to_string(h.count) + ", \"sum\": " + std::to_string(h.sum) +
           Format(", \"p50\": %.6g, \"p95\": %.6g, \"p99\": %.6g}", h.p50,
                  h.p95, h.p99);
  }
  out += "\n  }\n}\n";
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace obs
}  // namespace gola
