#include "spans.h"

#include <cstdio>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kWorkload: return "workload";
    case Layer::kStorage: return "storage";
    case Layer::kPlan: return "plan";
    case Layer::kExec: return "exec";
    case Layer::kGola: return "gola";
    case Layer::kServer: return "server";
  }
  return "unknown";
}

int32_t SpanRecorder::Begin(const char* name, Layer layer, int64_t id) {
  if (!enabled_) return -1;
  const int32_t parent = open_.empty() ? -1 : open_.back();
  const auto handle = static_cast<int32_t>(spans_.size());
  spans_.push_back(Span{name, layer, Clock::now(), {}, parent, id});
  open_.push_back(handle);
  return handle;
}

void SpanRecorder::End(int32_t handle) {
  if (handle < 0) return;
  spans_[static_cast<size_t>(handle)].end = Clock::now();
  // Spans close in LIFO order on the recording thread.
  open_.pop_back();
}

SpanRecorder::SelfTimes SpanRecorder::ComputeSelfTimes() const {
  SelfTimes out;
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = SecondsBetween(spans_[i].start, spans_[i].end);
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= SecondsBetween(s.start, s.end);
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0) {
      out.unattributed += self[i];
      out.wall += SecondsBetween(spans_[i].start, spans_[i].end);
    } else {
      out.layer[static_cast<size_t>(spans_[i].layer)] += self[i];
    }
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  auto us = [&](Clock::time_point t) { return SecondsBetween(origin, t) * 1e6; };
  std::fputs("{\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"id\":%lld}}",
                 i == 0 ? "" : ",\n", s.name, LayerName(s.layer), us(s.start),
                 us(s.end) - us(s.start), i, s.parent,
                 static_cast<long long>(s.id));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
