#include "obs/trace.h"

#include <cstdio>

#include "common/logging.h"
#include "common/string_util.h"

namespace gola {
namespace obs {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer::Buffer* Tracer::ThreadBuffer() {
  // Fast path: the (tracer, thread) pair was seen before. The cache holds a
  // raw pointer; the shared_ptr in buffers_ keeps the buffer alive for the
  // tracer's lifetime (the global tracer is never destroyed).
  thread_local Tracer* cached_tracer = nullptr;
  thread_local Buffer* cached_buffer = nullptr;
  if (cached_tracer == this) return cached_buffer;

  auto buffer = std::make_shared<Buffer>();
  // Shared dense thread id: the same thread carries the same id on its
  // trace track, in log records, and in flight-recorder events.
  buffer->tid = internal::ThisThreadId();
  buffer->events.reserve(1024);
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(buffer);
  }
  cached_tracer = this;
  cached_buffer = buffer.get();
  return cached_buffer;
}

void Tracer::Record(const char* name, int64_t start_ns, int64_t dur_ns,
                    const char* arg_name, int64_t arg) {
  if (!enabled()) return;
  Buffer* buf = ThreadBuffer();
  std::lock_guard<std::mutex> lock(buf->mu);
  if (buf->events.size() >= kMaxEventsPerThread) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf->events.push_back({name, arg_name, arg, start_ns, dur_ns});
}

std::string Tracer::ToJson() const { return RecentJson(kMaxEventsPerThread); }

std::string Tracer::RecentJson(size_t max_per_thread) const {
  std::vector<std::shared_ptr<Buffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers = buffers_;
  }
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& buf : buffers) {
    std::lock_guard<std::mutex> lock(buf->mu);
    size_t begin = buf->events.size() > max_per_thread
                       ? buf->events.size() - max_per_thread
                       : 0;
    for (size_t i = begin; i < buf->events.size(); ++i) {
      const TraceEvent& e = buf->events[i];
      if (!first) out += ",";
      first = false;
      // Chrome trace ts/dur are microseconds; keep ns resolution via the
      // fractional part. Names are plain literals, but escaped anyway: a
      // stray quote must not produce an unloadable file.
      out += Format(
          "\n{\"name\":\"%s\",\"cat\":\"gola\",\"ph\":\"X\","
          "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u",
          JsonEscape(e.name).c_str(), static_cast<double>(e.start_ns) / 1e3,
          static_cast<double>(e.dur_ns) / 1e3, buf->tid);
      if (e.arg_name != nullptr) {
        out += Format(",\"args\":{\"%s\":%lld}", JsonEscape(e.arg_name).c_str(),
                      static_cast<long long>(e.arg));
      }
      out += "}";
    }
  }
  out += "\n]}\n";
  return out;
}

Status Tracer::WriteJson(const std::string& path) const {
  std::string json = ToJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open trace output file: " + path);
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::IoError("short write to trace output file: " + path);
  }
  return Status::OK();
}

void Tracer::Clear() {
  std::vector<std::shared_ptr<Buffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers = buffers_;
  }
  for (const auto& buf : buffers) {
    std::lock_guard<std::mutex> lock(buf->mu);
    buf->events.clear();
  }
  dropped_.store(0, std::memory_order_relaxed);
}

size_t Tracer::num_events() const {
  std::vector<std::shared_ptr<Buffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers = buffers_;
  }
  size_t n = 0;
  for (const auto& buf : buffers) {
    std::lock_guard<std::mutex> lock(buf->mu);
    n += buf->events.size();
  }
  return n;
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

}  // namespace obs
}  // namespace gola
