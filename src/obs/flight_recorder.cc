#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "common/logging.h"

namespace gola {
namespace obs {

namespace {

int64_t WallMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void CopyBounded(char* dst, size_t cap, const char* src) {
  if (src == nullptr) {
    dst[0] = '\0';
    return;
  }
  size_t n = 0;
  while (n + 1 < cap && src[n] != '\0') {
    dst[n] = src[n];
    ++n;
  }
  dst[n] = '\0';
}

void StoreBounded(std::atomic<char>* dst, size_t cap, const char* src) {
  size_t n = 0;
  if (src != nullptr) {
    for (; n + 1 < cap && src[n] != '\0'; ++n) {
      dst[n].store(src[n], std::memory_order_relaxed);
    }
  }
  dst[n].store('\0', std::memory_order_relaxed);
}

void LoadBounded(char* dst, const std::atomic<char>* src, size_t cap) {
  for (size_t i = 0; i < cap; ++i) {
    dst[i] = src[i].load(std::memory_order_relaxed);
  }
  dst[cap - 1] = '\0';
}

/// Formats one record as a dump line into `buf`; returns its length.
int FormatRecord(const FlightRecorder::Record& r, char* buf, size_t cap) {
  // Wall-clock split into seconds + microseconds keeps the line numeric
  // (no localtime in the crash path); tools correlate via the log stamps.
  int n = std::snprintf(buf, cap, "%8llu %lld.%06lld tid=%-3u %-22s %-38s %lld\n",
                        static_cast<unsigned long long>(r.ticket),
                        static_cast<long long>(r.t_us / 1000000),
                        static_cast<long long>(r.t_us % 1000000), r.tid, r.name,
                        r.detail, static_cast<long long>(r.arg));
  if (n < 0) return 0;
  return std::min(n, static_cast<int>(cap) - 1);
}

void WriteAll(int fd, const char* buf, size_t len) {
  ssize_t ignored = write(fd, buf, len);
  (void)ignored;
}

}  // namespace

void FlightRecorder::Note(const char* name, const char* detail, int64_t arg) {
  const uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket & (kCapacity - 1)];
  // Claim (odd) → fill → publish (even). The claim only replaces a complete
  // record older than this ticket: a writer cannot stop another writer's
  // in-flight stores, so when the slot is mid-write (odd) or already holds a
  // newer ticket — writers kCapacity tickets apart racing for one slot —
  // this note is the one dropped. A reader that observes an odd or changed
  // sequence discards its copy of the slot.
  const uint64_t claimed = 2 * ticket + 1;
  uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  do {
    if ((seq & 1) != 0 || seq >= claimed) return;
  } while (!slot.seq.compare_exchange_weak(seq, claimed,
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed));
  // Orders the claim before every payload store: a reader that sees any of
  // this note's bytes also sees the odd sequence and discards its copy.
  std::atomic_thread_fence(std::memory_order_release);
  slot.t_us.store(WallMicros(), std::memory_order_relaxed);
  slot.tid.store(internal::ThisThreadId(), std::memory_order_relaxed);
  slot.arg.store(arg, std::memory_order_relaxed);
  StoreBounded(slot.name, kNameBytes, name);
  StoreBounded(slot.detail, kDetailBytes, detail);
  slot.seq.store(2 * ticket + 2, std::memory_order_release);
}

bool FlightRecorder::ReadSlot(const Slot& slot, Record* out) {
  const uint64_t before = slot.seq.load(std::memory_order_acquire);
  if (before == 0 || (before & 1) != 0) return false;  // empty or mid-write
  out->t_us = slot.t_us.load(std::memory_order_relaxed);
  out->tid = slot.tid.load(std::memory_order_relaxed);
  out->arg = slot.arg.load(std::memory_order_relaxed);
  LoadBounded(out->name, slot.name, kNameBytes);
  LoadBounded(out->detail, slot.detail, kDetailBytes);
  std::atomic_thread_fence(std::memory_order_acquire);
  if (slot.seq.load(std::memory_order_relaxed) != before) {
    return false;  // torn by a concurrent writer
  }
  out->ticket = before / 2 - 1;
  return true;
}

std::vector<FlightRecorder::Record> FlightRecorder::Snapshot() const {
  std::vector<Record> out;
  out.reserve(kCapacity);
  Record r;
  for (const Slot& slot : slots_) {
    if (ReadSlot(slot, &r)) out.push_back(r);
  }
  std::sort(out.begin(), out.end(),
            [](const Record& a, const Record& b) { return a.ticket < b.ticket; });
  return out;
}

std::string FlightRecorder::ToText() const {
  std::vector<Record> records = Snapshot();
  std::string out = "# gola flight recorder: " + std::to_string(records.size()) +
                    " of " + std::to_string(total_notes()) +
                    " events retained (ticket, unix_time, tid, name, detail, arg)\n";
  char line[192];
  for (const Record& r : records) {
    out.append(line, static_cast<size_t>(FormatRecord(r, line, sizeof(line))));
  }
  return out;
}

void FlightRecorder::DumpToFd(int fd) const {
  // No Snapshot(): that allocates, and this path must work mid-crash.
  // Walk the ring in place with the seqlock protocol, formatting into a
  // stack buffer. Records come out in slot order, not ticket order — the
  // ticket column restores it offline.
  char line[192];
  int n = std::snprintf(line, sizeof(line),
                        "# gola flight recorder dump (%lld events total)\n",
                        static_cast<long long>(total_notes()));
  if (n > 0) WriteAll(fd, line, static_cast<size_t>(n));
  Record r;
  for (const Slot& slot : slots_) {
    if (!ReadSlot(slot, &r)) continue;
    n = FormatRecord(r, line, sizeof(line));
    if (n > 0) WriteAll(fd, line, static_cast<size_t>(n));
  }
}

Status FlightRecorder::Dump(const std::string& path) const {
  std::string text = ToText();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open flight-recorder dump file: " + path);
  }
  size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (written != text.size()) {
    return Status::IoError("short write to flight-recorder dump file: " + path);
  }
  return Status::OK();
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

// ---------------------------------------------------- crash-dump handler --

namespace {

/// Fixed storage for the crash-dump path: the handler must not touch the
/// heap, and std::string's buffer may be freed by the time a signal fires.
char g_crash_path[512] = {0};

void CrashHandler(int sig) {
  // SA_RESETHAND restored the default disposition before we got here, so
  // re-raising after the dump produces the normal termination (core dump,
  // abort message) the process would have had without us.
  int fd = open(g_crash_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    char head[96];
    int n = std::snprintf(head, sizeof(head), "# fatal signal %d\n", sig);
    if (n > 0) WriteAll(fd, head, static_cast<size_t>(n));
    FlightRecorder::Global().DumpToFd(fd);
    close(fd);
  }
  raise(sig);
}

}  // namespace

void FlightRecorder::InstallCrashHandler(const std::string& path) {
  static std::once_flag once;
  std::call_once(once, [&path] {
    CopyBounded(g_crash_path, sizeof(g_crash_path), path.c_str());
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = CrashHandler;
    sa.sa_flags = SA_RESETHAND;
    sigemptyset(&sa.sa_mask);
    for (int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
      sigaction(sig, &sa, nullptr);
    }
    Global().Note("crash_handler_installed", g_crash_path);
  });
}

}  // namespace obs
}  // namespace gola
