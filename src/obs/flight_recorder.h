// Crash-safe flight recorder: a fixed-size lock-free ring of recent
// engine events (batch starts, range failures, rebuilds, server starts)
// that can be dumped to disk after the fact — on a range-failure rebuild,
// from a fatal-signal handler, or on demand via GET /flightz — so a crash
// or pathological recompute leaves a postmortem trail.
//
// Cost model: a Note is one relaxed fetch_add to claim a ticket, one
// compare_exchange plus a release fence to claim the slot, one release
// store to publish it, and two bounded string copies — no locks, no
// allocation, no clock syscall beyond the vDSO gettimeofday. Concurrent
// writers never block each other: a writer that finds its slot mid-write
// or already holding a newer ticket drops its note instead of waiting. A
// reader (Snapshot/Dump) detects slots torn by an in-flight writer via the
// seqlock-style sequence word and skips them.
#ifndef GOLA_OBS_FLIGHT_RECORDER_H_
#define GOLA_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace gola {
namespace obs {

class FlightRecorder {
 public:
  /// Ring capacity (power of two). 4096 recent events ≈ minutes of
  /// controller-granularity history at any realistic batch rate.
  static constexpr size_t kCapacity = 4096;
  static constexpr size_t kNameBytes = 24;
  static constexpr size_t kDetailBytes = 40;

  /// A consistent copy of one ring slot (strings NUL-terminated).
  struct Record {
    uint64_t ticket = 0;  // global note index; monotone across the ring
    int64_t t_us = 0;     // wall-clock microseconds since the Unix epoch
    uint32_t tid = 0;     // common ThisThreadId (shared with logs/traces)
    int64_t arg = 0;
    char name[kNameBytes] = {};
    char detail[kDetailBytes] = {};
  };

  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends an event. `name`/`detail` are truncated to the slot's fixed
  /// width; `detail` may be null. Lock-free and safe from any thread; a
  /// note whose slot is mid-write or already holds a newer ticket (writers
  /// a full ring apart) is dropped, though total_notes() still counts it.
  void Note(const char* name, const char* detail = nullptr, int64_t arg = 0);

  /// Consistent copy of the ring, oldest → newest; slots being written
  /// concurrently are skipped rather than returned torn.
  std::vector<Record> Snapshot() const;

  /// Human-readable dump (one line per record, header first).
  std::string ToText() const;

  /// Writes ToText-format records into `fd` using only write(2) and
  /// stack buffers — usable from the fatal-signal handler. Not strictly
  /// async-signal-safe (snprintf formats each line) but allocation- and
  /// lock-free, the pragmatic crash-path standard.
  void DumpToFd(int fd) const;

  /// Writes the dump to `path` (truncating).
  Status Dump(const std::string& path) const;

  /// Total notes ever recorded (≥ ring occupancy once wrapped).
  int64_t total_notes() const {
    return static_cast<int64_t>(head_.load(std::memory_order_relaxed));
  }

  /// Process-wide recorder every layer notes into (lazily constructed,
  /// never destroyed).
  static FlightRecorder& Global();

  /// Installs fatal-signal handlers (SEGV/ABRT/BUS/FPE/ILL) that dump the
  /// global recorder to `path` and re-raise. Idempotent; the first path
  /// wins. GOLA_CHECK failures abort(), so they land here too.
  static void InstallCrashHandler(const std::string& path);

 private:
  /// Payload fields are relaxed atomics: a reader racing a wrapping writer
  /// loads them torn-free byte-by-byte and then discards the copy when the
  /// sequence word moved — seqlock semantics without the formal data race
  /// (the ring must stay TSan-clean under concurrent writers).
  struct alignas(64) Slot {
    /// Seqlock word: 0 = never written; 2·ticket+1 while the writer is
    /// filling the slot; 2·ticket+2 once the record is complete. Only
    /// ever increases, so an unchanged word proves no writer intervened.
    std::atomic<uint64_t> seq{0};
    std::atomic<int64_t> t_us{0};
    std::atomic<uint32_t> tid{0};
    std::atomic<int64_t> arg{0};
    std::atomic<char> name[kNameBytes] = {};
    std::atomic<char> detail[kDetailBytes] = {};
  };

  /// Seqlock-protocol copy of one slot; false when empty or torn.
  static bool ReadSlot(const Slot& slot, Record* out);

  std::atomic<uint64_t> head_{0};
  Slot slots_[kCapacity];
};

}  // namespace obs
}  // namespace gola

#endif  // GOLA_OBS_FLIGHT_RECORDER_H_
