// Convergence recorder: one JSONL record per OnlineUpdate — estimate, CI
// bounds, rsd, |U_i|, per-phase seconds — appended to
// GolaOptions::convergence_path. This is the §5/Figure-3 trajectory as a
// reusable artifact instead of ad-hoc bench printf: any run of any query
// produces a file that tools/plot_convergence.py (or a notebook, or jq)
// can turn into the paper's error-vs-time plot.
#ifndef GOLA_OBS_CONVERGENCE_H_
#define GOLA_OBS_CONVERGENCE_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/status.h"
#include "obs/update_record.h"

namespace gola {
namespace obs {

/// Appends records to a JSONL file, one single-fwrite line per record (so
/// concurrent recorders writing distinct files never interleave through a
/// shared stdio buffer, and a crash loses at most the in-flight line).
class ConvergenceRecorder {
 public:
  /// Truncates `path` — one query trajectory per file.
  explicit ConvergenceRecorder(const std::string& path);
  ~ConvergenceRecorder();
  ConvergenceRecorder(const ConvergenceRecorder&) = delete;
  ConvergenceRecorder& operator=(const ConvergenceRecorder&) = delete;

  /// Open failure, or OK. A failed recorder swallows Append calls.
  const Status& status() const { return status_; }

  /// Writes one update: its scalars, the headline cell's estimate, CI and
  /// RSD (null when absent), per-phase seconds and the `groups` block.
  /// `result_rows` counts the root emission's rows, which exist even when
  /// the update skipped materializing its result table.
  void Append(const UpdateRecord& update, int64_t result_rows);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  Status status_;
};

}  // namespace obs
}  // namespace gola

#endif  // GOLA_OBS_CONVERGENCE_H_
