#include "obs/convergence.h"

#include "common/string_util.h"

namespace gola {
namespace obs {

ConvergenceRecorder::ConvergenceRecorder(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "w");
  if (file_ == nullptr) {
    status_ = Status::IoError("cannot open convergence output file: " + path);
  }
}

ConvergenceRecorder::~ConvergenceRecorder() {
  if (file_ != nullptr) std::fclose(file_);
}

void ConvergenceRecorder::Append(const UpdateRecord& r, int64_t result_rows) {
  if (file_ == nullptr) return;
  std::string line = Format(
      "{\"batch_index\": %d, \"total_batches\": %d, "
      "\"fraction_processed\": %.8g, ",
      r.batch_index, r.total_batches, r.fraction_processed);
  const GroupCell& cell = r.headline;
  if (cell.has_estimate) {
    line += Format("\"estimate\": %.10g, \"ci_lo\": %.10g, \"ci_hi\": %.10g, ",
                   cell.estimate, cell.ci_lo, cell.ci_hi);
  } else {
    line += "\"estimate\": null, \"ci_lo\": null, \"ci_hi\": null, ";
  }
  // An absent RSD is null — serializing it as 0 would claim full
  // convergence.
  if (cell.has_rsd) {
    line += Format("\"rsd\": %.6g, ", cell.rsd);
  } else {
    line += "\"rsd\": null, ";
  }
  line += "\"max_rsd\": " + JsonNumber(r.max_rsd);
  line += Format(
      ", \"uncertain_tuples\": %lld, "
      "\"uncertain_groups\": %lld, \"recomputes\": %d, \"result_rows\": %lld, "
      "\"batch_seconds\": %.6g, \"elapsed_seconds\": %.6g, "
      "\"phases\": {\"envelope_check\": %.6g, \"delta_exec\": %.6g, "
      "\"emit\": %.6g, \"emit_overlay\": %.6g, \"emit_finalize\": %.6g, "
      "\"emit_broadcast\": %.6g, \"emit_root\": %.6g, \"rebuild\": %.6g, "
      "\"materialize\": %.6g}, ",
      static_cast<long long>(r.uncertain_tuples),
      static_cast<long long>(r.uncertain_groups), r.recomputes_so_far,
      static_cast<long long>(result_rows), r.batch_seconds, r.elapsed_seconds,
      r.stats.envelope_check_seconds, r.stats.delta_exec_seconds,
      r.stats.emit_seconds, r.stats.emit_overlay_seconds,
      r.stats.emit_finalize_seconds, r.stats.emit_broadcast_seconds,
      r.stats.emit_root_seconds, r.stats.rebuild_seconds,
      r.stats.materialize_seconds);
  line += "\"groups\": " + r.groups.ToJson() + "}\n";
  // One fwrite per record: stdio locks the stream per call, so the line
  // lands whole; flush immediately so a live tail (or a crash postmortem)
  // sees every completed batch.
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
}

}  // namespace obs
}  // namespace gola
