// Checkpoint/resume of a running online query — see checkpoint.h for the
// wire layout and version policy. These are member functions of
// OnlineQueryExecutor kept in their own translation unit so the controller
// stays focused on scheduling.
#include "gola/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "gola/controller.h"
#include "obs/flight_recorder.h"
#include "storage/serde.h"

namespace gola {

namespace {

/// Serialized digest of everything that must match between the writing and
/// the resuming executor for bit-identical continuation. Byte-compared on
/// resume, so adding a field here invalidates old checkpoints only together
/// with a version bump.
std::string Fingerprint(const GolaOptions& options, const CompiledQuery& query,
                        const MiniBatchPartitioner& part) {
  std::ostringstream buf(std::ios::binary);
  BinaryWriter w(&buf);
  w.U64(options.seed);
  w.U32(static_cast<uint32_t>(options.num_batches));
  w.U32(static_cast<uint32_t>(options.bootstrap_replicates));
  w.F64(options.epsilon_mult);
  w.I64(options.min_group_support);
  w.F64(options.ci_level);
  w.U8(options.row_shuffle ? 1 : 0);
  w.Str(query.root().table);
  w.U64(static_cast<uint64_t>(part.total_rows()));
  w.U32(static_cast<uint32_t>(part.num_batches()));
  w.U32(static_cast<uint32_t>(query.blocks.size()));
  for (const auto& block : query.blocks) {
    w.U8(static_cast<uint8_t>(block.kind));
    w.U32(static_cast<uint32_t>(block.scan_columns.size()));
    for (int col : block.scan_columns) w.U32(static_cast<uint32_t>(col));
    w.U32(static_cast<uint32_t>(block.input_schema->num_fields()));
    w.U32(static_cast<uint32_t>(block.group_by.size()));
    w.U32(static_cast<uint32_t>(block.aggs.size()));
    w.U32(static_cast<uint32_t>(block.uncertain_conjuncts.size()));
  }
  return buf.str();
}

/// fsync of a just-written file by path. The stream API has no descriptor,
/// so reopen read-only — fsync flushes the inode's dirty pages regardless
/// of the fd's open mode.
Status FsyncPath(const std::string& path, bool directory) {
  GOLA_FAILPOINT_RETURN("gola.checkpoint.fsync");
  int flags = O_RDONLY;
#ifdef O_DIRECTORY
  if (directory) flags |= O_DIRECTORY;
#endif
  int fd = ::open(path.c_str(), flags);
  if (fd < 0) {
    return Status::IoError("cannot open for fsync: " + path);
  }
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IoError("fsync failed: " + path);
  }
  return Status::OK();
}

/// The directory that must be fsynced for a rename inside it to be durable.
std::string ParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

Status OnlineQueryExecutor::SerializeState(std::ostream* out) const {
  BinaryWriter w(out);
  w.Raw(kCheckpointMagic, sizeof(kCheckpointMagic));
  w.U32(kCheckpointVersion);
  w.Str(Fingerprint(options_, query_, *partitioner_));

  w.U32(static_cast<uint32_t>(next_batch_));
  w.I64(rows_through_);
  w.U32(static_cast<uint32_t>(recomputes_));
  w.F64(ElapsedSeconds());
  w.U8(static_cast<uint8_t>(degradation_));
  w.U8(stopped_early_ ? 1 : 0);

  w.U32(static_cast<uint32_t>(blocks_.size()));
  for (const auto& block : blocks_) {
    GOLA_RETURN_NOT_OK(block->SaveState(&w));
  }
  uint64_t sum = w.checksum();
  w.U64(sum);
  out->flush();
  if (!*out) {
    return Status::IoError("checkpoint serialization failed (stream error)");
  }
  return Status::OK();
}

Status OnlineQueryExecutor::DeserializeState(std::istream* in) {
  BinaryReader r(in);
  char magic[sizeof(kCheckpointMagic)];
  GOLA_RETURN_NOT_OK(r.Raw(magic, sizeof(magic)));
  if (std::string(magic, sizeof(magic)) !=
      std::string(kCheckpointMagic, sizeof(kCheckpointMagic))) {
    return Status::IoError("not a G-OLA checkpoint (bad magic)");
  }
  GOLA_ASSIGN_OR_RETURN(uint32_t version, r.U32());
  if (version != kCheckpointVersion) {
    return Status::IoError(
        Format("checkpoint version %u unsupported (this build reads %u)",
               version, kCheckpointVersion));
  }
  GOLA_ASSIGN_OR_RETURN(std::string fingerprint, r.Str());
  if (fingerprint != Fingerprint(options_, query_, *partitioner_)) {
    return Status::IoError(
        "checkpoint fingerprint mismatch: it was written by a different "
        "query, dataset or options (seed/batching/replicates must match)");
  }

  GOLA_ASSIGN_OR_RETURN(uint32_t next_batch, r.U32());
  if (next_batch > static_cast<uint32_t>(partitioner_->num_batches())) {
    return Status::IoError(Format("checkpoint batch cursor %u out of range",
                                  next_batch));
  }
  GOLA_ASSIGN_OR_RETURN(int64_t rows_through, r.I64());
  GOLA_ASSIGN_OR_RETURN(uint32_t recomputes, r.U32());
  GOLA_ASSIGN_OR_RETURN(double elapsed, r.F64());
  GOLA_ASSIGN_OR_RETURN(uint8_t degradation, r.U8());
  // The rung is file input: anything past the last rung this build knows
  // is corruption, never a state to resume into.
  if (degradation > static_cast<uint8_t>(Degradation::kStoppedEarly)) {
    return Status::IoError("checkpoint has an unknown degradation rung");
  }
  GOLA_ASSIGN_OR_RETURN(uint8_t stopped_early, r.U8());

  GOLA_ASSIGN_OR_RETURN(uint32_t num_blocks, r.U32());
  if (num_blocks != blocks_.size()) {
    return Status::IoError(Format("checkpoint has %u blocks, query has %zu",
                                  num_blocks, blocks_.size()));
  }
  for (auto& block : blocks_) {
    GOLA_RETURN_NOT_OK(block->LoadState(&r));
  }
  uint64_t computed = r.checksum();
  GOLA_ASSIGN_OR_RETURN(uint64_t stored, r.U64());
  if (computed != stored) {
    return Status::IoError(
        "checkpoint checksum mismatch (truncated or corrupted state)");
  }

  next_batch_ = static_cast<int>(next_batch);
  rows_through_ = rows_through;
  recomputes_ = static_cast<int>(recomputes);
  resumed_elapsed_ = elapsed;  // time and deadline budget already consumed
  degradation_ = static_cast<Degradation>(degradation);
  stopped_early_ = stopped_early != 0;
  // Re-apply the restored rung's side effects (the root's replicate budget;
  // Step reads materialization off the rung itself) so a resumed query
  // degrades exactly like the original; the query clock keeps the seconds
  // already spent.
  if (degradation_ != Degradation::kNone) ApplyDegradationEffects();

  // Broadcasts (scalar ranges, membership views, the root emission) are
  // derived state: re-emit every block in dependency order against the
  // restored aggregates, exactly as the last completed batch did.
  if (next_batch_ > 0 && rows_through_ > 0) {
    double scale = static_cast<double>(partitioner_->total_rows()) /
                   static_cast<double>(rows_through_);
    for (auto& block : blocks_) {
      GOLA_RETURN_NOT_OK(block->ReEmit(scale, &env_));
    }
  }

  // Per-update pipeline-volume deltas restart from the restored counters.
  prev_morsels_ = 0;
  prev_rows_in_ = 0;
  prev_rows_folded_ = 0;
  prev_rows_uncertain_ = 0;
  return Status::OK();
}

Status OnlineQueryExecutor::Checkpoint(const std::string& path) const {
  GOLA_FAILPOINT_RETURN("gola.checkpoint");
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IoError("cannot open checkpoint file for writing: " + tmp);
    }
    Status st = SerializeState(&out);
    if (!st.ok()) {
      std::remove(tmp.c_str());
      return st;
    }
  }
  // Crash-atomicity needs three barriers, not just the rename: the tmp
  // file's *data* must be durable before the rename makes it reachable
  // (otherwise a power cut can leave a fully-renamed checkpoint with
  // truncated contents), and the parent directory entry must be durable
  // after it (otherwise the rename itself can vanish — acceptable, the old
  // checkpoint survives — or worse, resurrect the tmp name).
  Status synced = FsyncPath(tmp, /*directory=*/false);
  if (!synced.ok()) {
    std::remove(tmp.c_str());
    return synced;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot move checkpoint into place: " + path);
  }
  Status dir_synced = FsyncPath(ParentDir(path), /*directory=*/true);
  if (!dir_synced.ok()) {
    // The rename happened; the file is valid once the directory entry
    // reaches disk on its own. Surface the failed barrier anyway — the
    // caller promised durability, and only the fsync proves it.
    return dir_synced;
  }
  obs::FlightRecorder::Global().Note("checkpoint", path.c_str(), next_batch_);
  return Status::OK();
}

Status OnlineQueryExecutor::ResumeFrom(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open checkpoint file: " + path);
  }
  GOLA_RETURN_NOT_OK(DeserializeState(&in));
  obs::FlightRecorder::Global().Note("resume", path.c_str(), next_batch_);
  clock_.Restart();
  return Status::OK();
}

}  // namespace gola
