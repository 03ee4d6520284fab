// On-disk compressed columnar segment files ("GOLASEG1") and their
// mmap-backed reader. A segment is an immutable snapshot of one table:
//
//   offset 0   magic "GOLASEG1"                      (8 bytes)
//              u32 version (=1), u32 reserved
//              u64 total_rows
//              u32 num_fields, u32 num_chunks
//              u64 directory_offset, u64 directory_size
//              u64 header checksum (FNV-1a over the 40 bytes after magic)
//   offset 64  column payloads, each 8-byte aligned (storage/segment/encoding.h)
//   dir_off    directory, BinaryWriter wire format (storage/serde.h):
//                per field: name (u32 len + bytes), u8 type
//                per chunk: u64 rows; per column:
//                  u8 encoding, u64 payload_offset, u64 payload_size,
//                  u64 null_count, u8 has_minmax, [min Value, max Value],
//                  u64 payload FNV-1a
//                u64 directory FNV-1a (of everything above in the directory)
//
// Integrity discipline matches the golat and checkpoint formats: FNV-1a
// everywhere, header and directory verified at open, per-column payload
// checksums verified lazily on first access (so opening a huge file stays
// O(directory), not O(data)).
#ifndef GOLA_STORAGE_SEGMENT_SEGMENT_H_
#define GOLA_STORAGE_SEGMENT_SEGMENT_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/column_source.h"
#include "storage/segment/encoding.h"
#include "storage/table.h"

namespace gola {

/// Writes `table` as a segment file at `path` (atomic: temp file + rename).
/// Peak writer memory is one encoded column, not the whole encoded file.
Status WriteSegmentFile(const Table& table, const std::string& path);

/// Memory-mapped immutable segment file.
class SegmentFile {
 public:
  struct ColumnMeta {
    Encoding encoding = Encoding::kRaw;
    uint64_t offset = 0;
    uint64_t size = 0;
    uint64_t null_count = 0;
    bool has_minmax = false;
    Value min_v;
    Value max_v;
    uint64_t checksum = 0;
  };

  static Result<std::shared_ptr<SegmentFile>> Open(const std::string& path);
  ~SegmentFile();

  SegmentFile(const SegmentFile&) = delete;
  SegmentFile& operator=(const SegmentFile&) = delete;

  const std::string& path() const { return path_; }
  uint64_t file_size() const { return size_; }
  const SchemaPtr& schema() const { return schema_; }
  int64_t total_rows() const { return static_cast<int64_t>(total_rows_); }
  size_t num_chunks() const { return chunk_rows_.size(); }
  int64_t chunk_rows(size_t c) const {
    return static_cast<int64_t>(chunk_rows_[c]);
  }
  const ColumnMeta& meta(size_t c, size_t col) const {
    return meta_[c][col];
  }

  /// Zero-copy view over one column payload; verifies the payload checksum
  /// on first access (thread-safe, verified at most once per column).
  Result<EncodedColumnView> View(size_t c, size_t col) const;

  /// madvise read-ahead (`willneed`) or working-set release for the byte
  /// range of one chunk's payloads. Advisory.
  void Advise(size_t c, bool willneed) const;

 private:
  SegmentFile() = default;

  std::string path_;
  int fd_ = -1;
  const uint8_t* base_ = nullptr;
  uint64_t size_ = 0;
  uint64_t payload_end_ = 0;
  SchemaPtr schema_;
  uint64_t total_rows_ = 0;
  std::vector<uint64_t> chunk_rows_;
  std::vector<std::vector<ColumnMeta>> meta_;
  mutable std::unique_ptr<std::atomic<uint8_t>[]> verified_;
};

/// ColumnSource over a segment file: decoded chunks carry encoded sidecars
/// so downstream predicate evaluation can run on codes/runs directly.
class SegmentSource : public ColumnSource {
 public:
  explicit SegmentSource(std::shared_ptr<const SegmentFile> file);

  const std::shared_ptr<const SegmentFile>& file() const { return file_; }

  const SchemaPtr& schema() const override { return file_->schema(); }
  size_t num_chunks() const override { return file_->num_chunks(); }
  int64_t chunk_rows(size_t c) const override { return file_->chunk_rows(c); }
  int64_t num_rows() const override { return file_->total_rows(); }
  using ColumnSource::ReadChunk;
  Result<Chunk> ReadChunk(size_t c, const std::vector<int>& columns) const override;
  Result<Chunk> GatherRows(size_t c, const std::vector<int64_t>& rows,
                           const std::vector<int>& columns) const override;
  std::optional<ColumnZone> zone(size_t c, size_t col) const override;
  void Prefetch(size_t c) const override { file_->Advise(c, true); }
  void Evict(size_t c) const override { file_->Advise(c, false); }

 private:
  std::shared_ptr<const SegmentFile> file_;
};

/// Opens `path` and wraps it as a streamed (segment-backed) table.
Result<TablePtr> OpenSegmentTable(const std::string& path);

/// Bumps the gola_segment_chunks_pruned_total counter (zone-map skip sites).
void MarkSegmentChunkPruned();

}  // namespace gola

#endif  // GOLA_STORAGE_SEGMENT_SEGMENT_H_
