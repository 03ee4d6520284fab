// ColumnSource: the abstraction that lets a Table be backed by something
// other than resident std::vector columns — today the mmap'ed compressed
// segment files in storage/segment/. Chunk granularity mirrors the
// in-memory Table: a source exposes N chunks, each decodable in full
// (ReadChunk) or selectively by row list (GatherRows), either of them for
// a subset of the columns (a query's scan columns). Implementations must
// be thread-safe for concurrent reads: the mini-batch partitioner overlaps
// a background prefetch of batch i+1 with estimation of batch i.
#ifndef GOLA_STORAGE_COLUMN_SOURCE_H_
#define GOLA_STORAGE_COLUMN_SOURCE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "storage/chunk.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace gola {

/// Per-(chunk, column) zone-map metadata for pruning without touching data.
struct ColumnZone {
  uint64_t null_count = 0;
  bool has_minmax = false;
  Value min_v;
  Value max_v;
};

class ColumnSource {
 public:
  virtual ~ColumnSource() = default;

  virtual const SchemaPtr& schema() const = 0;
  virtual size_t num_chunks() const = 0;
  virtual int64_t chunk_rows(size_t c) const = 0;
  virtual int64_t num_rows() const = 0;

  /// Decodes `columns` (ascending table indices) of chunk `c`, in that
  /// order. Implementations may attach an encoded sidecar
  /// (Chunk::encoded()), one view per decoded column, so predicates can
  /// run on encoded data.
  virtual Result<Chunk> ReadChunk(size_t c, const std::vector<int>& columns) const = 0;
  /// Every column of chunk `c`.
  Result<Chunk> ReadChunk(size_t c) const { return ReadChunk(c, AllColumns(*schema())); }

  /// Decodes only `rows` (chunk-local indices, any order, duplicates
  /// allowed) of `columns` (as for ReadChunk) of chunk `c` — must be
  /// bit-identical to ReadChunk(c, columns)->Take(rows) minus the sidecar.
  virtual Result<Chunk> GatherRows(size_t c, const std::vector<int64_t>& rows,
                                   const std::vector<int>& columns) const = 0;

  /// Zone-map metadata, or nullopt when the source has none.
  virtual std::optional<ColumnZone> zone(size_t c, size_t col) const {
    (void)c;
    (void)col;
    return std::nullopt;
  }

  /// Read-ahead / working-set hints; advisory, may be no-ops.
  virtual void Prefetch(size_t c) const { (void)c; }
  virtual void Evict(size_t c) const { (void)c; }
};

}  // namespace gola

#endif  // GOLA_STORAGE_COLUMN_SOURCE_H_
