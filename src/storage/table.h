// Table: a schema plus a sequence of chunks; the in-memory relation.
#ifndef GOLA_STORAGE_TABLE_H_
#define GOLA_STORAGE_TABLE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/chunk.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace gola {

class ColumnSource;

class Table {
 public:
  Table() = default;
  explicit Table(SchemaPtr schema) : schema_(std::move(schema)) {}
  Table(SchemaPtr schema, std::vector<Chunk> chunks);

  /// A *streamed* table: rows live in a ColumnSource (e.g. an mmap'ed
  /// segment file), not in resident chunks. Streaming-aware consumers (the
  /// mini-batch partitioner through chunk_rows/GatherRows, the batch
  /// executor's segment scan through source()) never materialize the whole
  /// table; the chunk accessors below still work by decoding everything
  /// once, lazily, so every existing caller stays correct.
  static Table FromSource(std::shared_ptr<const ColumnSource> source);

  bool streamed() const { return source_ != nullptr; }
  const std::shared_ptr<const ColumnSource>& source() const { return source_; }

  const SchemaPtr& schema() const { return schema_; }
  size_t num_chunks() const;
  const Chunk& chunk(size_t i) const;
  const std::vector<Chunk>& chunks() const;
  int64_t num_rows() const;

  /// Rows in chunk `c`, without decoding a streamed chunk.
  int64_t chunk_rows(size_t c) const;
  /// Rows `rows` (chunk-local, any order) of `columns` (ascending column
  /// indices) of chunk `c`: a Take of the resident chunk, or a selective
  /// decode from the ColumnSource.
  Result<Chunk> GatherRows(size_t c, const std::vector<int64_t>& rows,
                           const std::vector<int>& columns) const;

  /// Copy-on-write: copies of a table share their chunks until one appends.
  void AppendChunk(Chunk chunk);

  /// All chunks concatenated into one (copies).
  Chunk Combined() const;

  /// Whole table re-chunked into pieces of at most `rows_per_chunk` rows.
  Table Rechunk(int64_t rows_per_chunk) const;

  /// Value at (row, col) across chunk boundaries — for tests & display.
  Value At(int64_t row, int col) const;

  /// Pretty-prints up to `limit` rows with a header.
  std::string ToString(int64_t limit = 20) const;

 private:
  // Lazily decoded chunks of a streamed table. Held behind a shared_ptr so
  // Table keeps value semantics (copies share the cache; the source is
  // immutable so that is safe).
  struct LazyChunks {
    std::once_flag once;
    std::vector<Chunk> chunks;
  };
  const std::vector<Chunk>& MaterializedChunks() const;

  SchemaPtr schema_;
  // Resident chunks, shared by copies so that copying a Table is O(1); null
  // means none. Only AppendChunk writes, after unsharing.
  std::shared_ptr<std::vector<Chunk>> chunks_;
  std::shared_ptr<const ColumnSource> source_;
  std::shared_ptr<LazyChunks> lazy_;
};

using TablePtr = std::shared_ptr<const Table>;

/// Convenience row-wise builder used by generators and tests.
class TableBuilder {
 public:
  explicit TableBuilder(SchemaPtr schema, int64_t chunk_size = 64 * 1024);

  /// Appends one row; values.size() must equal the schema width.
  void AppendRow(const std::vector<Value>& values);

  /// Direct typed appenders for generator hot loops: call once per column in
  /// schema order, then CommitRow().
  Column& column(size_t i) { return columns_[i]; }
  void CommitRow();

  Table Finish();

 private:
  void FlushChunk();

  SchemaPtr schema_;
  int64_t chunk_size_;
  std::vector<Column> columns_;
  std::vector<Chunk> chunks_;
};

}  // namespace gola

#endif  // GOLA_STORAGE_TABLE_H_
