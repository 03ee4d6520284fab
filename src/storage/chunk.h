// Chunk: a horizontal slice of a table — one Column per schema field, all
// the same length. Chunks are what operators exchange.
//
// A chunk may optionally carry per-row serial numbers (the global stream
// positions assigned by the mini-batch partitioner); these key the
// deterministic poissonized-bootstrap weights (bootstrap/poisson.h).
#ifndef GOLA_STORAGE_CHUNK_H_
#define GOLA_STORAGE_CHUNK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/column.h"
#include "storage/schema.h"

namespace gola {

struct EncodedChunk;

class Chunk {
 public:
  Chunk() = default;
  Chunk(SchemaPtr schema, std::vector<Column> columns);

  const SchemaPtr& schema() const { return schema_; }
  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return columns_.empty() ? serials_.size() : columns_[0].size(); }

  const Column& column(size_t i) const { return columns_[i]; }
  Column& mutable_column(size_t i) { return columns_[i]; }
  Result<const Column*> ColumnByName(const std::string& name) const;

  bool has_serials() const { return !serials_.empty(); }
  const std::vector<int64_t>& serials() const { return serials_; }
  void set_serials(std::vector<int64_t> s) { serials_ = std::move(s); }

  /// Rows where sel[i] != 0; serials filtered alongside.
  Chunk Filter(const std::vector<uint8_t>& sel) const;
  Chunk Take(const std::vector<int64_t>& indices) const;
  /// Gather by a selection vector; serials gathered alongside.
  Chunk Gather(const std::vector<uint32_t>& indices) const;
  Chunk Slice(size_t offset, size_t length) const;
  /// Slice and Take narrowed to `columns` (positions, in the order given)
  /// under `schema`. Serials come along; the slice's sidecar keeps the
  /// views of the kept columns, in the same order.
  Chunk Slice(size_t offset, size_t length, const std::vector<int>& columns,
              SchemaPtr schema) const;
  Chunk Take(const std::vector<int64_t>& indices, const std::vector<int>& columns,
             SchemaPtr schema) const;

  /// Appends all rows of `other` (schemas must match).
  Status Append(const Chunk& other);

  /// Row `i` rendered as "v1 | v2 | ...".
  std::string RowToString(size_t i) const;

  /// Optional encoded sidecar: zero-copy views over the segment payloads
  /// this chunk was decoded from, row-aligned with the chunk. Slice()
  /// propagates it (adjusting the row offset); Filter/Take/Gather/Append
  /// produce chunks whose rows no longer line up with any payload, so those
  /// results carry no sidecar. Consumers treat it purely as an accelerator:
  /// dropping it is always correct.
  void set_encoded(std::shared_ptr<const EncodedChunk> encoded) {
    encoded_ = std::move(encoded);
  }
  const EncodedChunk* encoded() const { return encoded_.get(); }

 private:
  SchemaPtr schema_;
  std::vector<Column> columns_;
  std::vector<int64_t> serials_;
  std::shared_ptr<const EncodedChunk> encoded_;
};

}  // namespace gola

#endif  // GOLA_STORAGE_CHUNK_H_
