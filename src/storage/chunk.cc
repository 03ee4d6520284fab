#include "storage/chunk.h"

#include "common/logging.h"
#include "common/string_util.h"
#include "storage/segment/encoding.h"

namespace gola {

Chunk::Chunk(SchemaPtr schema, std::vector<Column> columns)
    : schema_(std::move(schema)), columns_(std::move(columns)) {
  GOLA_CHECK(schema_ == nullptr || schema_->num_fields() == columns_.size());
  for (size_t i = 1; i < columns_.size(); ++i) {
    GOLA_CHECK(columns_[i].size() == columns_[0].size());
  }
}

Result<const Column*> Chunk::ColumnByName(const std::string& name) const {
  GOLA_ASSIGN_OR_RETURN(int idx, schema_->FieldIndex(name));
  return &columns_[static_cast<size_t>(idx)];
}

Chunk Chunk::Filter(const std::vector<uint8_t>& sel) const {
  std::vector<Column> cols;
  cols.reserve(columns_.size());
  for (const auto& c : columns_) cols.push_back(c.Filter(sel));
  Chunk out(schema_, std::move(cols));
  if (!serials_.empty()) {
    std::vector<int64_t> s;
    for (size_t i = 0; i < serials_.size(); ++i) {
      if (sel[i]) s.push_back(serials_[i]);
    }
    out.serials_ = std::move(s);
  }
  return out;
}

Chunk Chunk::Take(const std::vector<int64_t>& indices) const {
  std::vector<Column> cols;
  cols.reserve(columns_.size());
  for (const auto& c : columns_) cols.push_back(c.Take(indices));
  Chunk out(schema_, std::move(cols));
  if (!serials_.empty()) {
    std::vector<int64_t> s;
    s.reserve(indices.size());
    for (int64_t idx : indices) s.push_back(serials_[static_cast<size_t>(idx)]);
    out.serials_ = std::move(s);
  }
  return out;
}

Chunk Chunk::Gather(const std::vector<uint32_t>& indices) const {
  std::vector<Column> cols;
  cols.reserve(columns_.size());
  for (const auto& c : columns_) cols.push_back(c.Gather(indices.data(), indices.size()));
  Chunk out(schema_, std::move(cols));
  if (!serials_.empty()) {
    std::vector<int64_t> s;
    s.reserve(indices.size());
    for (uint32_t idx : indices) s.push_back(serials_[idx]);
    out.serials_ = std::move(s);
  }
  return out;
}

Chunk Chunk::Slice(size_t offset, size_t length) const {
  std::vector<Column> cols;
  cols.reserve(columns_.size());
  for (const auto& c : columns_) cols.push_back(c.Slice(offset, length));
  Chunk out(schema_, std::move(cols));
  if (!serials_.empty()) {
    out.serials_.assign(serials_.begin() + offset, serials_.begin() + offset + length);
  }
  // A slice keeps row alignment with the backing payloads — shift the view
  // origin and keep the sidecar.
  if (encoded_ != nullptr) {
    auto e = std::make_shared<EncodedChunk>(*encoded_);
    e->row_offset += offset;
    out.encoded_ = std::move(e);
  }
  return out;
}

Chunk Chunk::Slice(size_t offset, size_t length, const std::vector<int>& columns,
                   SchemaPtr schema) const {
  std::vector<Column> cols;
  cols.reserve(columns.size());
  for (int c : columns) cols.push_back(columns_[static_cast<size_t>(c)].Slice(offset, length));
  Chunk out(std::move(schema), std::move(cols));
  if (!serials_.empty()) {
    out.serials_.assign(serials_.begin() + offset, serials_.begin() + offset + length);
  }
  if (encoded_ != nullptr) {
    auto e = std::make_shared<EncodedChunk>();
    e->owner = encoded_->owner;
    e->row_offset = encoded_->row_offset + offset;
    e->columns.reserve(columns.size());
    for (int c : columns) {
      const auto col = static_cast<size_t>(c);
      e->columns.push_back(col < encoded_->columns.size() ? encoded_->columns[col]
                                                          : std::nullopt);
    }
    out.encoded_ = std::move(e);
  }
  return out;
}

Chunk Chunk::Take(const std::vector<int64_t>& indices, const std::vector<int>& columns,
                  SchemaPtr schema) const {
  std::vector<Column> cols;
  cols.reserve(columns.size());
  for (int c : columns) cols.push_back(columns_[static_cast<size_t>(c)].Take(indices));
  Chunk out(std::move(schema), std::move(cols));
  if (!serials_.empty()) {
    out.serials_.reserve(indices.size());
    for (int64_t idx : indices) out.serials_.push_back(serials_[static_cast<size_t>(idx)]);
  }
  return out;
}

Status Chunk::Append(const Chunk& other) {
  if (columns_.empty()) {
    *this = other;
    return Status::OK();
  }
  if (columns_.size() != other.columns_.size()) {
    return Status::Internal("chunk append: column count mismatch");
  }
  encoded_.reset();  // appended rows break payload row alignment
  for (size_t i = 0; i < columns_.size(); ++i) {
    GOLA_RETURN_NOT_OK(columns_[i].AppendColumn(other.columns_[i]));
  }
  if (!other.serials_.empty()) {
    serials_.insert(serials_.end(), other.serials_.begin(), other.serials_.end());
  }
  return Status::OK();
}

std::string Chunk::RowToString(size_t i) const {
  std::vector<std::string> parts;
  parts.reserve(columns_.size());
  for (const auto& c : columns_) parts.push_back(c.GetValue(i).ToString());
  return Join(parts, " | ");
}

}  // namespace gola
