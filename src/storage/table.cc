#include "storage/table.h"

#include <sstream>

#include "common/logging.h"
#include "storage/column_source.h"

namespace gola {

Table::Table(SchemaPtr schema, std::vector<Chunk> chunks)
    : schema_(std::move(schema)),
      chunks_(std::make_shared<std::vector<Chunk>>(std::move(chunks))) {}

Table Table::FromSource(std::shared_ptr<const ColumnSource> source) {
  GOLA_CHECK(source != nullptr);
  Table t(source->schema());
  t.source_ = std::move(source);
  t.lazy_ = std::make_shared<LazyChunks>();
  return t;
}

const std::vector<Chunk>& Table::MaterializedChunks() const {
  std::call_once(lazy_->once, [this] {
    auto* cache = const_cast<LazyChunks*>(lazy_.get());
    cache->chunks.reserve(source_->num_chunks());
    for (size_t c = 0; c < source_->num_chunks(); ++c) {
      auto chunk = source_->ReadChunk(c);
      GOLA_CHECK(chunk.ok()) << "decoding streamed table chunk: "
                             << chunk.status().ToString();
      cache->chunks.push_back(std::move(*chunk));
    }
  });
  return lazy_->chunks;
}

size_t Table::num_chunks() const {
  if (source_ != nullptr) return source_->num_chunks();
  return chunks().size();
}

const Chunk& Table::chunk(size_t i) const { return chunks()[i]; }

const std::vector<Chunk>& Table::chunks() const {
  static const std::vector<Chunk> kNone;
  if (source_ != nullptr) return MaterializedChunks();
  return chunks_ != nullptr ? *chunks_ : kNone;
}

int64_t Table::num_rows() const {
  if (source_ != nullptr) return source_->num_rows();
  int64_t n = 0;
  for (const auto& c : chunks()) n += static_cast<int64_t>(c.num_rows());
  return n;
}

int64_t Table::chunk_rows(size_t c) const {
  if (source_ != nullptr) return source_->chunk_rows(c);
  return static_cast<int64_t>(chunk(c).num_rows());
}

Result<Chunk> Table::GatherRows(size_t c, const std::vector<int64_t>& rows,
                                const std::vector<int>& columns) const {
  if (source_ != nullptr) return source_->GatherRows(c, rows, columns);
  return chunk(c).Take(rows, columns, ProjectSchema(schema_, columns));
}

void Table::AppendChunk(Chunk chunk) {
  GOLA_CHECK(source_ == nullptr) << "cannot append to a streamed table";
  if (schema_ == nullptr) schema_ = chunk.schema();
  if (chunks_ == nullptr) {
    chunks_ = std::make_shared<std::vector<Chunk>>();
  } else if (chunks_.use_count() > 1) {
    chunks_ = std::make_shared<std::vector<Chunk>>(*chunks_);
  }
  chunks_->push_back(std::move(chunk));
}

Chunk Table::Combined() const {
  Chunk out;
  for (const auto& c : chunks()) {
    GOLA_CHECK_OK(out.Append(c));
  }
  if (out.schema() == nullptr && schema_ != nullptr) {
    out = Chunk(schema_, {});
  }
  return out;
}

Table Table::Rechunk(int64_t rows_per_chunk) const {
  GOLA_CHECK(rows_per_chunk > 0);
  Chunk all = Combined();
  Table out(schema_);
  int64_t n = static_cast<int64_t>(all.num_rows());
  for (int64_t off = 0; off < n; off += rows_per_chunk) {
    int64_t len = std::min(rows_per_chunk, n - off);
    out.AppendChunk(all.Slice(static_cast<size_t>(off), static_cast<size_t>(len)));
  }
  return out;
}

Value Table::At(int64_t row, int col) const {
  for (const auto& c : chunks()) {
    int64_t n = static_cast<int64_t>(c.num_rows());
    if (row < n) return c.column(static_cast<size_t>(col)).GetValue(static_cast<size_t>(row));
    row -= n;
  }
  GOLA_LOG(Fatal) << "row index out of range";
  return Value::Null();
}

std::string Table::ToString(int64_t limit) const {
  std::ostringstream out;
  if (schema_) {
    for (size_t i = 0; i < schema_->num_fields(); ++i) {
      if (i > 0) out << " | ";
      out << schema_->field(i).name;
    }
    out << "\n";
  }
  int64_t printed = 0;
  for (const auto& c : chunks()) {
    for (size_t i = 0; i < c.num_rows() && printed < limit; ++i, ++printed) {
      out << c.RowToString(i) << "\n";
    }
    if (printed >= limit) break;
  }
  int64_t total = num_rows();
  if (total > limit) out << "... (" << total << " rows total)\n";
  return out.str();
}

TableBuilder::TableBuilder(SchemaPtr schema, int64_t chunk_size)
    : schema_(std::move(schema)), chunk_size_(chunk_size) {
  columns_.reserve(schema_->num_fields());
  for (const auto& f : schema_->fields()) columns_.emplace_back(f.type);
}

void TableBuilder::AppendRow(const std::vector<Value>& values) {
  GOLA_CHECK(values.size() == columns_.size());
  for (size_t i = 0; i < values.size(); ++i) columns_[i].Append(values[i]);
  CommitRow();
}

void TableBuilder::CommitRow() {
  if (static_cast<int64_t>(columns_[0].size()) >= chunk_size_) FlushChunk();
}

void TableBuilder::FlushChunk() {
  if (columns_[0].size() == 0) return;
  chunks_.emplace_back(schema_, std::move(columns_));
  columns_.clear();
  for (const auto& f : schema_->fields()) columns_.emplace_back(f.type);
}

Table TableBuilder::Finish() {
  FlushChunk();
  return Table(schema_, std::move(chunks_));
}

}  // namespace gola
