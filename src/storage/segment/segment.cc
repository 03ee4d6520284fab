#include "storage/segment/segment.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "storage/serde.h"

namespace gola {

namespace {

constexpr char kMagic[8] = {'G', 'O', 'L', 'A', 'S', 'E', 'G', '1'};
constexpr uint32_t kVersion = 1;
constexpr uint64_t kHeaderSize = 64;  // 56 header bytes padded for alignment
constexpr uint32_t kMaxFields = 1u << 16;
constexpr uint32_t kMaxChunks = 1u << 24;

uint64_t Pad8(uint64_t n) { return (n + 7) & ~uint64_t{7}; }

struct SegmentObs {
  obs::Counter* bytes_read;
  obs::Counter* chunks_decoded;
  obs::Counter* rows_gathered;
  obs::Counter* chunks_pruned;
};

SegmentObs& Obs() {
  static SegmentObs o = [] {
    auto& reg = obs::MetricsRegistry::Global();
    SegmentObs s;
    s.bytes_read = reg.GetCounter("gola_segment_bytes_read_total");
    s.chunks_decoded = reg.GetCounter("gola_segment_chunks_decoded_total");
    s.rows_gathered = reg.GetCounter("gola_segment_rows_gathered_total");
    s.chunks_pruned = reg.GetCounter("gola_segment_chunks_pruned_total");
    return s;
  }();
  return o;
}

uint64_t FnvOf(const void* data, size_t n) {
  Fnv1a f;
  f.Update(data, n);
  return f.value();
}

template <typename T>
void PutPod(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T GetPod(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

}  // namespace

Status WriteSegmentFile(const Table& table, const std::string& path) {
  if (table.schema() == nullptr || table.schema()->num_fields() == 0) {
    return Status::InvalidArgument("cannot write segment for schema-less table");
  }
  const Schema& schema = *table.schema();
  std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out.good()) return Status::IoError("cannot open " + tmp + " for write");

  // Placeholder header; rewritten with real offsets + checksum at the end.
  std::string zeros(kHeaderSize, '\0');
  out.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));

  struct ColEntry {
    Encoding encoding;
    uint64_t offset;
    uint64_t size;
    uint64_t null_count;
    bool has_minmax;
    Value min_v, max_v;
    uint64_t checksum;
  };
  std::vector<uint64_t> chunk_rows;
  std::vector<std::vector<ColEntry>> entries;
  uint64_t cur = kHeaderSize;
  uint64_t total_rows = 0;
  for (const Chunk& chunk : table.chunks()) {
    chunk_rows.push_back(chunk.num_rows());
    total_rows += chunk.num_rows();
    std::vector<ColEntry> cols;
    cols.reserve(schema.num_fields());
    for (size_t i = 0; i < schema.num_fields(); ++i) {
      EncodedColumn enc = EncodeColumn(chunk.column(i));
      uint64_t aligned = Pad8(cur);
      if (aligned > cur) {
        out.write(zeros.data(), static_cast<std::streamsize>(aligned - cur));
        cur = aligned;
      }
      out.write(enc.payload.data(),
                static_cast<std::streamsize>(enc.payload.size()));
      cols.push_back({enc.encoding, cur, enc.payload.size(), enc.null_count,
                      enc.has_minmax, enc.min_v, enc.max_v,
                      FnvOf(enc.payload.data(), enc.payload.size())});
      cur += enc.payload.size();
    }
    entries.push_back(std::move(cols));
  }

  uint64_t dir_offset = Pad8(cur);
  if (dir_offset > cur) {
    out.write(zeros.data(), static_cast<std::streamsize>(dir_offset - cur));
  }
  {
    BinaryWriter w(&out);
    for (size_t i = 0; i < schema.num_fields(); ++i) {
      w.Str(schema.field(i).name);
      w.U8(static_cast<uint8_t>(schema.field(i).type));
    }
    for (size_t c = 0; c < entries.size(); ++c) {
      w.U64(chunk_rows[c]);
      for (const ColEntry& e : entries[c]) {
        w.U8(static_cast<uint8_t>(e.encoding));
        w.U64(e.offset);
        w.U64(e.size);
        w.U64(e.null_count);
        w.U8(e.has_minmax ? 1 : 0);
        if (e.has_minmax) {
          WriteValue(&w, e.min_v);
          WriteValue(&w, e.max_v);
        }
        w.U64(e.checksum);
      }
    }
    uint64_t dir_checksum = w.checksum();
    w.U64(dir_checksum);
  }
  uint64_t dir_end = static_cast<uint64_t>(out.tellp());
  uint64_t dir_size = dir_end - dir_offset;

  // Header: the 40 bytes after the magic are checksummed.
  std::string header;
  header.reserve(kHeaderSize);
  header.append(kMagic, sizeof(kMagic));
  std::string fields;
  PutPod<uint32_t>(&fields, kVersion);
  PutPod<uint32_t>(&fields, 0);  // reserved
  PutPod<uint64_t>(&fields, total_rows);
  PutPod<uint32_t>(&fields, static_cast<uint32_t>(schema.num_fields()));
  PutPod<uint32_t>(&fields, static_cast<uint32_t>(entries.size()));
  PutPod<uint64_t>(&fields, dir_offset);
  PutPod<uint64_t>(&fields, dir_size);
  header += fields;
  PutPod<uint64_t>(&header, FnvOf(fields.data(), fields.size()));
  header.resize(kHeaderSize, '\0');
  out.seekp(0);
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.flush();
  if (!out.good()) {
    std::remove(tmp.c_str());
    return Status::IoError("write failed for " + tmp);
  }
  out.close();
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("rename failed for " + path);
  }
  return Status::OK();
}

SegmentFile::~SegmentFile() {
  if (base_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(base_), static_cast<size_t>(size_));
  }
  if (fd_ >= 0) ::close(fd_);
}

Result<std::shared_ptr<SegmentFile>> SegmentFile::Open(const std::string& path) {
  std::shared_ptr<SegmentFile> f(new SegmentFile());
  f->path_ = path;
  f->fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (f->fd_ < 0) return Status::IoError("cannot open segment " + path);
  struct stat st;
  if (::fstat(f->fd_, &st) != 0) {
    return Status::IoError("cannot stat segment " + path);
  }
  f->size_ = static_cast<uint64_t>(st.st_size);
  if (f->size_ < kHeaderSize) {
    return Status::IoError("segment truncated (no header): " + path);
  }
  void* map = ::mmap(nullptr, static_cast<size_t>(f->size_), PROT_READ,
                     MAP_PRIVATE, f->fd_, 0);
  if (map == MAP_FAILED) return Status::IoError("mmap failed for " + path);
  f->base_ = static_cast<const uint8_t*>(map);

  if (std::memcmp(f->base_, kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError("bad segment magic in " + path);
  }
  const uint8_t* h = f->base_ + 8;
  uint32_t version = GetPod<uint32_t>(h);
  f->total_rows_ = GetPod<uint64_t>(h + 8);
  uint32_t num_fields = GetPod<uint32_t>(h + 16);
  uint32_t num_chunks = GetPod<uint32_t>(h + 20);
  uint64_t dir_offset = GetPod<uint64_t>(h + 24);
  uint64_t dir_size = GetPod<uint64_t>(h + 32);
  uint64_t header_checksum = GetPod<uint64_t>(h + 40);
  if (FnvOf(h, 40) != header_checksum) {
    return Status::IoError("segment header checksum mismatch in " + path);
  }
  if (version != kVersion) {
    return Status::IoError(Format("unsupported segment version %u in %s",
                                  version, path.c_str()));
  }
  if (num_fields == 0 || num_fields > kMaxFields || num_chunks > kMaxChunks) {
    return Status::IoError("implausible segment shape in " + path);
  }
  if (dir_offset < kHeaderSize || dir_size < 8 || dir_offset > f->size_ ||
      dir_size > f->size_ - dir_offset) {
    return Status::IoError("segment directory out of bounds in " + path);
  }
  f->payload_end_ = dir_offset;

  std::string dir(reinterpret_cast<const char*>(f->base_ + dir_offset),
                  static_cast<size_t>(dir_size));
  std::istringstream in(dir, std::ios::binary);
  BinaryReader r(&in);
  std::vector<Field> fields;
  fields.reserve(num_fields);
  for (uint32_t i = 0; i < num_fields; ++i) {
    GOLA_ASSIGN_OR_RETURN(std::string name, r.Str());
    GOLA_ASSIGN_OR_RETURN(uint8_t type, r.U8());
    if (type > static_cast<uint8_t>(TypeId::kString) ||
        type == static_cast<uint8_t>(TypeId::kNull)) {
      return Status::IoError("bad segment field type in " + path);
    }
    fields.push_back({std::move(name), static_cast<TypeId>(type)});
  }
  f->schema_ = std::make_shared<Schema>(std::move(fields));

  uint64_t rows_seen = 0;
  f->chunk_rows_.reserve(num_chunks);
  f->meta_.reserve(num_chunks);
  for (uint32_t c = 0; c < num_chunks; ++c) {
    GOLA_ASSIGN_OR_RETURN(uint64_t rows, r.U64());
    f->chunk_rows_.push_back(rows);
    rows_seen += rows;
    std::vector<ColumnMeta> cols;
    cols.reserve(num_fields);
    for (uint32_t i = 0; i < num_fields; ++i) {
      ColumnMeta m;
      GOLA_ASSIGN_OR_RETURN(uint8_t enc, r.U8());
      if (enc > static_cast<uint8_t>(Encoding::kForBitpack)) {
        return Status::IoError("bad segment encoding tag in " + path);
      }
      m.encoding = static_cast<Encoding>(enc);
      GOLA_ASSIGN_OR_RETURN(m.offset, r.U64());
      GOLA_ASSIGN_OR_RETURN(m.size, r.U64());
      GOLA_ASSIGN_OR_RETURN(m.null_count, r.U64());
      if (m.offset % 8 != 0 || m.offset < kHeaderSize ||
          m.offset > f->payload_end_ || m.size > f->payload_end_ - m.offset ||
          m.null_count > rows) {
        return Status::IoError("segment payload extent out of bounds in " + path);
      }
      GOLA_ASSIGN_OR_RETURN(uint8_t has_minmax, r.U8());
      m.has_minmax = has_minmax != 0;
      if (m.has_minmax) {
        GOLA_ASSIGN_OR_RETURN(m.min_v, ReadValue(&r));
        GOLA_ASSIGN_OR_RETURN(m.max_v, ReadValue(&r));
      }
      GOLA_ASSIGN_OR_RETURN(m.checksum, r.U64());
      cols.push_back(std::move(m));
    }
    f->meta_.push_back(std::move(cols));
  }
  uint64_t computed = r.checksum();
  GOLA_ASSIGN_OR_RETURN(uint64_t expected, r.U64());
  if (computed != expected) {
    return Status::IoError("segment directory checksum mismatch in " + path);
  }
  if (rows_seen != f->total_rows_) {
    return Status::IoError("segment row counts disagree with header in " + path);
  }
  f->verified_ = std::make_unique<std::atomic<uint8_t>[]>(
      static_cast<size_t>(num_chunks) * num_fields);
  for (size_t i = 0; i < static_cast<size_t>(num_chunks) * num_fields; ++i) {
    f->verified_[i].store(0, std::memory_order_relaxed);
  }
  return f;
}

Result<EncodedColumnView> SegmentFile::View(size_t c, size_t col) const {
  const ColumnMeta& m = meta_[c][col];
  std::atomic<uint8_t>& flag = verified_[c * schema_->num_fields() + col];
  if (flag.load(std::memory_order_acquire) == 0) {
    if (FnvOf(base_ + m.offset, static_cast<size_t>(m.size)) != m.checksum) {
      return Status::IoError(
          Format("segment payload checksum mismatch (chunk %zu col %zu) in %s",
                 c, col, path_.c_str()));
    }
    flag.store(1, std::memory_order_release);
  }
  GOLA_ASSIGN_OR_RETURN(
      EncodedColumnView view,
      MapEncodedColumn(m.encoding, schema_->field(col).type, chunk_rows_[c],
                       m.null_count, base_ + m.offset,
                       static_cast<size_t>(m.size)));
  view.has_minmax = m.has_minmax;
  view.min_v = m.min_v;
  view.max_v = m.max_v;
  return view;
}

void SegmentFile::Advise(size_t c, bool willneed) const {
  uint64_t lo = payload_end_, hi = 0;
  for (const ColumnMeta& m : meta_[c]) {
    lo = std::min(lo, m.offset);
    hi = std::max(hi, m.offset + m.size);
  }
  if (hi <= lo) return;
  uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  uint64_t start = lo / page * page;
  ::madvise(const_cast<uint8_t*>(base_ + start),
            static_cast<size_t>(hi - start),
            willneed ? MADV_WILLNEED : MADV_DONTNEED);
}

SegmentSource::SegmentSource(std::shared_ptr<const SegmentFile> file)
    : file_(std::move(file)) {}

Result<Chunk> SegmentSource::ReadChunk(size_t c, const std::vector<int>& columns) const {
  auto sidecar = std::make_shared<EncodedChunk>();
  sidecar->owner = file_;
  sidecar->columns.resize(columns.size());
  std::vector<Column> cols;
  cols.reserve(columns.size());
  uint64_t bytes = 0;
  for (size_t k = 0; k < columns.size(); ++k) {
    const auto i = static_cast<size_t>(columns[k]);
    GOLA_ASSIGN_OR_RETURN(EncodedColumnView view, file_->View(c, i));
    GOLA_ASSIGN_OR_RETURN(Column col, DecodeColumn(view));
    cols.push_back(std::move(col));
    sidecar->columns[k] = view;
    bytes += file_->meta(c, i).size;
  }
  if (obs::MetricsEnabled()) {
    Obs().bytes_read->Add(static_cast<int64_t>(bytes));
    Obs().chunks_decoded->Increment();
  }
  Chunk out(ProjectSchema(file_->schema(), columns), std::move(cols));
  out.set_encoded(std::move(sidecar));
  return out;
}

Result<Chunk> SegmentSource::GatherRows(size_t c, const std::vector<int64_t>& rows,
                                        const std::vector<int>& columns) const {
  std::vector<Column> cols;
  cols.reserve(columns.size());
  uint64_t bytes = 0;
  int64_t chunk_n = file_->chunk_rows(c);
  for (int index : columns) {
    const auto i = static_cast<size_t>(index);
    GOLA_ASSIGN_OR_RETURN(EncodedColumnView view, file_->View(c, i));
    GOLA_ASSIGN_OR_RETURN(Column col, GatherDecoded(view, rows));
    cols.push_back(std::move(col));
    if (chunk_n > 0) {
      bytes += file_->meta(c, i).size * rows.size() / static_cast<size_t>(chunk_n);
    }
  }
  if (obs::MetricsEnabled()) {
    Obs().bytes_read->Add(static_cast<int64_t>(bytes));
    Obs().rows_gathered->Add(static_cast<int64_t>(rows.size()));
  }
  return Chunk(ProjectSchema(file_->schema(), columns), std::move(cols));
}

std::optional<ColumnZone> SegmentSource::zone(size_t c, size_t col) const {
  const SegmentFile::ColumnMeta& m = file_->meta(c, col);
  ColumnZone z;
  z.null_count = m.null_count;
  z.has_minmax = m.has_minmax;
  z.min_v = m.min_v;
  z.max_v = m.max_v;
  return z;
}

void MarkSegmentChunkPruned() {
  if (obs::MetricsEnabled()) Obs().chunks_pruned->Increment();
}

Result<TablePtr> OpenSegmentTable(const std::string& path) {
  GOLA_ASSIGN_OR_RETURN(std::shared_ptr<SegmentFile> file,
                        SegmentFile::Open(path));
  auto source = std::make_shared<SegmentSource>(std::move(file));
  return TablePtr(
      std::make_shared<const Table>(Table::FromSource(std::move(source))));
}

}  // namespace gola
