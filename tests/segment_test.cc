// Segment file format: lossless round trips for every type × null pattern ×
// value distribution (each distribution forces a different encoding), zone
// metadata, gather equivalence, and a corruption property — any truncation
// or bit flip must either fail loudly at open/read time or leave the data
// bit-identical to the original. Silent wrong answers are the only failure.
#include "storage/segment/segment.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

#include "common/random.h"
#include "common/string_util.h"
#include "storage/segment/encoding.h"

namespace gola {
namespace {

class SegmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/segment_test.gseg";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  static void ExpectTablesBitIdentical(const Table& a, const Table& b) {
    ASSERT_TRUE(a.schema()->Equals(*b.schema()));
    ASSERT_EQ(a.num_rows(), b.num_rows());
    for (int64_t r = 0; r < a.num_rows(); ++r) {
      for (size_t c = 0; c < a.schema()->num_fields(); ++c) {
        Value va = a.At(r, static_cast<int>(c));
        Value vb = b.At(r, static_cast<int>(c));
        if (va.is_null() || vb.is_null()) {
          ASSERT_TRUE(va.is_null() && vb.is_null())
              << "row " << r << " col " << c;
          continue;
        }
        if (a.schema()->field(c).type == TypeId::kFloat64) {
          // Bit-pattern comparison so NaN and -0.0 count as round-tripped.
          double da = *va.ToDouble();
          double db = *vb.ToDouble();
          ASSERT_EQ(std::memcmp(&da, &db, sizeof(double)), 0)
              << "row " << r << " col " << c << ": " << da << " vs " << db;
          continue;
        }
        ASSERT_TRUE(va == vb) << "row " << r << " col " << c;
      }
    }
  }

  void RoundTrip(const Table& original) {
    ASSERT_TRUE(WriteSegmentFile(original, path_).ok());
    auto loaded = OpenSegmentTable(path_);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_TRUE((*loaded)->streamed());
    EXPECT_EQ((*loaded)->num_rows(), original.num_rows());
    ExpectTablesBitIdentical(original, **loaded);
    // Chunk structure is part of the contract (bit-identical partitioning
    // depends on it).
    EXPECT_EQ((*loaded)->num_chunks(), original.num_chunks());
  }

  std::string path_;
};

// -------------------------------------------------- round-trip matrix --

enum class NullPattern { kNone, kSome, kAll };
enum class Distribution { kConstant, kSmallRange, kRandom };

struct MatrixCase {
  TypeId type;
  NullPattern nulls;
  Distribution dist;
};

std::string CaseName(const ::testing::TestParamInfo<MatrixCase>& info) {
  const MatrixCase& m = info.param;
  std::string s = TypeIdToString(m.type);
  s += m.nulls == NullPattern::kNone   ? "NoNulls"
       : m.nulls == NullPattern::kSome ? "SomeNulls"
                                       : "AllNulls";
  s += m.dist == Distribution::kConstant     ? "Constant"
       : m.dist == Distribution::kSmallRange ? "SmallRange"
                                             : "Random";
  return s;
}

Value MakeCell(const MatrixCase& m, Rng* rng, int64_t i) {
  switch (m.nulls) {
    case NullPattern::kAll: return Value::Null();
    case NullPattern::kSome:
      if (rng->Bernoulli(0.25)) return Value::Null();
      break;
    case NullPattern::kNone: break;
  }
  int64_t v = 0;
  switch (m.dist) {
    case Distribution::kConstant: v = 7; break;
    case Distribution::kSmallRange: v = static_cast<int64_t>(rng->NextBelow(20)); break;
    case Distribution::kRandom:
      v = static_cast<int64_t>(rng->NextBelow(1u << 30)) - (1 << 29);
      break;
  }
  switch (m.type) {
    case TypeId::kBool: return Value::Bool((v & 1) != 0);
    case TypeId::kInt64: return Value::Int(v * 1000003 % 900719);
    case TypeId::kFloat64: return Value::Float(static_cast<double>(v) * 1.25);
    case TypeId::kString:
      return Value::String(Format("s%lld", static_cast<long long>(v % 64)));
    default:
      break;
  }
  (void)i;
  return Value::Null();
}

class SegmentMatrixTest : public SegmentTest,
                          public ::testing::WithParamInterface<MatrixCase> {};

TEST_P(SegmentMatrixTest, RoundTrip) {
  const MatrixCase& m = GetParam();
  auto schema =
      std::make_shared<Schema>(std::vector<Field>{{"v", m.type}});
  TableBuilder builder(schema, /*chunk_size=*/177);  // multiple uneven chunks
  Rng rng(29);
  for (int64_t i = 0; i < 600; ++i) builder.AppendRow({MakeCell(m, &rng, i)});
  RoundTrip(builder.Finish());
}

std::vector<MatrixCase> AllMatrixCases() {
  std::vector<MatrixCase> cases;
  for (TypeId t : {TypeId::kBool, TypeId::kInt64, TypeId::kFloat64,
                   TypeId::kString}) {
    for (NullPattern n :
         {NullPattern::kNone, NullPattern::kSome, NullPattern::kAll}) {
      for (Distribution d : {Distribution::kConstant, Distribution::kSmallRange,
                             Distribution::kRandom}) {
        cases.push_back({t, n, d});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllTypes, SegmentMatrixTest,
                         ::testing::ValuesIn(AllMatrixCases()), CaseName);

// ------------------------------------------------------- corner cases --

TEST_F(SegmentTest, EmptyTable) {
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"x", TypeId::kFloat64}, {"s", TypeId::kString}});
  RoundTrip(Table(schema));
}

TEST_F(SegmentTest, SpecialFloatsRoundTripByBitPattern) {
  auto schema =
      std::make_shared<Schema>(std::vector<Field>{{"x", TypeId::kFloat64}});
  TableBuilder builder(schema, 8);
  for (double v : {0.0, -0.0, std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::max(), 1.0 / 3.0}) {
    builder.AppendRow({Value::Float(v)});
    builder.AppendRow({Value::Float(v)});  // pairs so RLE can trigger
  }
  RoundTrip(builder.Finish());
}

TEST_F(SegmentTest, Int64ExtremesRoundTrip) {
  auto schema =
      std::make_shared<Schema>(std::vector<Field>{{"x", TypeId::kInt64}});
  TableBuilder builder(schema, 16);
  for (int64_t v : {std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max(), int64_t{0},
                    int64_t{-1}, int64_t{1}}) {
    builder.AppendRow({Value::Int(v)});
  }
  RoundTrip(builder.Finish());
}

TEST_F(SegmentTest, MixedSchemaWideTable) {
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"flag", TypeId::kBool},
      {"id", TypeId::kInt64},
      {"score", TypeId::kFloat64},
      {"name", TypeId::kString},
  });
  TableBuilder builder(schema, 128);
  Rng rng(5);
  for (int64_t i = 0; i < 700; ++i) {
    Value score =
        rng.Bernoulli(0.2) ? Value::Null() : Value::Float(rng.Normal(0, 1));
    builder.AppendRow({Value::Bool(rng.Bernoulli(0.5)), Value::Int(i), score,
                       Value::String(Format("row-%lld", static_cast<long long>(
                                                            i % 40)))});
  }
  RoundTrip(builder.Finish());
}

TEST_F(SegmentTest, ZoneMetadataMatchesData) {
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"x", TypeId::kInt64}, {"s", TypeId::kString}});
  TableBuilder builder(schema, 100);
  for (int64_t i = 0; i < 250; ++i) {
    builder.AppendRow({Value::Int(i * 3 + 11),
                       Value::String(Format("k%03lld",
                                            static_cast<long long>(i % 7)))});
  }
  Table t = builder.Finish();
  ASSERT_TRUE(WriteSegmentFile(t, path_).ok());
  auto file = SegmentFile::Open(path_);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_EQ((*file)->num_chunks(), 3u);
  const auto& m0 = (*file)->meta(0, 0);
  ASSERT_TRUE(m0.has_minmax);
  EXPECT_EQ(*m0.min_v.ToDouble(), 11.0);
  EXPECT_EQ(*m0.max_v.ToDouble(), 11.0 + 3 * 99);
  const auto& s0 = (*file)->meta(0, 1);
  ASSERT_TRUE(s0.has_minmax);
  EXPECT_TRUE(s0.min_v == Value::String("k000"));
  EXPECT_TRUE(s0.max_v == Value::String("k006"));

  SegmentSource source(std::shared_ptr<const SegmentFile>(std::move(*file)));
  auto zone = source.zone(1, 0);
  ASSERT_TRUE(zone.has_value());
  EXPECT_EQ(zone->null_count, 0);
  EXPECT_TRUE(zone->has_minmax);
}

TEST_F(SegmentTest, GatherRowsMatchesDecodeThenTake) {
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"id", TypeId::kInt64}, {"name", TypeId::kString}});
  TableBuilder builder(schema, 200);
  Rng rng(31);
  for (int64_t i = 0; i < 500; ++i) {
    builder.AppendRow(
        {rng.Bernoulli(0.1) ? Value::Null() : Value::Int(i % 37),
         Value::String(Format("g%lld", static_cast<long long>(i % 13)))});
  }
  ASSERT_TRUE(WriteSegmentFile(builder.Finish(), path_).ok());
  auto file = SegmentFile::Open(path_);
  ASSERT_TRUE(file.ok());
  SegmentSource source(std::shared_ptr<const SegmentFile>(std::move(*file)));

  Rng pick(77);
  std::vector<int64_t> rows;
  for (int i = 0; i < 120; ++i) {
    rows.push_back(static_cast<int64_t>(pick.NextBelow(200)));
  }
  auto gathered = source.GatherRows(0, rows, {0, 1});
  ASSERT_TRUE(gathered.ok()) << gathered.status().ToString();
  auto full = source.ReadChunk(0);
  ASSERT_TRUE(full.ok());
  for (size_t c = 0; c < 2; ++c) {
    for (size_t i = 0; i < rows.size(); ++i) {
      Value want = full->column(c).GetValue(static_cast<size_t>(rows[i]));
      Value got = gathered->column(c).GetValue(i);
      ASSERT_TRUE(want == got || (want.is_null() && got.is_null()))
          << "col " << c << " pick " << i;
    }
  }
}

TEST_F(SegmentTest, DecodedChunksCarryEncodedSidecars) {
  auto schema =
      std::make_shared<Schema>(std::vector<Field>{{"x", TypeId::kInt64}});
  TableBuilder builder(schema, 64);
  for (int64_t i = 0; i < 100; ++i) builder.AppendRow({Value::Int(i)});
  ASSERT_TRUE(WriteSegmentFile(builder.Finish(), path_).ok());
  auto table = OpenSegmentTable(path_);
  ASSERT_TRUE(table.ok());
  auto chunk = (*table)->source()->ReadChunk(0);
  ASSERT_TRUE(chunk.ok());
  const EncodedChunk* enc = chunk->encoded();
  ASSERT_NE(enc, nullptr);
  ASSERT_EQ(enc->columns.size(), 1u);
  ASSERT_TRUE(enc->columns[0].has_value());
  EXPECT_EQ(enc->columns[0]->rows, 64u);
  // Slice keeps the sidecar (adjusting the row offset); Filter drops it.
  Chunk sliced = chunk->Slice(10, 20);
  ASSERT_NE(sliced.encoded(), nullptr);
  EXPECT_EQ(sliced.encoded()->row_offset, 10u);
}

// ------------------------------------------------ corruption property --

Table CorruptionReferenceTable() {
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"id", TypeId::kInt64},
      {"score", TypeId::kFloat64},
      {"name", TypeId::kString},
  });
  TableBuilder builder(schema, 96);
  Rng rng(13);
  for (int64_t i = 0; i < 300; ++i) {
    builder.AppendRow(
        {Value::Int(i), rng.Bernoulli(0.15) ? Value::Null()
                                            : Value::Float(rng.Normal(0, 10)),
         Value::String(Format("n%lld", static_cast<long long>(i % 11)))});
  }
  return builder.Finish();
}

/// Opens `path` and reads every chunk; returns false if any step errors.
/// When it returns true, `*out` holds the fully decoded table.
bool TryReadAll(const std::string& path, Table* out) {
  auto table = OpenSegmentTable(path);
  if (!table.ok()) return false;
  const auto& source = (*table)->source();
  Table decoded((*table)->schema());
  for (size_t c = 0; c < source->num_chunks(); ++c) {
    auto chunk = source->ReadChunk(c);
    if (!chunk.ok()) return false;
    decoded.AppendChunk(std::move(*chunk));
  }
  *out = std::move(decoded);
  return true;
}

class SegmentCorruptionTest : public SegmentTest {
 protected:
  void WriteReference() {
    reference_ = CorruptionReferenceTable();
    ASSERT_TRUE(WriteSegmentFile(reference_, path_).ok());
    std::ifstream in(path_, std::ios::binary);
    bytes_.assign((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
    ASSERT_GT(bytes_.size(), 64u);
  }

  void Rewrite(const std::string& contents) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  }

  /// The property: a tampered file must fail at open/read, or decode to the
  /// exact original table. Returns the number of tampered variants that
  /// still opened successfully (all of which were verified identical).
  int ExpectFailOrIdentical(const std::string& tampered) {
    Rewrite(tampered);
    Table decoded;
    if (!TryReadAll(path_, &decoded)) return 0;
    ExpectTablesBitIdentical(reference_, decoded);
    return 1;
  }

  Table reference_;
  std::string bytes_;
};

TEST_F(SegmentCorruptionTest, TruncationAtEveryHeaderBoundaryFails) {
  WriteReference();
  // Every prefix of the 64-byte header, plus cuts inside the payload area
  // and inside the directory.
  std::vector<size_t> cuts;
  for (size_t i = 0; i <= 64; ++i) cuts.push_back(i);
  for (size_t frac = 1; frac < 8; ++frac) {
    cuts.push_back(64 + (bytes_.size() - 64) * frac / 8);
  }
  cuts.push_back(bytes_.size() - 1);
  for (size_t cut : cuts) {
    SCOPED_TRACE("truncate to " + std::to_string(cut));
    Rewrite(bytes_.substr(0, cut));
    Table decoded;
    EXPECT_FALSE(TryReadAll(path_, &decoded))
        << "truncated file must not open cleanly";
  }
}

TEST_F(SegmentCorruptionTest, BitFlipsNeverYieldSilentWrongData) {
  WriteReference();
  // Flip a byte at positions swept across the whole file: header, payloads,
  // directory, trailing checksum. Every variant must fail or read back
  // identical (a flip in mmap padding can legitimately go unnoticed).
  int opened = 0;
  for (size_t pos = 0; pos < bytes_.size();
       pos += std::max<size_t>(1, bytes_.size() / 200)) {
    SCOPED_TRACE("flip byte " + std::to_string(pos));
    std::string tampered = bytes_;
    tampered[pos] = static_cast<char>(tampered[pos] ^ 0xA5);
    opened += ExpectFailOrIdentical(tampered);
  }
  // The sweep must actually have rejected most variants.
  EXPECT_LT(opened, 25);
}

TEST_F(SegmentCorruptionTest, AppendedGarbageDetected) {
  WriteReference();
  ExpectFailOrIdentical(bytes_ + std::string(100, '\x42'));
}

TEST_F(SegmentCorruptionTest, MissingFileErrors) {
  EXPECT_FALSE(SegmentFile::Open("/no/such/file.gseg").ok());
  EXPECT_FALSE(OpenSegmentTable("/no/such/file.gseg").ok());
}

TEST_F(SegmentCorruptionTest, WrongMagicRejected) {
  WriteReference();
  std::string tampered = bytes_;
  tampered.replace(0, 8, "NOTASEG!");
  Rewrite(tampered);
  EXPECT_FALSE(SegmentFile::Open(path_).ok());
}

}  // namespace
}  // namespace gola
