// Segment-format benchmarks: encoded-execution fast paths vs the
// decode-then-vectorized reference on the same data, segment load/decode
// throughput, and peak residency. The `vec` argument mirrors the rest of
// the bench suite: 1 = operate directly on the encoded sidecar, 0 = the
// decoded vectorized path. tools/check_perf.py pairs the two and CI fails
// when the encoded RLE-fold / dictionary-predicate paths drop below their
// 1.5x floor (see .github/workflows/ci.yml).
//
// Emits BENCH_segments.json unless --benchmark_out is passed explicitly.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>

#include "bench_util.h"
#include "exec/group_arena.h"
#include "exec/segment_scan.h"
#include "expr/evaluator.h"
#include "storage/segment/segment.h"

namespace gola {
namespace {

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

int64_t ReadVmHWMKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoll(line.c_str() + 6, nullptr, 10);
    }
  }
  return -1;
}

/// Low-cardinality string dimension + runny int measure + float measures:
/// the geo/quantity shape the encoded fast paths target.
Table MakeSegmentTable(int64_t rows, int64_t chunk_size) {
  Rng rng(19);
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"geo", TypeId::kString},
      {"qty", TypeId::kInt64},
      {"x", TypeId::kFloat64},
  });
  static const char* kGeos[] = {"US", "DE", "JP", "BR", "IN", "FR", "GB", "CA"};
  TableBuilder builder(schema, chunk_size);
  for (int64_t i = 0; i < rows; ++i) {
    builder.AppendRow({Value::String(kGeos[rng.NextBelow(8)]),
                       Value::Int((i / 113) % 97),
                       Value::Float(rng.Exponential(10))});
  }
  return builder.Finish();
}

/// One chunk of `rows` rows read back through a segment file so it carries
/// its encoded sidecar, plus the same chunk with the sidecar stripped.
struct ChunkPair {
  std::shared_ptr<const Table> table;  // keeps the mmap alive
  Chunk encoded;
  Chunk decoded;

  static ChunkPair Make(int64_t rows) {
    std::string path = TempPath("bench_segments_chunk.gseg");
    GOLA_CHECK_OK(WriteSegmentFile(MakeSegmentTable(rows, rows), path));
    auto table = OpenSegmentTable(path);
    GOLA_CHECK_OK(table.status());
    ChunkPair p;
    p.table = *table;
    auto chunk = p.table->source()->ReadChunk(0);
    GOLA_CHECK_OK(chunk.status());
    p.encoded = *chunk;
    GOLA_CHECK(p.encoded.encoded() != nullptr);
    // Append() is documented to drop the sidecar: that is the exact
    // decoded-path input.
    Chunk stripped = p.encoded.Slice(0, 0);
    GOLA_CHECK_OK(stripped.Append(p.encoded));
    GOLA_CHECK(stripped.encoded() == nullptr);
    p.decoded = std::move(stripped);
    std::remove(path.c_str());
    return p;
  }
};

/// Single-group SUM/COUNT/AVG over the runny int column: the encoded path
/// folds whole RLE runs in O(runs); the reference widens and accumulates
/// all rows.
void BM_SegmentRleFold(benchmark::State& state) {
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("t", MakeSegmentTable(128, 128)));
  auto query =
      engine.Compile("SELECT SUM(qty), COUNT(*), AVG(qty) FROM t");
  GOLA_CHECK_OK(query.status());
  const BlockDef& block = query->root();

  ChunkPair chunks = ChunkPair::Make(state.range(0));
  const bool vec = state.range(1) != 0;
  // The block reads qty alone: hand it its scan layout, as a morsel gets it.
  const Chunk& full = vec ? chunks.encoded : chunks.decoded;
  const Chunk input =
      full.Slice(0, full.num_rows(), block.scan_columns, block.ScanSchema());
  for (auto _ : state) {
    GroupAggregate agg(&block, /*weights=*/nullptr);
    GroupArena tile;
    GOLA_CHECK_OK(agg.FoldTileOf(input, nullptr, &tile));
    agg.MergeTile(tile);
    benchmark::DoNotOptimize(agg.num_groups());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SegmentRleFold)
    ->ArgsProduct({{1 << 16}, {0, 1}})
    ->ArgNames({"rows", "vec"})
    ->Repetitions(3);

/// geo = 'US' through EvaluatePredicateInto: dictionary truth table +
/// code lookups vs per-row string compares on the decoded column.
void BM_SegmentDictPredicate(benchmark::State& state) {
  ChunkPair chunks = ChunkPair::Make(state.range(0));
  ExprPtr col = Expr::Col("geo");
  col->column_index = 0;
  col->type = TypeId::kString;
  ExprPtr pred =
      Expr::Cmp(CmpOp::kEq, std::move(col), Expr::Lit(Value::String("US")));
  pred->type = TypeId::kBool;

  const bool vec = state.range(1) != 0;
  const Chunk& input = vec ? chunks.encoded : chunks.decoded;
  const size_t n = input.num_rows();
  for (auto _ : state) {
    SelectionVector sel(n);
    std::iota(sel.begin(), sel.end(), 0u);
    GOLA_CHECK_OK(EvaluatePredicateInto(*pred, input, nullptr, &sel));
    benchmark::DoNotOptimize(sel);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SegmentDictPredicate)
    ->ArgsProduct({{1 << 16}, {0, 1}})
    ->ArgNames({"rows", "vec"})
    ->Repetitions(3);

/// Selective scan over a many-chunk segment: vec:1 prunes whole chunks via
/// zone maps before decoding, vec:0 decodes everything. Informational (the
/// ratio tracks predicate selectivity, not kernel quality).
void BM_SegmentZonePrunedScan(benchmark::State& state) {
  std::string path = TempPath("bench_segments_scan.gseg");
  // qty cycles within each 113-run block, but session-style monotone ids
  // prune best; reuse qty's chunk-local zones by predicating on a narrow
  // range so most chunks miss.
  GOLA_CHECK_OK(WriteSegmentFile(MakeSegmentTable(1 << 17, 1 << 12), path));
  auto table = OpenSegmentTable(path);
  GOLA_CHECK_OK(table.status());

  ExprPtr col = Expr::Col("x");
  col->column_index = 2;
  col->type = TypeId::kFloat64;
  ExprPtr pred =
      Expr::Cmp(CmpOp::kGt, std::move(col), Expr::Lit(Value::Float(200.0)));
  pred->type = TypeId::kBool;
  std::vector<ExprPtr> preds;
  preds.push_back(std::move(pred));
  const std::vector<ExprPtr> no_preds;
  // Every column, so the predicate's position is the table's.
  const std::vector<int> columns = AllColumns(*(*table)->schema());

  const bool vec = state.range(0) != 0;
  for (auto _ : state) {
    auto scanned = ScanStreamedTable(**table, vec ? preds : no_preds, columns);
    GOLA_CHECK_OK(scanned.status());
    benchmark::DoNotOptimize(scanned->chunks);
  }
  state.SetItemsProcessed(state.iterations() * (1 << 17));
  std::remove(path.c_str());
}
BENCHMARK(BM_SegmentZonePrunedScan)->ArgsProduct({{0, 1}})->ArgNames({"vec"});

/// Segment open + full decode: the out-of-core load path. Counters report
/// file size, decode throughput and the process VmHWM after the runs.
void BM_SegmentLoad(benchmark::State& state) {
  std::string path = TempPath("bench_segments_load.gseg");
  const int64_t rows = state.range(0);
  GOLA_CHECK_OK(WriteSegmentFile(MakeSegmentTable(rows, 1 << 14), path));

  uint64_t file_size = 0;
  for (auto _ : state) {
    auto file = SegmentFile::Open(path);
    GOLA_CHECK_OK(file.status());
    file_size = (*file)->file_size();
    SegmentSource source(std::shared_ptr<const SegmentFile>(std::move(*file)));
    int64_t decoded_rows = 0;
    for (size_t c = 0; c < source.num_chunks(); ++c) {
      auto chunk = source.ReadChunk(c);
      GOLA_CHECK_OK(chunk.status());
      decoded_rows += static_cast<int64_t>(chunk->num_rows());
    }
    GOLA_CHECK(decoded_rows == rows);
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.counters["file_bytes"] =
      benchmark::Counter(static_cast<double>(file_size));
  state.counters["VmHWM_kb"] =
      benchmark::Counter(static_cast<double>(ReadVmHWMKb()));
  std::remove(path.c_str());
}
BENCHMARK(BM_SegmentLoad)->Arg(1 << 18)->ArgNames({"rows"});

}  // namespace
}  // namespace gola

// Always emit a machine-readable summary (BENCH_segments.json in the
// working directory) unless the caller already passed --benchmark_out.
int main(int argc, char** argv) {
  gola::bench::TuneAllocator();
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::vector<char*> args(argv, argv + argc);
  static char out_flag[] = "--benchmark_out=BENCH_segments.json";
  static char fmt_flag[] = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag);
    args.push_back(fmt_flag);
  }
  int patched_argc = static_cast<int>(args.size());
  benchmark::Initialize(&patched_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(patched_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
