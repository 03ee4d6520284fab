// Kernel-layer microbenchmarks (google-benchmark): the chunk-at-a-time
// kernels the engine runs against a row-at-a-time reference on its four
// hot paths — predicate filtering, grouped aggregation, the poissonized
// replicate fold and keyed-broadcast lookups. Every benchmark carries a
// `vec` argument (0 = reference, 1 = kernels); tools/check_perf.py pairs the
// two and fails CI when the kernels lose their speedup on the group-by,
// replicate and key-probe benches. The references are the row-at-a-time
// fold and the boxed key map the tests use as their oracles
// (tests/support/row_fold.h, tests/support/boxed_key_map.h).
//
// Emits BENCH_kernels.json (google-benchmark JSON) in the working
// directory unless --benchmark_out is passed explicitly.
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "bench_util.h"
#include "exec/group_arena.h"
#include "exec/kernels/key_index.h"
#include "exec/pipeline.h"
#include "support/boxed_key_map.h"
#include "support/row_fold.h"

namespace gola {
namespace {

/// 64 int groups, an exponential measure and a uniform measure — the same
/// shape bench_micro uses, so numbers are comparable across bench binaries.
Table MakeGroupedTable(int64_t rows) {
  Rng rng(7);
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"k", TypeId::kInt64}, {"x", TypeId::kFloat64}, {"y", TypeId::kFloat64}});
  TableBuilder builder(schema, rows);
  for (int64_t i = 0; i < rows; ++i) {
    builder.AppendRow({Value::Int(rng.UniformInt(1, 64)),
                       Value::Float(rng.Exponential(10)),
                       Value::Float(rng.UniformDouble(0, 1))});
  }
  return builder.Finish();
}

Chunk ChunkWithSerials(const Table& t) {
  Chunk c = t.Combined();
  std::vector<int64_t> serials(c.num_rows());
  std::iota(serials.begin(), serials.end(), 0);
  c.set_serials(std::move(serials));
  return c;
}

ExprPtr BoundCol(const char* name, int index, TypeId type) {
  ExprPtr c = Expr::Col(name);
  c->column_index = index;
  c->type = type;
  return c;
}

/// Conjunctive filter (x > 10 AND k <= 32, ~18% selectivity) exactly as
/// FilterStage::Apply runs it: selection-vector refinement + one Gather on
/// the kernel path, per-predicate boolean columns + mask Filter on the
/// reference path.
void BM_KernelFilter(benchmark::State& state) {
  Table t = MakeGroupedTable(state.range(0));
  Chunk chunk = t.Combined();
  size_t n = chunk.num_rows();
  std::vector<ExprPtr> preds;
  preds.push_back(Expr::Cmp(CmpOp::kGt, BoundCol("x", 1, TypeId::kFloat64),
                            Expr::Lit(Value::Float(10.0))));
  preds.push_back(Expr::Cmp(CmpOp::kLe, BoundCol("k", 0, TypeId::kInt64),
                            Expr::Lit(Value::Int(32))));
  for (auto& p : preds) p->type = TypeId::kBool;

  const bool vec = state.range(1) != 0;
  for (auto _ : state) {
    if (vec) {
      SelectionVector sel(n);
      for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
      for (const auto& pred : preds) {
        GOLA_CHECK_OK(EvaluatePredicateInto(*pred, chunk, nullptr, &sel));
      }
      Chunk out = chunk.Gather(sel);
      benchmark::DoNotOptimize(out);
    } else {
      std::vector<uint8_t> mask(n, 1);
      for (const auto& pred : preds) {
        auto m = EvaluatePredicate(*pred, chunk, nullptr);
        GOLA_CHECK_OK(m.status());
        for (size_t i = 0; i < n; ++i) mask[i] &= (*m)[i];
      }
      Chunk out = chunk.Filter(mask);
      benchmark::DoNotOptimize(out);
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KernelFilter)
    ->ArgsProduct({{1 << 16}, {0, 1}})
    ->ArgNames({"rows", "vec"});

/// Grouped COUNT(*)/SUM/AVG through the exact engine's fold, as its sink
/// (FoldStage) runs it: one GroupArena tile per morsel at B = 0, the tiles
/// merged in morsel order; vs the oracle's per-row Value-boxed map probes
/// (no replicates, so it makes the exact aggregate's per-row calls).
void BM_KernelGroupBy(benchmark::State& state) {
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("t", MakeGroupedTable(state.range(0))));
  auto query = engine.Compile("SELECT k, COUNT(*), SUM(x), AVG(y) FROM t GROUP BY k");
  GOLA_CHECK_OK(query.status());
  Table t = *(*engine.GetTable("t"));
  Chunk chunk = t.Combined();
  const BlockDef& block = query->root();
  const ExecContext ctx;
  std::vector<Chunk> morsels;
  for (const MorselPlan& m : PlanMorsels({{&chunk, 0}}, ctx.min_morsel_rows, ctx.max_morsels)) {
    morsels.push_back(chunk.Slice(m.offset, m.rows));
  }
  const bool vec = state.range(1) != 0;
  for (auto _ : state) {
    if (vec) {
      GroupAggregate agg(&block, /*weights=*/nullptr);
      std::vector<GroupArena> tiles(morsels.size());
      for (size_t m = 0; m < morsels.size(); ++m) {
        GOLA_CHECK_OK(agg.FoldTileOf(morsels[m], nullptr, &tiles[m]));
      }
      for (const GroupArena& tile : tiles) agg.MergeTile(tile);
      benchmark::DoNotOptimize(agg.num_groups());
    } else {
      oracle::GroupMap groups;
      GOLA_CHECK_OK(oracle::UpdateGroupMap(block, nullptr, chunk, nullptr, &groups));
      benchmark::DoNotOptimize(groups);
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KernelGroupBy)
    ->ArgsProduct({{1 << 16}, {0, 1}})
    ->ArgNames({"rows", "vec"})
    // Medians over a few repetitions: check_perf.py gates on the vec:1/vec:0
    // ratio, and a single sample is too noisy on shared CI machines.
    ->Repetitions(3);

/// The online fold with B bootstrap replicates per aggregate — the G-OLA
/// hot loop. Kernel path: a morsel's FoldTileOf (each group's weights drawn
/// and summed into a GroupArena tile by FoldReplicates) merged into the
/// block's arena with MergeTile, as the fold stage runs it;
/// reference: the oracle's per-tuple WeightsFor + B-length scalar passes.
/// B = 80 is the dashboard panels' replicate count, B = 100 the library
/// queries'. The fold without replicates is BM_KernelGroupBy's.
void BM_KernelReplicateUpdate(benchmark::State& state) {
  constexpr int64_t kRows = 1 << 14;
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("t", MakeGroupedTable(kRows)));
  auto query = engine.Compile("SELECT k, COUNT(*), SUM(x), AVG(y) FROM t GROUP BY k");
  GOLA_CHECK_OK(query.status());
  Table t = *(*engine.GetTable("t"));
  Chunk chunk = ChunkWithSerials(t);
  const BlockDef& block = query->root();

  const int b = static_cast<int>(state.range(0));
  const bool vec = state.range(1) != 0;
  const PoissonWeights weights(b, 42);
  for (auto _ : state) {
    if (vec) {
      GroupAggregate agg(&block, &weights);
      GroupArena tile;
      GOLA_CHECK_OK(agg.FoldTileOf(chunk, nullptr, &tile));
      agg.MergeTile(tile);
      benchmark::DoNotOptimize(agg.num_groups());
    } else {
      oracle::GroupMap groups;
      GOLA_CHECK_OK(oracle::UpdateGroupMap(block, &weights, chunk, nullptr, &groups));
      benchmark::DoNotOptimize(groups.size());
    }
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_KernelReplicateUpdate)
    ->ArgsProduct({{80, 100, 200}, {0, 1}})
    ->ArgNames({"B", "vec"})
    ->Repetitions(3);

/// Correlated-subquery lookups as Q17 and Q20 make them: 200 000 int64 outer
/// keys probed into the 400 keys of a keyed broadcast. Kernel path: one
/// KeyIndex::Probe of the whole column; reference: the boxed map it
/// replaced, one GetValue and one hash lookup per row.
void BM_KernelKeyProbe(benchmark::State& state) {
  constexpr int64_t kRows = 200'000;
  constexpr int64_t kKeys = 400;
  Rng rng(17);
  std::vector<int64_t> keys(kKeys);
  for (int64_t k = 0; k < kKeys; ++k) keys[k] = k * 37 + 1;
  std::vector<int64_t> probes(kRows);
  for (auto& p : probes) p = keys[rng.NextBelow(kKeys)];
  const Column probe = Column::MakeInt(std::move(probes));
  KeyIndex index;
  index.Insert(Column::MakeInt(keys), nullptr, nullptr);
  oracle::BoxedKeyMap boxed;
  for (int64_t k : keys) boxed.Insert(Value::Int(k));

  const bool vec = state.range(0) != 0;
  std::vector<uint32_t> ids;
  for (auto _ : state) {
    if (vec) index.Probe(probe, nullptr, &ids);
    else boxed.Probe(probe, &ids);
    benchmark::DoNotOptimize(ids.data());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_KernelKeyProbe)->ArgsProduct({{0, 1}})->ArgNames({"vec"})->Repetitions(3);

}  // namespace
}  // namespace gola

// Always emit a machine-readable summary (BENCH_kernels.json in the working
// directory) unless the caller already passed --benchmark_out.
int main(int argc, char** argv) {
  gola::bench::TuneAllocator();
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::vector<char*> args(argv, argv + argc);
  static char out_flag[] = "--benchmark_out=BENCH_kernels.json";
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
