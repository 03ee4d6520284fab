// Operator microbenchmarks (google-benchmark): the building blocks whose
// costs compose into the macro numbers — expression evaluation, group
// aggregation, dimension hash join, poissonized replicate maintenance,
// partitioning, and query compilation.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "bench_util.h"
#include "exec/group_arena.h"
#include "exec/hash_join.h"
#include "parser/parser.h"
#include "storage/partitioner.h"

namespace gola {
namespace {

Table MakeNumericTable(int64_t rows) {
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

void BM_FilterEvaluate(benchmark::State& state) {
  Table t = MakeNumericTable(state.range(0));
  Chunk chunk = t.Combined();
  ExprPtr x = Expr::Col("x");
  x->column_index = 1;
  x->type = TypeId::kFloat64;
  ExprPtr pred = Expr::Cmp(CmpOp::kGt, x, Expr::Lit(Value::Float(10.0)));
  pred->type = TypeId::kBool;
  for (auto _ : state) {
    auto sel = EvaluatePredicate(*pred, chunk);
    benchmark::DoNotOptimize(sel);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FilterEvaluate)->Arg(1 << 14)->Arg(1 << 18);

/// The exact aggregate at B = 0: one morsel's tile folded, merged and
/// finalized in key order.
void BM_GroupAggregate(benchmark::State& state) {
  Engine engine;
  GOLA_CHECK_OK(engine.RegisterTable("t", MakeNumericTable(state.range(0))));
  auto query = engine.Compile("SELECT k, SUM(x), AVG(y) FROM t GROUP BY k");
  GOLA_CHECK_OK(query.status());
  Table t = *(*engine.GetTable("t"));
  Chunk chunk = t.Combined();
  const BlockDef& block = query->root();
  for (auto _ : state) {
    GroupAggregate agg(&block, /*weights=*/nullptr);
    GroupArena tile;
    GOLA_CHECK_OK(agg.FoldTileOf(chunk, nullptr, &tile));
    agg.MergeTile(tile);
    Chunk post = agg.Finalize(1.0);
    benchmark::DoNotOptimize(post);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupAggregate)->Arg(1 << 14)->Arg(1 << 18);

void BM_PoissonWeights(benchmark::State& state) {
  PoissonWeights weights(100, 42);
  std::vector<int32_t> buf;
  int64_t serial = 0;
  for (auto _ : state) {
    weights.WeightsFor(serial++, &buf);
    benchmark::DoNotOptimize(buf);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_PoissonWeights);

void BM_DimJoinProbe(benchmark::State& state) {
  // Dimension of 1k rows, probe of range(0) rows.
  Rng rng(3);
  auto dim_schema = std::make_shared<Schema>(
      std::vector<Field>{{"dk", TypeId::kInt64}, {"attr", TypeId::kFloat64}});
  TableBuilder dim_builder(dim_schema);
  for (int64_t i = 0; i < 1000; ++i) {
    dim_builder.AppendRow({Value::Int(i), Value::Float(rng.NextDouble())});
  }
  Table dim = dim_builder.Finish();
  ExprPtr build_key = Expr::Col("dk");
  build_key->column_index = 0;
  build_key->type = TypeId::kInt64;
  auto table = DimHashTable::Build(dim, *build_key);
  GOLA_CHECK_OK(table.status());

  Table probe_table = MakeNumericTable(state.range(0));
  Chunk probe = probe_table.Combined();
  ExprPtr probe_key = Expr::Col("k");
  probe_key->column_index = 0;
  probe_key->type = TypeId::kInt64;
  auto out_schema = std::make_shared<Schema>(std::vector<Field>{
      {"k", TypeId::kInt64}, {"x", TypeId::kFloat64}, {"y", TypeId::kFloat64},
      {"dk", TypeId::kInt64}, {"attr", TypeId::kFloat64}});
  for (auto _ : state) {
    auto joined = table->Probe(probe, *probe_key, out_schema);
    benchmark::DoNotOptimize(joined);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DimJoinProbe)->Arg(1 << 14)->Arg(1 << 17);

void BM_MiniBatchPartition(benchmark::State& state) {
  Table t = MakeNumericTable(state.range(0));
  for (auto _ : state) {
    MiniBatchOptions opts;
    opts.num_batches = 100;
    MiniBatchPartitioner partitioner(t, opts);
    // Batches are gathered on demand: fetch them all to time the gather.
    for (int b = 0; b < partitioner.num_batches(); ++b) {
      benchmark::DoNotOptimize(partitioner.BatchShared(b));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MiniBatchPartition)->Arg(1 << 16);

void BM_CompileQ17(benchmark::State& state) {
  std::unique_ptr<Engine> engine_ptr = bench::MakeEngine(1000);
  Engine& engine = *engine_ptr;
  std::string sql = Q17Query();
  for (auto _ : state) {
    auto compiled = engine.Compile(sql);
    GOLA_CHECK_OK(compiled.status());
    benchmark::DoNotOptimize(compiled);
  }
}
BENCHMARK(BM_CompileQ17);

void BM_OnlineDrainSbi(benchmark::State& state) {
  // Full online drain of SBI on the Conviva workload through the delta
  // pipeline; Arg = pool threads (0 → serial). The 0-vs-4 ratio is the
  // morsel-parallel speedup; results are bit-identical across args.
  static Engine* engine = bench::MakeEngine(1 << 17).release();
  std::unique_ptr<ThreadPool> pool;
  if (state.range(0) > 0) pool = std::make_unique<ThreadPool>(state.range(0));
  GolaOptions opts;
  opts.num_batches = 20;
  opts.bootstrap_replicates = 60;
  opts.pool = pool.get();
  opts.trace_path = bench::TracePathFromEnv();
  std::string sql = SbiQuery();
  for (auto _ : state) {
    auto online = engine->ExecuteOnline(sql, opts);
    GOLA_CHECK_OK(online.status());
    auto last = (*online)->Run();
    GOLA_CHECK_OK(last.status());
    benchmark::DoNotOptimize(last->max_rsd);
  }
  state.SetItemsProcessed(state.iterations() * (1 << 17));
}
BENCHMARK(BM_OnlineDrainSbi)->Arg(0)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_BootstrapCI(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> replicates(100);
  for (auto& r : replicates) r = rng.Normal(100, 5);
  for (auto _ : state) {
    auto ci = PercentileCI(replicates, 100.0);
    benchmark::DoNotOptimize(ci);
  }
}
BENCHMARK(BM_BootstrapCI);

}  // namespace
}  // namespace gola

// Always emit a machine-readable summary (BENCH_micro.json in the working
// directory) unless the caller already passed --benchmark_out.
int main(int argc, char** argv) {
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::vector<char*> args(argv, argv + argc);
  static char out_flag[] = "--benchmark_out=BENCH_micro.json";
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
  gola::bench::WriteMetricsArtifact("micro");
  return 0;
}
