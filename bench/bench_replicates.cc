// Abl-B: bootstrap replicate budget. The paper attributes G-OLA's overhead
// "primarily [to] the error estimation overheads"; this ablation quantifies
// that: replicate count vs total online time, CI width and range-failure
// rate. B = 100 is the classical bootstrap default the paper inherits from
// BlinkDB.
#include "bench_util.h"

namespace gola {
namespace {

int Main(int argc, char** argv) {
  int64_t rows = bench::RowsFromArgs(argc, argv, 200'000);
  const int kBatches = 25;
  bench::PrintHeader("Abl-B: bootstrap replicate budget (SBI)", rows, kBatches, 0);
  std::unique_ptr<Engine> engine_ptr = bench::MakeEngine(rows);
  Engine& engine = *engine_ptr;
  std::string sql = SbiQuery();

  Stopwatch timer;
  auto exact = engine.ExecuteBatch(sql);
  GOLA_CHECK_OK(exact.status());
  double batch_seconds = timer.ElapsedSeconds();
  std::printf("batch engine: %.3f s\n\n", batch_seconds);

  std::printf("%6s %12s %14s %22s %12s\n", "B", "total(s)", "overhead", "CI @25% data",
              "recomputes");
  const std::vector<int> budgets = {10, 25, 50, 100, 200};
  std::vector<double> totals;
  for (int b : budgets) {
    GolaOptions opts;
    opts.num_batches = kBatches;
    opts.bootstrap_replicates = b;
    auto online = engine.ExecuteOnline(sql, opts);
    GOLA_CHECK_OK(online.status());
    double total = 0;
    double ci_width = 0;
    int recomputes = 0;
    while (!(*online)->done()) {
      auto update = (*online)->Step();
      GOLA_CHECK_OK(update.status());
      total = update->elapsed_seconds;
      recomputes = update->recomputes_so_far;
      if (update->fraction_processed >= 0.24 && ci_width == 0) {
        double lo = update->result.At(0, 1).ToDouble().ValueOr(0);
        double hi = update->result.At(0, 2).ToDouble().ValueOr(0);
        ci_width = hi - lo;
      }
    }
    std::printf("%6d %12.3f %+13.0f%% %22.3f %12d\n", b, total,
                100 * (total / batch_seconds - 1.0), ci_width, recomputes);
    totals.push_back(total);
  }
  std::printf("\nB = %d takes %.2fx the time of B = %d (%.0fx the replicates)\n",
              budgets.back(), totals.back() / totals.front(), budgets.front(),
              static_cast<double>(budgets.back()) / budgets.front());
  bench::WriteMetricsArtifact("replicates");
  return 0;
}

}  // namespace
}  // namespace gola

int main(int argc, char** argv) { return gola::Main(argc, argv); }
