// Figure 3(b) reproduction: per-batch query-time ratio of Classical Delta
// Maintenance (CDM) over G-OLA for the first 10 mini-batches, on the
// Conviva queries C1–C3 and TPC-H Q11/Q17/Q18/Q20. The paper's claim: the
// ratio grows linearly with the batch index, because CDM rescans all
// previously seen data whenever an inner aggregate changes while G-OLA
// touches only the uncertain set plus the new batch.
//
// One run's per-batch time is a few milliseconds, so a single-run ratio is
// mostly noise. Each query gets one discarded warm-up run per engine, then
// kRuns rounds of one G-OLA and one CDM run in alternating order; each
// printed ratio is the median over the rounds of that batch's CDM/G-OLA
// ratio (both times are ExecuteBatch-free per-step wall times,
// OnlineUpdate::batch_seconds and CdmUpdate::batch_seconds).
#include <algorithm>
#include <vector>

#include "baseline/cdm.h"
#include "bench_util.h"

namespace gola {
namespace {

/// Alternating G-OLA/CDM rounds behind each printed ratio (odd, so the
/// median is one round's ratio).
constexpr int kRuns = 5;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

int Main(int argc, char** argv) {
  int64_t rows = bench::RowsFromArgs(argc, argv, 200'000);
  const int kBatches = 10;
  const int kReplicates = 60;
  bench::PrintHeader("Figure 3(b): CDM / G-OLA per-batch time ratio", rows, kBatches,
                     kReplicates);
  std::printf("each ratio: median over %d alternating G-OLA/CDM rounds after a "
              "warm-up run of each\n\n",
              kRuns);

  std::unique_ptr<Engine> engine_ptr = bench::MakeEngine(rows);
  Engine& engine = *engine_ptr;

  std::vector<NamedQuery> queries;
  for (const auto& q : AllQueries()) {
    if (q.name != "SBI") queries.push_back(q);  // the figure uses C1..Q20
  }

  std::printf("%-6s", "batch");
  for (const auto& q : queries) std::printf(" %9s", q.name.c_str());
  std::printf("\n");

  std::vector<std::vector<double>> ratios(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const NamedQuery& q = queries[qi];
    auto compiled = engine.Compile(q.sql);
    GOLA_CHECK_OK(compiled.status());

    GolaOptions gopts;
    gopts.num_batches = kBatches;
    gopts.bootstrap_replicates = kReplicates;
    gopts.convergence_path = bench::ConvergenceArtifact("fig3b_" + q.name);
    // CDM per-batch times on the same partitioning seed.
    CdmOptions copts;
    copts.num_batches = kBatches;
    copts.seed = gopts.seed;

    auto gola_run = [&] {
      std::vector<double> times;
      auto online = engine.ExecuteOnline(q.sql, gopts);
      GOLA_CHECK_OK(online.status());
      while (!(*online)->done()) {
        auto update = (*online)->Step();
        GOLA_CHECK_OK(update.status());
        times.push_back(update->batch_seconds);
      }
      return times;
    };
    auto cdm_run = [&] {
      std::vector<double> times;
      auto cdm = CdmExecutor::Create(&engine.catalog(), *compiled, copts);
      GOLA_CHECK_OK(cdm.status());
      while (!(*cdm)->done()) {
        auto update = (*cdm)->Step();
        GOLA_CHECK_OK(update.status());
        times.push_back(update->batch_seconds);
      }
      return times;
    };

    // Warm-up so allocator and cache state do not penalize whichever
    // engine runs first.
    gola_run();
    cdm_run();
    std::vector<std::vector<double>> per_batch(kBatches);
    for (int r = 0; r < kRuns; ++r) {
      std::vector<double> gola_times, cdm_times;
      if (r % 2 == 0) {
        gola_times = gola_run();
        cdm_times = cdm_run();
      } else {
        cdm_times = cdm_run();
        gola_times = gola_run();
      }
      for (int b = 0; b < kBatches; ++b) {
        per_batch[b].push_back(cdm_times[static_cast<size_t>(b)] /
                               std::max(1e-9, gola_times[static_cast<size_t>(b)]));
      }
    }
    for (int b = 0; b < kBatches; ++b) ratios[qi].push_back(Median(per_batch[b]));
  }

  for (int b = 0; b < kBatches; ++b) {
    std::printf("%-6d", b + 1);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      std::printf(" %9.2f", ratios[qi][static_cast<size_t>(b)]);
    }
    std::printf("\n");
  }

  std::printf("\nshape check: ratio at batch 10 vs batch 2 (paper: grows ~linearly)\n");
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    std::printf("  %-4s growth %5.1fx\n", queries[qi].name.c_str(),
                ratios[qi][9] / std::max(1e-9, ratios[qi][1]));
  }
  bench::WriteMetricsArtifact("fig3b");
  return 0;
}

}  // namespace
}  // namespace gola

int main(int argc, char** argv) { return gola::Main(argc, argv); }
