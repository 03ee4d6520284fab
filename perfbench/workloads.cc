#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <thread>

#include <unistd.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/thread_pool.h"
#include "gola/gola.h"
#include "obs/metrics.h"
#include "server/dispatcher.h"
#include "spans.h"
#include "storage/data_type.h"
#include "storage/partitioner.h"
#include "workload/conviva_gen.h"
#include "workload/queries.h"
#include "workload/tpch_gen.h"

namespace perfbench {
namespace {

using gola::Engine;
using gola::GolaOptions;
using gola::OnlineUpdate;
using gola::Table;

// The paper's §5 setting: B = 100 bootstrap replicates, 100 mini-batches.
constexpr int kLibraryBatches = 100;
constexpr int kLibraryReplicates = 100;
// The dashboard panels of examples/dashboard.cpp: 25 batches × 80 replicates.
constexpr int kPanelBatches = 25;
constexpr int kPanelReplicates = 80;
constexpr int kClients = 4;
// ExecuteBatch runs per library query and pass; an exact answer takes tens
// of milliseconds (a few with the pool), so one run says little.
constexpr int kLibraryBatchReps = 3;
constexpr double kRsdTarget = 0.05;
// Set-up is timed this many times and its median reported: once for the
// engine the run uses, the others spread over the run (see DueAfter), so one
// slow stretch of the machine does not decide setup_s.
constexpr int kSetupReps = 17;
// Rounds of exact runs over the dashboard panels (batch_s): one before the
// client loop gives the reference answers, the others are spread over the
// run. A panel's exact answer takes milliseconds, so one run, or one short
// stretch of runs, says little.
constexpr int kPanelBatchReps = 20;
// Nominal wall seconds of one library pass and of one dashboard round per
// 100k rows on the reference box (4 vCPU). They turn --seconds into a fixed
// amount of work, so every count a run reports is a pure function of the
// seed and the run's arguments.
constexpr double kLibraryPassSecondsPer100k = 2.8;
constexpr double kDashboardRoundSecondsPer100k = 0.07;
// Tolerance of online_engine_test's ExpectResultsMatch.
constexpr double kMatchTolerance = 1e-9;
constexpr size_t kMaxFailureMessages = 8;

/// GolaOptions::seed of one library pass. Each pass cuts the data into
/// mini-batches with its own seed, so a run's per-query medians are taken
/// over several batch orders and one unlucky order does not decide them.
uint64_t PassSeed(uint64_t seed, int pass) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(pass + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear interpolation between order statistics (q in [0, 1]).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Process high-water resident set size, in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Seconds the hypervisor ran other guests while this guest's CPUs wanted
/// to run (the steal column of /proc/stat, summed over CPUs).
double StealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field = 0, steal = 0;
  stat >> cpu;
  for (int i = 0; i < 8 && stat >> field; ++i) steal = field;
  return steal / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Returns freed heap pages to the system and restarts the high-water mark,
/// so the next PeakRssMb() covers only what runs after this call.
void RestartPeakRss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ofstream("/proc/self/clear_refs") << "5";
}

void RecordFailure(RunResult* out, std::string message) {
  ++out->failed;
  if (out->failures.size() < kMaxFailureMessages) {
    out->failures.push_back(std::move(message));
  }
}

/// online_engine_test's ExpectResultsMatch rule: same row count; a null
/// exact cell needs a null online cell; numeric cells agree within
/// tol · (1 + |exact|); other cells compare equal. The online result's
/// leading columns are the exact result's columns (CI companions follow).
bool ResultsMatch(const Table& online, const Table& exact, std::string* why) {
  if (exact.schema() == nullptr) {
    *why = "no exact answer to compare with";
    return false;
  }
  if (online.num_rows() != exact.num_rows()) {
    *why = "row count " + std::to_string(online.num_rows()) + " vs " +
           std::to_string(exact.num_rows());
    return false;
  }
  const size_t cols = exact.schema()->num_fields();
  if (online.schema() == nullptr || online.schema()->num_fields() < cols) {
    *why = "online result has fewer columns";
    return false;
  }
  for (int64_t r = 0; r < exact.num_rows(); ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const gola::Value a = online.At(r, static_cast<int>(c));
      const gola::Value b = exact.At(r, static_cast<int>(c));
      bool ok;
      if (b.is_null()) {
        ok = a.is_null();
      } else if (gola::IsNumeric(b.type())) {
        const double da = a.ToDouble().ValueOr(1e100);
        const double db = b.ToDouble().ValueOr(-1e100);
        ok = std::fabs(da - db) <= kMatchTolerance * (1.0 + std::fabs(db));
      } else {
        ok = a == b;
      }
      if (!ok) {
        *why = "row " + std::to_string(r) + " col " +
               exact.schema()->field(c).name + ": " + a.ToString() + " vs " +
               b.ToString();
        return false;
      }
    }
  }
  return true;
}

// --- set-up -----------------------------------------------------------------

struct SetupTimes {
  std::vector<double> total, generate, register_;
};

/// Generates and registers the tables, shaped as bench/bench_util.h's
/// MakeEngine shapes them, with the run's seed.
std::unique_ptr<Engine> SetupEngine(const RunConfig& config, bool with_tpch,
                                    bool with_dispatcher, SpanRecorder& spans,
                                    SetupTimes* times) {
  ScopedSpan setup_span(spans, "setup", Layer::kBench);
  const Clock::time_point t0 = Clock::now();
  double generate = 0, register_ = 0;
  auto engine = std::make_unique<Engine>();

  auto add_table = [&](const char* name, auto generate_fn) {
    Clock::time_point g0 = Clock::now();
    Table table = [&] {
      ScopedSpan span(spans, "workload.generate", Layer::kWorkload);
      return generate_fn();
    }();
    Clock::time_point g1 = Clock::now();
    {
      ScopedSpan span(spans, "storage.register", Layer::kStorage);
      gola::Status st = engine->RegisterTable(name, std::move(table));
      if (!st.ok()) {
        std::fprintf(stderr, "RegisterTable(%s): %s\n", name,
                     st.ToString().c_str());
        std::exit(2);
      }
    }
    generate += SecondsBetween(g0, g1);
    register_ += SecondsBetween(g1, Clock::now());
  };

  add_table("conviva", [&] {
    gola::ConvivaGenOptions conviva;
    conviva.num_rows = config.rows;
    conviva.num_ads = 64;
    conviva.num_contents = 2000;
    conviva.seed = config.seed;
    return gola::GenerateConviva(conviva);
  });
  if (with_tpch) {
    add_table("tpch", [&] {
      gola::TpchGenOptions tpch;
      tpch.num_rows = config.rows;
      tpch.num_parts = std::clamp<int64_t>(config.rows / 500, 200, 2000);
      tpch.num_suppliers = 200;
      tpch.seed = config.seed ^ 0x9E3779B97F4A7C15ULL;
      return gola::GenerateTpch(tpch);
    });
  }
  if (with_dispatcher) {
    // Created before any submission: the first sessions() call fixes the
    // options. Its scheduler thread also steps sessions, so nproc − 1 step
    // threads keep at most nproc threads busy.
    ScopedSpan span(spans, "server.dispatcher", Layer::kServer);
    gola::server::DispatcherOptions options;
    options.step_threads = std::max(1, config.nproc - 1);
    engine->sessions(options);
  }
  times->total.push_back(SecondsBetween(t0, Clock::now()));
  times->generate.push_back(generate);
  times->register_.push_back(register_);
  return engine;
}

/// How many of `total` repetitions run after unit `i` of a run's `units`
/// (library passes, dashboard panel cycles), so that they are spread evenly
/// over the run and the last unit is followed by some.
int DueAfter(int total, int i, int units) {
  return total * (i + 1) / units - total * i / units;
}

/// Times `count` more set-ups; each engine is dropped once it is timed.
void RepeatSetup(const RunConfig& config, bool with_tpch, bool with_dispatcher,
                 int count, SpanRecorder& spans, SetupTimes* times) {
  for (int rep = 0; rep < count; ++rep) {
    SetupEngine(config, with_tpch, with_dispatcher, spans, times);
  }
}

// --- metrics snapshot -----------------------------------------------------

struct Snapshot {
  gola::obs::MetricsSnapshot snap = gola::obs::MetricsRegistry::Global().Snapshot();

  int64_t Counter(const std::string& name) const {
    for (const auto& c : snap.counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  }
  const gola::obs::HistogramSample* Histogram(const std::string& name) const {
    for (const auto& h : snap.histograms) {
      if (h.name == name) return &h;
    }
    return nullptr;
  }
  double HistogramSumSeconds(const std::string& name) const {
    const auto* h = Histogram(name);
    return h == nullptr ? 0 : static_cast<double>(h->sum) / 1e6;
  }
};

void FillSnapshotMetrics(const Snapshot& s, double per, RunResult* out) {
  auto& m = out->per_layer;
  m["gola.retries"] = static_cast<double>(
      s.Counter("gola_pipeline_morsel_retries_total") +
      s.Counter("gola_block_pipeline_retries_total") +
      s.Counter("gola_online_rebuild_retries_total"));
  m["pool.task_wait_s"] = s.HistogramSumSeconds("gola_threadpool_task_wait_us") / per;
  m["pool.idle_s"] = s.HistogramSumSeconds("gola_threadpool_idle_us") / per;
  m["pool.parallel_fors"] =
      static_cast<double>(s.Counter("gola_threadpool_parallel_for_total")) / per;
  const auto* sweep = s.Histogram("gola_server_sweep_us");
  m["server.sweep_ms_p50"] = sweep == nullptr ? 0 : sweep->p50 / 1e3;
}

void FillSelfTimes(const SpanRecorder& spans, RunResult* out) {
  const SpanRecorder::SelfTimes self = spans.ComputeSelfTimes();
  auto& m = out->per_layer;
  for (int l = 0; l < kNumLayers; ++l) {
    m[std::string("self.") + LayerName(static_cast<Layer>(l)) + "_s"] =
        self.layer[static_cast<size_t>(l)];
  }
  m["trace.wall_s"] = self.wall;
  m["trace.unattributed_s"] = self.unattributed;
  m["trace.unattributed_frac"] = self.wall > 0 ? self.unattributed / self.wall : 0;
  m["trace.spans"] = static_cast<double>(spans.size());
}

/// Writes the traced run's spans once the run has ended.
void WriteSpans(const SpanRecorder& spans, const RunConfig& config) {
  if (!config.trace || config.spans_path.empty()) return;
  if (!spans.WriteChromeTrace(config.spans_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", config.spans_path.c_str());
  }
}

/// Per-step phase totals and counts from OnlineUpdate::stats.
struct StepTotals {
  double envelope = 0, delta = 0, emit = 0, rebuild = 0, materialize = 0;
  double batch_seconds = 0;  // Σ OnlineUpdate::batch_seconds
  int64_t rows_in = 0, rows_folded = 0, rows_uncertain = 0, morsels = 0;
  int64_t updates = 0;

  void Add(const OnlineUpdate& u) {
    envelope += u.stats.envelope_check_seconds;
    delta += u.stats.delta_exec_seconds;
    emit += u.stats.emit_seconds;
    rebuild += u.stats.rebuild_seconds;
    materialize += u.stats.materialize_seconds;
    batch_seconds += u.batch_seconds;
    rows_in += u.stats.rows_in;
    rows_folded += u.stats.rows_folded;
    rows_uncertain += u.stats.rows_uncertain;
    morsels += u.stats.morsels;
    ++updates;
  }
  double bookkeeping() const {
    return batch_seconds - (envelope + delta + emit + rebuild + materialize);
  }
};

/// Exact totals go to the counts; per-layer metrics show them per pass.
void FillCountMetrics(const StepTotals& t, int64_t recomputes, int replicates,
                      int passes, RunResult* out) {
  auto& c = out->counts;
  c["gola.rows_in"] = t.rows_in;
  c["gola.rows_folded"] = t.rows_folded;
  c["gola.rows_uncertain"] = t.rows_uncertain;
  c["gola.morsels"] = t.morsels;
  c["gola.recomputes"] = recomputes;
  c["gola.updates"] = t.updates;
  auto& m = out->per_layer;
  for (const char* name : {"gola.rows_in", "gola.rows_folded", "gola.rows_uncertain",
                           "gola.morsels", "gola.recomputes"}) {
    m[name] = static_cast<double>(c[name]) / passes;
  }
  m["gola.fold_yield"] =
      t.rows_in > 0 ? static_cast<double>(t.rows_folded) / t.rows_in : 0;
  m["bootstrap.replicate_folds"] =
      static_cast<double>(t.rows_folded) * replicates / passes;
}

// --- library ----------------------------------------------------------------

/// One library query in one pass.
struct QueryPass {
  double batch = 0;         // ExecuteBatch wall, median of the pass's runs
  double first_answer = 0;  // submission → first Step() returned
  double rsd5 = 0;          // submission → first update with max_rsd ≤ 5 %
  double online = 0;        // submission → last Step() returned
  double step_wall = 0;     // Σ Step() wall
  double first_step = 0;    // the first Step() alone
  // Traced runs only: the three public calls ExecuteOnline is made of.
  double compile = 0, partition = 0, prepare = 0;
  StepTotals steps;
  int64_t recomputes = 0;
  int64_t rsd5_batch = 0;
};

}  // namespace

RunResult RunLibrary(const RunConfig& config, bool with_pool) {
  RunResult out;
  SpanRecorder spans(config.trace);
  const int32_t root = spans.Begin("run", Layer::kBench);

  SetupTimes setup;
  std::unique_ptr<Engine> engine =
      SetupEngine(config, /*with_tpch=*/true, /*with_dispatcher=*/false, spans, &setup);

  const int pool_threads = with_pool ? std::max(1, config.nproc - 1) : 0;
  std::unique_ptr<gola::ThreadPool> pool;
  if (with_pool) pool = std::make_unique<gola::ThreadPool>(pool_threads);

  GolaOptions options;
  options.num_batches = kLibraryBatches;
  options.bootstrap_replicates = kLibraryReplicates;
  options.pool = pool.get();
  gola::BatchExecOptions batch_options;
  batch_options.pool = pool.get();

  const std::vector<gola::NamedQuery> queries = gola::AllQueries();
  const int passes = std::max(
      1, static_cast<int>(std::lround(config.seconds / (kLibraryPassSecondsPer100k *
                                                        config.rows / 1e5))));
  std::vector<std::vector<QueryPass>> runs(queries.size());
  std::vector<int64_t> blocks(queries.size(), 0);
  for (size_t q = 0; q < queries.size(); ++q) {
    auto compiled = engine->Compile(queries[q].sql);
    if (compiled.ok()) blocks[q] = static_cast<int64_t>(compiled->blocks.size());
  }

  gola::obs::MetricsRegistry::Global().Reset();
  const double steal_start = StealSeconds();
  std::vector<double> pass_peak_rss;
  for (int pass = 0; pass < passes; ++pass) {
    options.seed = PassSeed(config.seed, pass);
    RestartPeakRss();
    const Clock::time_point pass_start = Clock::now();
    double pass_online = 0, pass_batch = 0;
    for (size_t q = 0; q < queries.size(); ++q) {
      const gola::NamedQuery& query = queries[q];
      const auto qid = static_cast<int64_t>(q);
      QueryPass rec;

      std::optional<Table> exact;
      std::vector<double> batch_times;
      bool batch_failed = false;
      for (int rep = 0; rep < kLibraryBatchReps && !batch_failed; ++rep) {
        ++out.attempted;
        gola::Result<Table> result = [&] {
          ScopedSpan span(spans, "exec.batch", Layer::kExec, qid);
          const Clock::time_point b0 = Clock::now();
          gola::Result<Table> r = engine->ExecuteBatch(query.sql, batch_options);
          batch_times.push_back(SecondsBetween(b0, Clock::now()));
          return r;
        }();
        std::string why;
        if (!result.ok()) {
          RecordFailure(&out, query.name + " ExecuteBatch: " + result.status().ToString());
          batch_failed = true;
        } else if (!exact.has_value()) {
          exact = std::move(*result);
        } else if (!ResultsMatch(*result, *exact, &why)) {
          RecordFailure(&out, query.name + " ExecuteBatch answers differ: " + why);
        }
      }
      if (batch_failed) continue;
      rec.batch = Median(batch_times);

      ++out.attempted;
      const int32_t online_span = spans.Begin("online", Layer::kBench, qid);
      const Clock::time_point submit = Clock::now();
      std::unique_ptr<gola::OnlineQueryExecutor> exec;
      gola::Status st = gola::Status::OK();
      if (config.trace) {
        // ExecuteOnline split into its three public calls. The partitioner
        // uses the query's own {num_batches, row_shuffle, seed}: Prepare
        // checks only row and batch counts before attaching to it.
        Clock::time_point t = Clock::now();
        gola::Result<gola::CompiledQuery> compiled = [&] {
          ScopedSpan span(spans, "plan.compile", Layer::kPlan, qid);
          return engine->Compile(query.sql);
        }();
        rec.compile = SecondsBetween(t, Clock::now());
        std::shared_ptr<const gola::MiniBatchPartitioner> scan;
        if (compiled.ok()) {
          auto table = engine->GetTable(query.table);
          t = Clock::now();
          if (table.ok()) {
            ScopedSpan span(spans, "storage.partition", Layer::kStorage, qid);
            gola::MiniBatchOptions part;
            part.num_batches = options.num_batches;
            part.row_shuffle = options.row_shuffle;
            part.seed = options.seed;
            scan = std::make_shared<const gola::MiniBatchPartitioner>(**table, part);
          }
          rec.partition = SecondsBetween(t, Clock::now());
          t = Clock::now();
          {
            ScopedSpan span(spans, "gola.create", Layer::kGola, qid);
            auto created = gola::OnlineQueryExecutor::Create(
                &engine->catalog(), std::move(*compiled), options, scan);
            if (created.ok()) {
              exec = std::move(*created);
            } else {
              st = created.status();
            }
          }
          rec.prepare = SecondsBetween(t, Clock::now());
        } else {
          st = compiled.status();
        }
      } else {
        auto created = engine->ExecuteOnline(query.sql, options);
        if (created.ok()) {
          exec = std::move(*created);
        } else {
          st = created.status();
        }
      }

      OnlineUpdate last;
      bool rsd5_reached = false;
      while (st.ok() && !exec->done()) {
        const int32_t step_span = spans.Begin("gola.step", Layer::kGola, qid);
        const Clock::time_point s0 = Clock::now();
        gola::Result<OnlineUpdate> update = exec->Step();
        const Clock::time_point s1 = Clock::now();
        spans.End(step_span);
        if (!update.ok()) {
          st = update.status();
          break;
        }
        rec.step_wall += SecondsBetween(s0, s1);
        if (rec.steps.updates == 0) {
          rec.first_answer = SecondsBetween(submit, s1);
          rec.first_step = SecondsBetween(s0, s1);
        }
        rec.steps.Add(*update);
        if (!rsd5_reached && update->max_rsd <= kRsdTarget) {
          rsd5_reached = true;
          rec.rsd5 = SecondsBetween(submit, s1);
          rec.rsd5_batch = update->batch_index;
        }
        last = std::move(*update);
      }
      const Clock::time_point finished = Clock::now();
      spans.End(online_span);
      if (!st.ok()) {
        RecordFailure(&out, query.name + " online: " + st.ToString());
        continue;
      }
      rec.online = SecondsBetween(submit, finished);
      if (!rsd5_reached) {
        rec.rsd5 = rec.online;
        rec.rsd5_batch = last.batch_index;
      }
      rec.recomputes = last.recomputes_so_far;
      {
        ScopedSpan span(spans, "gola.destroy", Layer::kGola, qid);
        exec.reset();
      }
      {
        ScopedSpan span(spans, "check", Layer::kBench, qid);
        std::string why;
        if (!ResultsMatch(last.result, *exact, &why)) {
          RecordFailure(&out, query.name + " final answer differs from ExecuteBatch: " + why);
        }
      }
      pass_online += rec.online;
      pass_batch += rec.batch;
      runs[q].push_back(rec);
    }
    out.measured_wall_s += SecondsBetween(pass_start, Clock::now());
    pass_peak_rss.push_back(PeakRssMb());
    std::fprintf(stderr, "pass %d/%d: online %.3f s, batch %.3f s, peak rss %.1f MB\n",
                 pass + 1, passes, pass_online, pass_batch, pass_peak_rss.back());
    // Set-up is timed again after each pass, outside the passes' wall time
    // and peak RSS.
    RepeatSetup(config, /*with_tpch=*/true, /*with_dispatcher=*/false,
                DueAfter(kSetupReps - 1, pass, passes), spans, &setup);
  }
  out.config["steal_s"] = std::to_string(StealSeconds() - steal_start);
  const Snapshot snapshot;
  spans.End(root);

  // Per query: the median over passes; per run: the sum over queries.
  auto median_of = [&](size_t q, auto field) {
    std::vector<double> v;
    for (const QueryPass& p : runs[q]) v.push_back(field(p));
    return Median(std::move(v));
  };
  auto sum_of_medians = [&](auto field) {
    double total = 0;
    for (size_t q = 0; q < queries.size(); ++q) total += median_of(q, field);
    return total;
  };
  const double online_s = sum_of_medians([](const QueryPass& p) { return p.online; });
  const double batch_s = sum_of_medians([](const QueryPass& p) { return p.batch; });
  auto& e2e = out.end_to_end;
  e2e["setup_s"] = Median(setup.total);
  // A pass's peak depends on where the recomputes of its batch order fall,
  // so the run reports the median pass.
  e2e["peak_rss_mb"] = Median(pass_peak_rss);
  e2e["first_answer_s"] =
      sum_of_medians([](const QueryPass& p) { return p.first_answer; });
  e2e["time_to_rsd5_s"] = sum_of_medians([](const QueryPass& p) { return p.rsd5; });
  e2e["online_pass_s"] = online_s;
  e2e["batch_s"] = batch_s;
  e2e["updates_per_s"] =
      online_s > 0 ? static_cast<double>(queries.size() * kLibraryBatches) / online_s
                   : 0;
  // Eight unlike queries support no percentile: their median moves between
  // queries as timings shift and spread twice as much as their sum. The
  // library workloads report the mean first answer per query instead.
  e2e["ttfe_ms_p50"] = e2e["first_answer_s"] / static_cast<double>(queries.size()) * 1e3;

  // Counts are totals over every pass; a batch index is the lower median
  // over passes.
  StepTotals totals;
  int64_t recomputes = 0, plan_blocks = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    plan_blocks += blocks[q];
    std::vector<int64_t> rsd5_batches;
    for (const QueryPass& p : runs[q]) {
      totals.rows_in += p.steps.rows_in;
      totals.rows_folded += p.steps.rows_folded;
      totals.rows_uncertain += p.steps.rows_uncertain;
      totals.morsels += p.steps.morsels;
      totals.updates += p.steps.updates;
      recomputes += p.recomputes;
      rsd5_batches.push_back(p.rsd5_batch);
    }
    std::sort(rsd5_batches.begin(), rsd5_batches.end());
    out.counts["gola.rsd5_batch." + queries[q].name] =
        rsd5_batches.empty() ? 0 : rsd5_batches[(rsd5_batches.size() - 1) / 2];
  }
  out.counts["plan.blocks"] = plan_blocks;
  FillCountMetrics(totals, recomputes, kLibraryReplicates, passes, &out);

  auto& m = out.per_layer;
  m["workload.generate_s"] = Median(setup.generate);
  m["storage.register_s"] = Median(setup.register_);
  m["storage.partition_s"] = sum_of_medians([](const QueryPass& p) { return p.partition; });
  m["plan.compile_s"] = sum_of_medians([](const QueryPass& p) { return p.compile; });
  m["plan.blocks"] = static_cast<double>(plan_blocks);
  m["gola.prepare_s"] = sum_of_medians([](const QueryPass& p) { return p.prepare; });
  m["gola.first_step_s"] = sum_of_medians([](const QueryPass& p) { return p.first_step; });
  m["gola.envelope_s"] = sum_of_medians([](const QueryPass& p) { return p.steps.envelope; });
  m["gola.materialize_s"] =
      sum_of_medians([](const QueryPass& p) { return p.steps.materialize; });
  m["gola.bookkeeping_s"] =
      sum_of_medians([](const QueryPass& p) { return p.steps.bookkeeping(); });
  m["obs.telemetry_s"] = sum_of_medians(
      [](const QueryPass& p) { return p.step_wall - p.steps.batch_seconds; });
  m["gola.delta_s"] = sum_of_medians([](const QueryPass& p) { return p.steps.delta; });
  m["gola.emit_s"] = sum_of_medians([](const QueryPass& p) { return p.steps.emit; });
  m["gola.rebuild_s"] = sum_of_medians([](const QueryPass& p) { return p.steps.rebuild; });
  m["gola.online_over_batch"] = batch_s > 0 ? online_s / batch_s : 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::string& name = queries[q].name;
    const double batch = median_of(q, [](const QueryPass& p) { return p.batch; });
    const double online = median_of(q, [](const QueryPass& p) { return p.online; });
    m["exec.batch_s." + name] = batch;
    m["gola.online_s." + name] = online;
    m["gola.delta_s." + name] = median_of(q, [](const QueryPass& p) { return p.steps.delta; });
    m["gola.emit_s." + name] = median_of(q, [](const QueryPass& p) { return p.steps.emit; });
    m["gola.rebuild_s." + name] =
        median_of(q, [](const QueryPass& p) { return p.steps.rebuild; });
    m["gola.online_over_batch." + name] = batch > 0 ? online / batch : 0;
    m["gola.rsd5_batch." + name] =
        static_cast<double>(out.counts["gola.rsd5_batch." + name]);
  }
  for (const char* name : {"server.submit_ms_p50", "server.submit_samples",
                           "server.refresh_ms_p50", "server.refresh_ms_p99",
                           "server.refresh_samples", "server.ttfe_ms_p90",
                           "server.ttfe_samples", "server.scan_share_hits",
                           "server.scan_share_misses", "server.updates_dropped",
                           "server.updates_per_s_mean"}) {
    m[name] = 0;
  }
  FillSnapshotMetrics(snapshot, passes, &out);
  m["failed_frac"] =
      out.attempted > 0 ? static_cast<double>(out.failed) / out.attempted : 0;
  FillSelfTimes(spans, &out);
  WriteSpans(spans, config);

  out.config["passes"] = std::to_string(passes);
  out.config["pool_threads"] = std::to_string(pool_threads);
  out.config["batches"] = std::to_string(kLibraryBatches);
  out.config["replicates"] = std::to_string(kLibraryReplicates);
  out.config["queries"] = std::to_string(queries.size());
  out.config["setup_reps"] = std::to_string(kSetupReps);
  return out;
}

namespace {

/// Per-query library metrics that have no counterpart on the dashboard.
void ZeroLibraryOnlyMetrics(RunResult* out) {
  auto& m = out->per_layer;
  for (const char* name : {"storage.partition_s", "plan.compile_s", "gola.prepare_s",
                           "gola.first_step_s", "obs.telemetry_s"}) {
    m[name] = 0;
  }
  for (const gola::NamedQuery& q : gola::AllQueries()) {
    for (const char* prefix :
         {"exec.batch_s.", "gola.online_s.", "gola.delta_s.", "gola.emit_s.",
          "gola.rebuild_s.", "gola.online_over_batch.", "gola.rsd5_batch."}) {
      m[prefix + q.name] = 0;
    }
  }
}

struct Panel {
  const char* name;
  std::string sql;
};

/// The four bench_server fleet aggregates, SBI, and the geo panel of
/// examples/dashboard.cpp: light panels over one table.
std::vector<Panel> DashboardPanels() {
  return {
      {"fleet_play", "SELECT AVG(play_time) FROM conviva"},
      {"fleet_buffer",
       "SELECT AVG(buffer_time) FROM conviva WHERE bitrate_kbps > 2000"},
      {"fleet_failures",
       "SELECT COUNT(*) FROM conviva WHERE join_failure_rate > 0.1"},
      {"fleet_bitrate",
       "SELECT AVG(bitrate_kbps) FROM conviva WHERE start_hour >= 12"},
      {"SBI", gola::SbiQuery()},
      {"geo",
       "SELECT geo, AVG(join_failure_rate) AS jfr FROM conviva "
       "WHERE buffer_time > (SELECT AVG(buffer_time) FROM conviva) "
       "GROUP BY geo ORDER BY jfr DESC, geo LIMIT 5"},
  };
}

/// One client's current session, timed from its SubmitOnline call.
struct Client {
  gola::server::SessionPtr session;
  int panel = 0;
  int64_t id = -1;
  int64_t sessions = 0;  // submitted by this client so far
  Clock::time_point submit;
  Clock::time_point last_update;
  bool has_update = false;
  bool rsd5_reached = false;
  int64_t updates = 0;
  double ttfe = 0, rsd5 = 0, final_update = -1;
};

struct SessionRecord {
  int panel;
  double ttfe, rsd5, final_update;
};

}  // namespace

RunResult RunDashboard(const RunConfig& config) {
  RunResult out;
  SpanRecorder spans(config.trace);
  const int32_t root = spans.Begin("run", Layer::kBench);

  SetupTimes setup;
  std::unique_ptr<Engine> engine =
      SetupEngine(config, /*with_tpch=*/false, /*with_dispatcher=*/true, spans, &setup);
  const std::vector<Panel> panels = DashboardPanels();

  // Exact references: every session's final update is checked against them.
  // Repetitions go round-robin over the panels, so a slow spell of the
  // machine does not land on one panel's runs.
  std::vector<Table> reference(panels.size());
  std::vector<std::vector<double>> batch_times(panels.size());
  int64_t plan_blocks = 0;
  for (const Panel& panel : panels) {
    auto compiled = engine->Compile(panel.sql);
    if (compiled.ok()) plan_blocks += static_cast<int64_t>(compiled->blocks.size());
  }
  auto run_exact = [&](int reps) {
    for (int rep = 0; rep < reps; ++rep) {
      for (size_t p = 0; p < panels.size(); ++p) {
        ++out.attempted;
        ScopedSpan span(spans, "exec.batch", Layer::kExec, static_cast<int64_t>(p));
        const Clock::time_point b0 = Clock::now();
        gola::Result<Table> exact = engine->ExecuteBatch(panels[p].sql);
        batch_times[p].push_back(SecondsBetween(b0, Clock::now()));
        std::string why;
        if (!exact.ok()) {
          RecordFailure(&out, std::string(panels[p].name) +
                                  " ExecuteBatch: " + exact.status().ToString());
        } else if (reference[p].schema() == nullptr) {
          reference[p] = std::move(*exact);
        } else if (!ResultsMatch(*exact, reference[p], &why)) {
          RecordFailure(&out, std::string(panels[p].name) +
                                  " ExecuteBatch answers differ: " + why);
        }
      }
    }
  };
  run_exact(1);

  GolaOptions options;
  options.num_batches = kPanelBatches;
  options.bootstrap_replicates = kPanelReplicates;
  options.seed = config.seed;

  // Every three rounds each of the six panels runs twice (four clients, one
  // session each per round), so the round count is a multiple of three.
  const int cycles = std::max(
      1, static_cast<int>(std::lround(
             config.seconds / (3 * kDashboardRoundSecondsPer100k * config.rows / 1e5))));
  const int64_t total_sessions = int64_t{3} * cycles * kClients;

  std::vector<Client> clients(kClients);
  std::vector<SessionRecord> records;
  std::vector<double> submit_ms, refresh_ms, ttfe_ms;
  // Updates per completed panel cycle (three rounds) and its wall time.
  std::vector<double> cycle_rates;
  int64_t cycle_updates = 0;
  Clock::time_point cycle_start;
  StepTotals totals;
  int64_t recomputes = 0, dropped = 0, submitted = 0, completed = 0;

  auto submit = [&](int c) {
    Client& client = clients[static_cast<size_t>(c)];
    // Client c's j-th session shows panel (c + 4j) mod 6: the four sessions
    // of a round are four different panels.
    client.panel = static_cast<int>((c + kClients * client.sessions) %
                                    static_cast<int64_t>(panels.size()));
    ++client.sessions;
    client.id = submitted++;
    client.has_update = false;
    client.rsd5_reached = false;
    client.updates = 0;
    client.final_update = -1;
    ++out.attempted;
    gola::server::SessionOptions session_options;
    session_options.gola = options;
    // The client drains every update and counts its stats, so the cursor
    // must never shed one while the client thread is descheduled.
    session_options.max_pending_updates = kPanelBatches;
    const Clock::time_point t0 = Clock::now();
    gola::Result<gola::server::SessionPtr> session = [&] {
      ScopedSpan span(spans, "server.submit", Layer::kServer, client.id);
      return engine->SubmitOnline(panels[static_cast<size_t>(client.panel)].sql,
                                  session_options);
    }();
    const Clock::time_point t1 = Clock::now();
    submit_ms.push_back(SecondsBetween(t0, t1) * 1e3);
    client.submit = t0;
    if (!session.ok()) {
      RecordFailure(&out, std::string("SubmitOnline refused: ") +
                              session.status().ToString());
      client.session = nullptr;
      ++completed;
      return;
    }
    client.session = std::move(*session);
  };

  // Exact runs and set-ups are repeated after panel cycles, when no session
  // runs, outside the loop's wall time and peak RSS.
  double between_cycles_s = 0, loop_peak_rss = 0;
  auto after_cycle = [&](int cycle) {
    run_exact(DueAfter(kPanelBatchReps - 1, cycle, cycles));
    const int setups = DueAfter(kSetupReps - 1, cycle, cycles);
    if (setups > 0) {
      loop_peak_rss = std::max(loop_peak_rss, PeakRssMb());
      RepeatSetup(config, /*with_tpch=*/false, /*with_dispatcher=*/true, setups,
                  spans, &setup);
      RestartPeakRss();
    }
  };

  gola::obs::MetricsRegistry::Global().Reset();
  RestartPeakRss();
  const double steal_start = StealSeconds();
  const Clock::time_point loop_start = Clock::now();
  cycle_start = loop_start;
  const int32_t loop_span = spans.Begin("dashboard.loop", Layer::kBench);
  while (completed < total_sessions) {
    // A round starts once every session of the previous one has ended, so
    // the four sessions of a round share one scan (one miss, three hits)
    // however the threads happen to be scheduled.
    if (completed == submitted) {
      if (completed > 0 && completed % (3 * kClients) == 0) {
        const Clock::time_point t0 = Clock::now();
        after_cycle(static_cast<int>(completed / (3 * kClients)) - 1);
        cycle_start = Clock::now();
        between_cycles_s += SecondsBetween(t0, cycle_start);
      }
      for (int c = 0; c < kClients; ++c) submit(c);
    }
    bool progressed = false;
    for (int c = 0; c < kClients; ++c) {
      Client& client = clients[static_cast<size_t>(c)];
      if (client.session == nullptr) continue;
      // Read the state before draining: the final update is published
      // before the session turns terminal, so this drain then sees it.
      // Polling pending_updates() only takes the session's lock, while an
      // empty Next() also waits on its condition variable.
      const bool terminal =
          client.session->state() >= gola::server::SessionState::kDone;
      while (client.session->pending_updates() > 0) {
        OnlineUpdate update;
        bool got;
        {
          ScopedSpan span(spans, "server.next", Layer::kServer, client.id);
          got = client.session->Next(&update, std::chrono::milliseconds(0));
        }
        if (!got) break;
        progressed = true;
        const Clock::time_point now = Clock::now();
        totals.Add(update);
        ++client.updates;
        if (!client.has_update) {
          client.ttfe = SecondsBetween(client.submit, now);
        } else {
          refresh_ms.push_back(SecondsBetween(client.last_update, now) * 1e3);
        }
        client.has_update = true;
        client.last_update = now;
        if (!client.rsd5_reached && update.max_rsd <= kRsdTarget) {
          client.rsd5_reached = true;
          client.rsd5 = SecondsBetween(client.submit, now);
        }
        if (update.batch_index == update.total_batches) {
          client.final_update = SecondsBetween(client.submit, now);
        }
      }
      if (!terminal) continue;

      progressed = true;
      ++completed;
      cycle_updates += client.updates;
      if (completed % (3 * kClients) == 0) {
        const Clock::time_point now = Clock::now();
        cycle_rates.push_back(cycle_updates / SecondsBetween(cycle_start, now));
        cycle_start = now;
        cycle_updates = 0;
      }
      gola::Result<OnlineUpdate> final_update = [&] {
        ScopedSpan span(spans, "server.await", Layer::kServer, client.id);
        return client.session->Await();
      }();
      dropped += client.session->updates_dropped();
      {
        ScopedSpan span(spans, "check", Layer::kBench, client.id);
        const Panel& panel = panels[static_cast<size_t>(client.panel)];
        std::string why;
        if (!final_update.ok()) {
          RecordFailure(&out, std::string(panel.name) + " session: " +
                                  final_update.status().ToString());
        } else if (!client.has_update || client.final_update < 0) {
          RecordFailure(&out, std::string(panel.name) +
                                  " session: final update never reached the cursor");
        } else if (!ResultsMatch(final_update->result,
                                 reference[static_cast<size_t>(client.panel)], &why)) {
          RecordFailure(&out, std::string(panel.name) +
                                  " final answer differs from ExecuteBatch: " + why);
        } else {
          recomputes += final_update->recomputes_so_far;
          if (!client.rsd5_reached) client.rsd5 = client.final_update;
          ttfe_ms.push_back(client.ttfe * 1e3);
          records.push_back(
              {client.panel, client.ttfe, client.rsd5, client.final_update});
        }
      }
      client.session.reset();
    }
    if (!progressed) {
      ScopedSpan span(spans, "client.idle", Layer::kBench);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  spans.End(loop_span);
  const double loop_wall = SecondsBetween(loop_start, Clock::now()) - between_cycles_s;
  loop_peak_rss = std::max(loop_peak_rss, PeakRssMb());
  out.measured_wall_s = loop_wall;
  out.config["steal_s"] = std::to_string(StealSeconds() - steal_start);
  const gola::server::ScanShareStats scan = engine->sessions().scan_stats();
  const Snapshot snapshot;
  after_cycle(cycles - 1);
  spans.End(root);

  // Per panel: the median over its sessions; per run: the sum over panels.
  auto sum_of_panel_medians = [&](auto field) {
    double total = 0;
    for (size_t p = 0; p < panels.size(); ++p) {
      std::vector<double> v;
      for (const SessionRecord& r : records) {
        if (r.panel == static_cast<int>(p)) v.push_back(field(r));
      }
      total += Median(std::move(v));
    }
    return total;
  };
  double batch_s = 0;
  for (const std::vector<double>& times : batch_times) batch_s += Median(times);
  const double online_s =
      sum_of_panel_medians([](const SessionRecord& r) { return r.final_update; });

  auto& e2e = out.end_to_end;
  e2e["setup_s"] = Median(setup.total);
  e2e["peak_rss_mb"] = loop_peak_rss;
  e2e["first_answer_s"] = sum_of_panel_medians([](const SessionRecord& r) { return r.ttfe; });
  e2e["time_to_rsd5_s"] = sum_of_panel_medians([](const SessionRecord& r) { return r.rsd5; });
  e2e["online_pass_s"] = online_s;
  e2e["batch_s"] = batch_s;
  e2e["updates_per_s"] = Median(cycle_rates);
  e2e["ttfe_ms_p50"] = Median(ttfe_ms);

  out.counts["plan.blocks"] = plan_blocks;
  out.counts["server.scan_share_hits"] = scan.hits;
  out.counts["server.scan_share_misses"] = scan.misses;
  FillCountMetrics(totals, recomputes, kPanelReplicates, 1, &out);

  auto& m = out.per_layer;
  ZeroLibraryOnlyMetrics(&out);
  m["workload.generate_s"] = Median(setup.generate);
  m["storage.register_s"] = Median(setup.register_);
  m["plan.blocks"] = static_cast<double>(plan_blocks);
  m["gola.envelope_s"] = totals.envelope;
  m["gola.delta_s"] = totals.delta;
  m["gola.emit_s"] = totals.emit;
  m["gola.rebuild_s"] = totals.rebuild;
  m["gola.materialize_s"] = totals.materialize;
  m["gola.bookkeeping_s"] = totals.bookkeeping();
  m["gola.online_over_batch"] = batch_s > 0 ? online_s / batch_s : 0;
  m["server.submit_ms_p50"] = Median(submit_ms);
  m["server.submit_samples"] = static_cast<double>(submit_ms.size());
  m["server.refresh_ms_p50"] = Percentile(refresh_ms, 0.50);
  m["server.refresh_ms_p99"] = Percentile(refresh_ms, 0.99);
  m["server.refresh_samples"] = static_cast<double>(refresh_ms.size());
  m["server.ttfe_ms_p90"] = Percentile(ttfe_ms, 0.90);
  m["server.ttfe_samples"] = static_cast<double>(ttfe_ms.size());
  m["server.scan_share_hits"] = static_cast<double>(scan.hits);
  m["server.scan_share_misses"] = static_cast<double>(scan.misses);
  m["server.updates_dropped"] = static_cast<double>(dropped);
  m["server.updates_per_s_mean"] = loop_wall > 0 ? totals.updates / loop_wall : 0;
  FillSnapshotMetrics(snapshot, 1, &out);
  m["failed_frac"] =
      out.attempted > 0 ? static_cast<double>(out.failed) / out.attempted : 0;
  FillSelfTimes(spans, &out);
  WriteSpans(spans, config);

  out.config["clients"] = std::to_string(kClients);
  out.config["sessions"] = std::to_string(total_sessions);
  out.config["step_threads"] = std::to_string(std::max(1, config.nproc - 1));
  out.config["batches"] = std::to_string(kPanelBatches);
  out.config["replicates"] = std::to_string(kPanelReplicates);
  out.config["panels"] = std::to_string(panels.size());
  out.config["setup_reps"] = std::to_string(kSetupReps);
  return out;
}

}  // namespace perfbench
