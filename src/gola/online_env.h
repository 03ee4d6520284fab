// Online-engine options and the per-batch broadcast fabric between lineage
// blocks: point estimates for expression evaluation plus range / tri-state
// views for deterministic-vs-uncertain classification (paper §3.2).
#ifndef GOLA_GOLA_ONLINE_ENV_H_
#define GOLA_GOLA_ONLINE_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bootstrap/ci.h"
#include "common/thread_pool.h"
#include "expr/evaluator.h"
#include "gola/uncertain.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"

namespace gola {

/// Engine-level knobs for online execution.
struct GolaOptions {
  int num_batches = 100;
  /// Bootstrap replicates B; at least 2, or every variation range is a point.
  int bootstrap_replicates = 100;
  /// ε multiplier in R(u) = [min(û) − ε, max(û) + ε], ε = mult · stddev(û).
  /// The paper recommends 1·σ (§3.2); this implementation defaults to 3·σ:
  /// with incrementally-maintained replicates the range extremes drift as
  /// random walks, and 3·σ empirically drives the recompute rate to ≲1 per
  /// 100 batches across the workload suite while keeping the uncertain
  /// sets small (bench_epsilon regenerates the trade-off curve).
  double epsilon_mult = 3.0;
  /// Deterministic classification against a scalar subquery value requires
  /// the value's group to have at least this many observations: variation
  /// ranges estimated from a handful of rows are too unstable to hang a
  /// classification envelope on (each violation forces a full recompute).
  int64_t min_group_support = 30;
  double ci_level = 0.95;
  uint64_t seed = 42;
  /// Pre-shuffle rows (the paper's shuffle preprocessing tool); false keeps
  /// only partition-wise randomness.
  bool row_shuffle = true;
  /// Worker pool for the morsel-parallel delta pipelines (null → every
  /// batch runs on the calling thread). Results are bit-identical across
  /// pool sizes: the morsel plan and partial-merge order never depend on it.
  ThreadPool* pool = nullptr;
  /// When non-empty, the query enables the global tracer and writes a
  /// Chrome trace-event JSON (chrome://tracing / Perfetto-loadable) of the
  /// whole online run to this path once the last mini-batch drains. Spans
  /// never change results — tracing only observes.
  std::string trace_path;
  /// TCP port for the process-wide live-introspection HTTP server
  /// (GET /metrics, /statusz, /tracez, /flightz on loopback). -1 (default)
  /// consults the GOLA_HTTP_PORT env var and stays off when that is unset
  /// too; 0 binds an ephemeral port (obs::IntrospectionServer()->port()
  /// reports it). The first query to ask starts the server; later ports
  /// are ignored — one server per process.
  int http_port = -1;
  /// When non-empty, every OnlineUpdate appends one JSONL record —
  /// estimate, CI bounds, rsd, |U_i|, per-phase seconds — to this path:
  /// the §5/Fig-3 convergence trajectory as a reusable artifact
  /// (tools/plot_convergence.py turns it into CSV/SVG). Truncated at
  /// query start; one query per file.
  std::string convergence_path;
  /// When non-empty (or GOLA_FLIGHT_PATH is set), the flight recorder's
  /// recent-event ring is dumped to this path on every range-failure
  /// rebuild, and a fatal-signal handler is installed that writes
  /// `<path>.crash` — a crash or pathological recompute leaves a
  /// postmortem trail.
  std::string flight_path;
  /// When false, Step() skips the result-table copy on intermediate
  /// batches (OnlineUpdate::result stays empty; max_rsd, uncertain counts
  /// and stats are still filled), so live monitoring of huge group-bys
  /// does not pay materialize_seconds every batch. The final batch always
  /// materializes — the answer Run() returns stays complete.
  bool materialize_results = true;
  /// Resilience: extra attempts for a morsel (or a whole batch pipeline /
  /// rebuild) whose execution fails with a retryable error — injected
  /// faults, thrown exceptions, I/O hiccups. Morsel plans are deterministic,
  /// so retries reproduce bit-identical state. 0 disables retrying.
  int max_morsel_retries = 2;
  /// Base of the exponential retry backoff (doubles per attempt).
  int retry_backoff_ms = 1;
  /// Soft wall-clock deadline for the whole online run, on the clock of
  /// OnlineUpdate::elapsed_seconds (wall time since the executor was
  /// created). 0 (default) disables it. A query that overruns never errors:
  /// the controller finishes the in-flight batch and then degrades in
  /// documented order — at 50% of the deadline it stops materializing
  /// intermediate results, at 75% it halves the replicates used for CI
  /// evaluation (classification still uses the full set, keeping results
  /// deterministic), and at 100% it stops early and returns the best
  /// available estimate with its CI, flagged via OnlineUpdate::degradation.
  double deadline_ms = 0;
  /// Label set attached to this query's metric series (DESIGN.md §13). The
  /// session layer fills session_id and table; when session_id is set, the
  /// controller additionally records into per-session labeled families
  /// (`gola_online_batch_us{session_id=...}`, per-phase histograms) on top
  /// of the global unlabeled ones. Leave empty for zero extra cost.
  obs::MetricLabels metrics_labels;
  /// Per-group convergence telemetry (DESIGN.md §14): every update, the
  /// root emission's typed cells are folded into a bounded
  /// top-K-worst-cells summary plus group-churn counts, exported through
  /// /timez (`gola_group_rsd{rank=...}`), /statusz, the convergence JSONL
  /// and the wide-event query log. K bounds the export, not the scan.
  /// 0 disables per-group extraction entirely.
  int group_top_k = 8;
  /// Convergence-watchdog thresholds (stalled RSD, CI-width blowups,
  /// unbounded uncertain-set growth); see obs/watchdog.h. Alerts surface as
  /// `gola_watchdog_alerts_total{kind=...}` counters, /statusz warnings and
  /// query-log lifecycle events. watchdog.enabled = false turns it off.
  obs::WatchdogOptions watchdog;
};

/// Per-batch broadcast of a scalar subquery: point estimate plus the core
/// replicate range (failure detection) and the ε-padded variation range
/// (classification).
struct ScalarEntry {
  Value point;
  VariationRange core;
  VariationRange padded;
  /// Raw observation count behind the value (gates envelope installation).
  int64_t support = 0;
};

struct ScalarBroadcast {
  bool keyed = false;
  ScalarEntry global;
  /// Keyed: the correlation keys, and entries[id] for key id.
  std::shared_ptr<const KeyIndex> keys;
  std::vector<ScalarEntry> entries;
};

/// A membership block's answer frozen at its last Emit: the IN set the point
/// environment reads, and per key id what downstream classification needs.
/// One immutable view per batch, so concurrent classifiers read it without
/// locks.
struct MembershipView : MemberSet {
  /// No HAVING: a key's presence can only be established, never revoked.
  bool monotone = false;
  /// A usable classification conjunct and a threshold to compare it with
  /// (`lhs cmp threshold`); without one, every key stays uncertain.
  bool decisive = false;
  CmpOp cmp = CmpOp::kGt;
  VariationRange threshold = VariationRange::Point(0);
  /// Per key id: the conjunct's lhs running value (NULL where it has none),
  /// and the key's range classification.
  Column point_lhs;
  std::vector<TriState> answers;

  /// Range-based classification of "key ∈ result set": deterministic only
  /// when the key's own variation range clears the threshold range.
  TriState ClassifyKey(uint32_t id) const {
    if (id == KeyIndex::kNone) return TriState::kUncertain;
    if (monotone) return member[id] ? TriState::kTrue : TriState::kUncertain;
    return decisive ? answers[id] : TriState::kUncertain;
  }
  /// Decision-validity monitor: the key's *current running value* compared
  /// against the *current* threshold range. A consumer that folded tuples
  /// under decision d must recompute when this no longer returns d — but a
  /// value drifting around far from the threshold never triggers. kUncertain
  /// for an unknown key or without a threshold.
  TriState CurrentPointDecision(uint32_t id) const {
    if (id == KeyIndex::kNone) return TriState::kUncertain;
    if (monotone) return member[id] ? TriState::kTrue : TriState::kUncertain;
    if (!decisive || point_lhs.IsNull(id)) return TriState::kUncertain;
    return ClassifyCmpRange(cmp, point_lhs.NumericAt(id), threshold);
  }
};

/// The per-batch communication fabric between blocks: point estimates for
/// expression evaluation plus range/tri-state views for classification.
class OnlineEnv {
 public:
  BroadcastEnv& point_env() { return point_; }
  const BroadcastEnv& point_env() const { return point_; }

  /// Also gives the point environment the broadcast's key index and a point
  /// column aligned with its ids.
  void SetScalar(int id, ScalarBroadcast b);
  /// The point environment's IN set is the view itself.
  void SetMembership(int id, std::shared_ptr<const MembershipView> view);

  const ScalarBroadcast* scalar(int id) const;
  const MembershipView* membership(int id) const;

 private:
  BroadcastEnv point_;
  std::unordered_map<int, ScalarBroadcast> scalars_;
  std::unordered_map<int, std::shared_ptr<const MembershipView>> memberships_;
};

}  // namespace gola

#endif  // GOLA_GOLA_ONLINE_ENV_H_
