// Aggregate-function framework.
//
// Aggregate states are (1) weighted — the same Update path serves the main
// estimate (weight 1) and the poissonized bootstrap replicates (weight
// Poisson(1)); (2) mergeable — partial states from parallel partitions
// combine associatively; (3) clonable — the online engine snapshots the
// deterministic-set state each mini-batch and folds the uncertain set into
// the copy (paper §3.2); and (4) finalized under a multiplicity scale — the
// multiset semantics Q(D_i, k/i) of §2.2 multiply extensive aggregates
// (COUNT, SUM) by k/i while intensive ones (AVG, MIN, ...) are scale-free.
#ifndef GOLA_EXPR_AGGREGATE_H_
#define GOLA_EXPR_AGGREGATE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "expr/expr.h"
#include "storage/value.h"

namespace gola {

class AggState {
 public:
  virtual ~AggState() = default;

  /// Accumulates a numeric observation with weight `w` (w = 0 is a no-op).
  virtual void UpdateNumeric(double v, double w) = 0;

  /// Accumulates an arbitrary Value (needed by MIN/MAX over strings).
  /// Default widens to double; NULLs are skipped by the caller.
  virtual void UpdateValue(const Value& v, double w) {
    auto d = v.ToDouble();
    if (d.ok()) UpdateNumeric(*d, w);
  }

  virtual void Merge(const AggState& other) = 0;
  virtual Value Finalize(double scale) const = 0;
  virtual std::unique_ptr<AggState> Clone() const = 0;

  /// Direct accumulator access for the vectorized kernels. States whose
  /// UpdateNumeric(v, 1.0) is exactly "sum += v; count += 1; any = true"
  /// over some subset of these slots expose them here; everything else
  /// returns empty slots and goes through the virtual per-row path. A
  /// kernel using the slots must replicate the per-row add sequence of
  /// repeated UpdateNumeric calls (read slot, add rows in order, write
  /// back) so the kernels stay bit-identical to a row-at-a-time fold.
  struct SimpleSlots {
    double* sum = nullptr;
    double* count = nullptr;
    bool* any = nullptr;

    bool usable() const { return sum != nullptr || count != nullptr; }
  };
  virtual SimpleSlots simple_slots() { return {}; }

  /// Checkpoint support: flattens the state's dynamic fields into Values
  /// (the checkpoint layer handles the wire encoding). LoadState runs on a
  /// freshly CreateState()'d object of the same function, so constructor
  /// parameters (MIN vs MAX, the quantile q) need not round-trip. All
  /// built-ins implement both; the defaults keep third-party states
  /// compiling but make them non-checkpointable.
  virtual Status SaveState(std::vector<Value>* out) const {
    (void)out;
    return Status::NotImplemented("aggregate state does not support checkpointing");
  }
  virtual Status LoadState(const std::vector<Value>& vals) {
    (void)vals;
    return Status::NotImplemented("aggregate state does not support checkpointing");
  }
};

/// Aggregates with (weighted sum, weighted count) sufficient statistics are
/// flat in the online engine's GroupArena (gola/online_agg.h): a main-state
/// slot triple and two B-double replicate rows instead of B AggStates, since
/// bootstrap replicate maintenance is its hot loop. The arena finalizes
/// these kinds from the slots itself, as their states' Finalize does.
enum class SimpleAggKind { kNone, kCount, kSum, kAvg };

class AggregateFunction {
 public:
  virtual ~AggregateFunction() = default;
  virtual const char* name() const = 0;
  /// Result type given the argument type (kNull for COUNT(*)).
  virtual Result<TypeId> ResultType(TypeId input) const = 0;
  virtual std::unique_ptr<AggState> CreateState() const = 0;
  /// True when Finalize multiplies by the multiplicity scale (COUNT/SUM).
  virtual bool ScalesWithMultiplicity() const = 0;
  /// Non-kNone enables the flat replicate fast path.
  virtual SimpleAggKind simple_kind() const { return SimpleAggKind::kNone; }
};

/// Resolves a bound kAggregateCall expression to its function descriptor
/// (built-in kinds or a registered UDAF by name).
Result<const AggregateFunction*> ResolveAggregate(const Expr& agg_call);

/// A UDAF described by plain functions over a double accumulator vector.
struct SimpleUdafSpec {
  std::string name;
  TypeId result_type = TypeId::kFloat64;
  bool scales_with_multiplicity = false;
  size_t state_size = 1;
  std::function<void(std::vector<double>& acc, double v, double w)> step;
  std::function<void(std::vector<double>& acc, const std::vector<double>& other)> merge;
  std::function<double(const std::vector<double>& acc, double scale)> finalize;
};

/// Registers (or replaces) a UDAF in the process-wide registry.
Status RegisterUdaf(SimpleUdafSpec spec);

}  // namespace gola

#endif  // GOLA_EXPR_AGGREGATE_H_
