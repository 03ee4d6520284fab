// ReplicatedAgg: one aggregate maintained as a main state plus B
// poissonized bootstrap replicate states. This is the unit the online
// engine keeps per (aggregate, group): estimates, confidence intervals and
// variation ranges all come out of the same object at every mini-batch.
//
// COUNT/SUM/AVG — the workhorses of OLAP and the hot loop of the online
// engine — store their replicates as flat (sum, count) arrays instead of B
// virtual states: replicate maintenance becomes two fused multiply-add
// sweeps over contiguous doubles. Other aggregates use the generic AggState
// path.
#ifndef GOLA_BOOTSTRAP_REPLICATED_AGG_H_
#define GOLA_BOOTSTRAP_REPLICATED_AGG_H_

#include <memory>
#include <vector>

#include "bootstrap/ci.h"
#include "bootstrap/poisson.h"
#include "expr/aggregate.h"

namespace gola {

class BinaryReader;
class BinaryWriter;

class ReplicatedAgg {
 public:
  /// `fn` and `weights` must outlive this object (both are owned by the
  /// query-level executor).
  ReplicatedAgg(const AggregateFunction* fn, const PoissonWeights* weights);

  ReplicatedAgg(ReplicatedAgg&&) = default;
  ReplicatedAgg& operator=(ReplicatedAgg&&) = default;

  /// Accumulates one observation. `serial` is the tuple's global stream
  /// position (keys the replicate weights).
  void UpdateNumeric(double v, int64_t serial);
  void UpdateValue(const Value& v, int64_t serial);

  /// Same, with the tuple's replicate weights precomputed by the caller —
  /// lets a block compute the weight vector once per row and reuse it for
  /// every aggregate.
  void UpdateNumericWeighted(double v, const std::vector<int32_t>& weights);
  void UpdateValueWeighted(const Value& v, const std::vector<int32_t>& weights);

  /// Pointer forms for callers holding a row of a precomputed weight matrix
  /// (the kernel fold); `b` must equal num_replicates().
  void UpdateNumericWeighted(double v, const int32_t* weights, size_t b);
  void UpdateValueWeighted(const Value& v, const int32_t* weights, size_t b);

  /// Merging partials built against a different replicate count would read
  /// out of bounds; it is always a caller bug (checked).
  void Merge(const ReplicatedAgg& other);

  /// Deep copy (used to fold the uncertain set into a snapshot per batch).
  ReplicatedAgg Clone() const;

  /// Point estimate under the multiplicity scale.
  Value Finalize(double scale) const;

  /// Replicate outputs, index-aligned with replicate ids (replicate j is
  /// one consistent bootstrap world across the whole query); undefined
  /// results (e.g. SUM over an empty replicate) are NaN. Scale applied the
  /// same way as Finalize.
  std::vector<double> FinalizeReplicates(double scale) const;
  /// The same written into `out`, which holds num_replicates() doubles.
  void FinalizeReplicatesInto(double scale, double* out) const;
  size_t num_replicates() const {
    return has_flat_replicates() ? flat_sum_.size() : replicates_.size();
  }

  /// Convenience wrappers over the finalize outputs.
  ConfidenceInterval CI(double scale, double level = 0.95) const;
  double Rsd(double scale) const;
  VariationRange Range(double scale, double epsilon_mult) const;

  const AggregateFunction* function() const { return fn_; }

  /// Checkpoint round-trip. LoadFrom expects `this` to be freshly
  /// constructed from the same (function, weights) pair the checkpoint was
  /// taken with; mismatched replicate counts or fast-path kinds are I/O
  /// errors, not surprises.
  Status SaveTo(BinaryWriter* w) const;
  Status LoadFrom(BinaryReader* r);

  // Vectorized-kernel access. The tiled replicate-update kernel accumulates
  // straight into the flat arrays (and into main_ through its SimpleSlots),
  // replaying the exact per-row add sequence UpdateNumericWeighted performs.
  bool has_flat_replicates() const { return simple_ != SimpleAggKind::kNone; }
  size_t num_flat_replicates() const { return flat_sum_.size(); }
  double* flat_sum_data() { return flat_sum_.data(); }
  double* flat_count_data() { return flat_count_.data(); }
  AggState* main_state() { return main_.get(); }

 private:
  const AggregateFunction* fn_;
  const PoissonWeights* weights_;
  SimpleAggKind simple_;
  std::unique_ptr<AggState> main_;

  // Generic path.
  std::vector<std::unique_ptr<AggState>> replicates_;
  // Flat fast path (simple_ != kNone): per-replicate weighted sum & count.
  std::vector<double> flat_sum_;
  std::vector<double> flat_count_;

  mutable std::vector<int32_t> weight_buf_;
};

}  // namespace gola

#endif  // GOLA_BOOTSTRAP_REPLICATED_AGG_H_
