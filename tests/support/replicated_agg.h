// ReplicatedAgg: one aggregate kept as a main state plus B poissonized
// bootstrap replicate states, updated one row at a time — the per-group
// state of the row-at-a-time oracle (support/row_fold.h). The engine keeps
// the same state in GroupArena columns instead (gola/online_agg.h); tests
// compare the two bit for bit.
//
// COUNT/SUM/AVG keep their replicates as flat (sum, count) arrays, as the
// arena's flat columns do; other aggregates keep B AggStates.
#ifndef GOLA_TESTS_SUPPORT_REPLICATED_AGG_H_
#define GOLA_TESTS_SUPPORT_REPLICATED_AGG_H_

#include <memory>
#include <vector>

#include "bootstrap/poisson.h"
#include "expr/aggregate.h"

namespace gola {

class ReplicatedAgg {
 public:
  /// `fn` and `weights` must outlive this object.
  ReplicatedAgg(const AggregateFunction* fn, const PoissonWeights* weights);

  ReplicatedAgg(ReplicatedAgg&&) = default;
  ReplicatedAgg& operator=(ReplicatedAgg&&) = default;

  /// Accumulates one observation under the tuple's replicate weights (one
  /// per replicate, e.g. PoissonWeights::WeightsFor of its serial).
  void UpdateNumericWeighted(double v, const std::vector<int32_t>& weights);
  void UpdateValueWeighted(const Value& v, const std::vector<int32_t>& weights);

  /// Pointer forms for callers holding a row of a precomputed weight
  /// matrix; `b` must equal num_replicates().
  void UpdateNumericWeighted(double v, const int32_t* weights, size_t b);
  void UpdateValueWeighted(const Value& v, const int32_t* weights, size_t b);

  /// Merging partials built against a different replicate count would read
  /// out of bounds; it is always a caller bug (checked).
  void Merge(const ReplicatedAgg& other);

  /// Deep copy (the oracle's overlay clones touched base groups).
  ReplicatedAgg Clone() const;

  /// Point estimate under the multiplicity scale.
  Value Finalize(double scale) const;

  /// Replicate outputs, index-aligned with replicate ids; undefined results
  /// (e.g. SUM over an empty replicate) are NaN. Scale applied the same way
  /// as Finalize.
  std::vector<double> FinalizeReplicates(double scale) const;
  size_t num_replicates() const {
    return has_flat_replicates() ? flat_sum_.size() : replicates_.size();
  }

  // State access for kernels and comparisons. The flat arrays and the main
  // state's SimpleSlots are what the fold kernels accumulate into.
  bool has_flat_replicates() const { return simple_ != SimpleAggKind::kNone; }
  double* flat_sum_data() { return flat_sum_.data(); }
  double* flat_count_data() { return flat_count_.data(); }
  const double* flat_sum_data() const { return flat_sum_.data(); }
  const double* flat_count_data() const { return flat_count_.data(); }
  AggState* main_state() const { return main_.get(); }
  /// Replicate j's state (generic aggregates only).
  const AggState& replicate_state(size_t j) const { return *replicates_[j]; }
  /// The B replicate states (generic aggregates only), for kernels that
  /// update them in place.
  std::unique_ptr<AggState>* replicate_states() { return replicates_.data(); }

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
};

}  // namespace gola

#endif  // GOLA_TESTS_SUPPORT_REPLICATED_AGG_H_
