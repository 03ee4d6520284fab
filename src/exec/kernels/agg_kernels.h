// Flat accumulation kernels: the point states' fast path and the fused
// bootstrap-replicate fold. Both replay the exact floating-point op sequence
// of a row-at-a-time fold (read accumulator, add rows in row order, write
// back), so they stay bit-identical to the tests' row-at-a-time oracle even
// when the target state already carries content (e.g. an overlay row copied
// from its base).
#ifndef GOLA_EXEC_KERNELS_AGG_KERNELS_H_
#define GOLA_EXEC_KERNELS_AGG_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "bootstrap/poisson.h"
#include "expr/aggregate.h"
#include "storage/column.h"

namespace gola {
namespace kernels {

/// Replays UpdateNumeric(v, 1.0) for each selected row into a simple state's
/// accumulator slots. `values` is indexed by row id and may be nullptr, in
/// which case every row contributes `constant_value` (COUNT(*) uses 1.0).
/// The sum/count accumulators are kept in registers across the row run and
/// stored once at the end.
void AccumulateSimpleMain(AggState::SimpleSlots slots, const double* values,
                          double constant_value, const uint32_t* rows,
                          size_t num_rows);

/// One aggregate's B replicates, fed by FoldReplicates. Every pointer
/// indexed by row is indexed by chunk row id. Row r's argument is
/// values[r] when `values` is set, else column->GetValue(r) when `column` is
/// set (a generic aggregate whose argument does not widen to double), else
/// the constant 1 (COUNT(*), and COUNT over a column that does not widen).
/// Rows with nulls[r] != 0 are skipped.
struct ReplicateTarget {
  const double* values = nullptr;
  const Column* column = nullptr;
  const uint8_t* nulls = nullptr;
  /// A flat (COUNT/SUM/AVG) aggregate's B weighted sums and counts.
  double* sums = nullptr;
  double* counts = nullptr;
  /// A generic aggregate's B replicate states (used when sums is nullptr);
  /// replicate j is updated at weight w when w > 0.
  std::unique_ptr<AggState>* states = nullptr;
};

/// Folds one group's rows into the replicates of every target: for each row
/// i (ascending), each replicate j and each target a,
///   sums_a[j] += v_{a,i} * w   and   counts_a[j] += w,
/// where w is tuple serials[rows[i]]'s Poisson(1) weight in replicate j —
/// exactly PoissonWeights::WeightsFor's. Generic targets take the same
/// weights through their replicate states.
///
/// The weights are drawn in blocks of rows into a stack buffer and summed
/// from there at once; no weight matrix is written to memory. The result is
/// bitwise what per-row ReplicatedAgg updates produce, because
///  - each value stream adds v * w per row in ascending row order, the
///    oracle's op sequence (interleaving across replicates and targets
///    touches disjoint accumulators), and
///  - count streams only ever add small integer weights, so every partial
///    sum is an integer far below 2^53 and each IEEE add is exact:
///    associativity holds bitwise. Null-free targets therefore share one sum
///    of the rows' weights, added once per call; a count-like target (no
///    value: its sum stream equals its count stream) has no per-row work at
///    all. A null-bearing target adds its non-null rows' weights itself.
void FoldReplicates(const PoissonWeights& weights, const int64_t* serials,
                    const uint32_t* rows, size_t num_rows,
                    const ReplicateTarget* targets, size_t num_targets);

}  // namespace kernels
}  // namespace gola

#endif  // GOLA_EXEC_KERNELS_AGG_KERNELS_H_
