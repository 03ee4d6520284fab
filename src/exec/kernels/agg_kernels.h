// Flat accumulation kernels for the SimpleAggKind fast paths. Both kernels
// replay the exact floating-point op sequence of a row-at-a-time fold (read
// accumulator, add selected rows in row order, write back), so they stay
// bit-identical to the tests' row-at-a-time oracle even when the target
// state already carries content (e.g. an overlay row copied from its base).
#ifndef GOLA_EXEC_KERNELS_AGG_KERNELS_H_
#define GOLA_EXEC_KERNELS_AGG_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "expr/aggregate.h"

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

/// One flat replicate-accumulator pair fed by the fused sweep below. The
/// value of entry i is values[vrows[i]], or `constant_value` when values is
/// nullptr (COUNT(*) uses 1.0).
struct ReplicateTarget {
  const double* values = nullptr;
  double constant_value = 0.0;
  double* sums = nullptr;    // B-length flat replicate sums
  double* counts = nullptr;  // B-length flat replicate counts
};

/// Fused tiled bootstrap-replicate update for one group: for each selected
/// entry i (in row order), every replicate j and every target a,
///   sums_a[j]   += v_{a,i} * w
///   counts_a[j] += w          where w = (double)wtile[wrow_i * b + j]
/// Entry i's weight row is wrows[i], or i itself when wrows is nullptr.
///
/// The result is bitwise what repeated UpdateNumericWeighted calls produce,
/// via two observations:
///  - The sum streams replay the reference op sequence per accumulator:
///    rows are added in ascending row order, and interleaving across
///    replicates and targets touches disjoint accumulators.
///  - The count streams only ever accumulate small integer weights, so every
///    partial sum is an integer far below 2^53 and each IEEE add is *exact*
///    — associativity holds bitwise. The kernel therefore folds the weight
///    tile's integer column sums (one int32 pass shared by all targets) into
///    each count stream with a single add per replicate instead of one per
///    row. A count-like target (COUNT(*): no value column, constant 1.0)
///    has a sum stream equal to its count stream, which collapses the same
///    way, leaving no per-row work at all.
/// Value-carrying sum streams are swept per row in blocks of up to four
/// (specialized inner loops); the caller keeps `wtile` small enough to stay
/// cache-resident.
///
/// `col_sums`, when non-null, must hold the b column sums of the first
/// num_rows weight rows of `wtile` (what FillMatrix's col_sums output
/// yields); it is consulted only when wrows == nullptr — i.e. when the
/// entry list covers exactly those rows — and saves the kernel its own
/// pass over the tile.
void TiledReplicateUpdate(const ReplicateTarget* targets, size_t num_targets,
                          const uint32_t* vrows, const uint32_t* wrows,
                          size_t num_rows, const int32_t* wtile, size_t b,
                          const int32_t* col_sums = nullptr);

}  // namespace kernels
}  // namespace gola

#endif  // GOLA_EXEC_KERNELS_AGG_KERNELS_H_
