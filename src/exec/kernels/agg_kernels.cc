#include "exec/kernels/agg_kernels.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.h"
#include "common/random.h"

namespace gola {
namespace kernels {

void AccumulateSimpleMain(AggState::SimpleSlots slots, const double* values,
                          double constant_value, const uint32_t* rows,
                          size_t num_rows) {
  if (num_rows == 0) return;
  double sum = slots.sum != nullptr ? *slots.sum : 0.0;
  double count = slots.count != nullptr ? *slots.count : 0.0;
  for (size_t i = 0; i < num_rows; ++i) {
    double v = values != nullptr ? values[rows[i]] : constant_value;
    sum += v;
    count += 1.0;
  }
  if (slots.sum != nullptr) *slots.sum = sum;
  if (slots.count != nullptr) *slots.count = count;
  if (slots.any != nullptr) *slots.any = true;
}

namespace {

// Rows drawn per block, and replicates per chunk (a multiple of four, so a
// quad never straddles chunks). A block's staged hashes and counted weights
// take 8 KiB of stack each.
constexpr size_t kBlockRows = 8;
constexpr size_t kChunk = 512;

// The table's weights never exceed 8 (P(Poisson(1) > 8) is below the
// 16-bit uniforms' resolution), so it has at most eight jump points.
constexpr int kMaxJumps = 8;

// Uniform k of a quad is bits [16k, 16k + 16) of its hash (WeightsFor's
// order), which is the k-th 16-bit word in memory only on little-endian.
static_assert(std::endian::native == std::endian::little,
              "DrawBlock reads a hash's 16-bit uniforms in memory order");

// Draws the Poisson(1) weights of rows[0, rn) in the chunk's quads
// [q0, q0 + qn) into w[r * 4 * qn + t] (replicate 4 * q0 + t). Two passes
// over the block: every row's hashes are stored whole, then read back as
// 16-bit uniforms, each weight being the number of inverse-CDF jump points
// at or below its uniform — the table lookup of WeightsFor, as eight
// compares the compiler vectorizes. Staging the whole block first keeps the
// counting loads clear of the hash stores still in flight.
void DrawBlock(const PoissonWeights& weights, const int64_t* serials,
               const uint32_t* rows, size_t rn, size_t q0, size_t qn,
               uint16_t* __restrict w) {
  alignas(64) unsigned char hashes[kBlockRows * kChunk * sizeof(uint16_t)];
  for (size_t r = 0; r < rn; ++r) {
    const int64_t serial = serials[rows[r]];
    unsigned char* __restrict out = hashes + r * qn * sizeof(uint64_t);
    for (size_t q = 0; q < qn; ++q) {
      const uint64_t h = SplitMix64(weights.QuadKey(serial, static_cast<int>(q0 + q)));
      std::memcpy(out + q * sizeof h, &h, sizeof h);
    }
  }
  // Missing jump points are 0, which every uniform reaches; `pad` takes
  // their counts back out.
  const auto& jumps = internal_random::GetPoisson1Jumps();
  GOLA_CHECK(jumps.n <= kMaxJumps);
  uint16_t jump[kMaxJumps] = {};
  for (int k = 0; k < jumps.n; ++k) jump[k] = static_cast<uint16_t>(jumps.jump[k]);
  const int pad = kMaxJumps - jumps.n;
  const size_t m = rn * qn * 4;
  for (size_t t = 0; t < m; ++t) {
    uint16_t u;
    std::memcpy(&u, hashes + t * sizeof u, sizeof u);
    int count = -pad;
    for (int k = 0; k < kMaxJumps; ++k) count += u >= jump[k] ? 1 : 0;
    w[t] = static_cast<uint16_t>(count);
  }
}

void AddTo(const uint16_t* __restrict w, double* __restrict acc, size_t n) {
  for (size_t t = 0; t < n; ++t) acc[t] += static_cast<double>(w[t]);
}

void AddScaledTo(double v, const uint16_t* __restrict w, double* __restrict acc, size_t n) {
  for (size_t t = 0; t < n; ++t) acc[t] += v * static_cast<double>(w[t]);
}

// A generic aggregate's replicates j0 + t at the row's positive weights w[t].
void UpdateGeneric(const ReplicateTarget& target, uint32_t row, const uint16_t* w,
                   size_t j0, size_t jn) {
  std::unique_ptr<AggState>* states = target.states + j0;
  if (target.values != nullptr) {
    const double v = target.values[row];
    for (size_t t = 0; t < jn; ++t) {
      if (w[t] > 0) states[t]->UpdateNumeric(v, static_cast<double>(w[t]));
    }
    return;
  }
  const Value v = target.column != nullptr ? target.column->GetValue(row) : Value::Int(1);
  for (size_t t = 0; t < jn; ++t) {
    if (w[t] > 0) states[t]->UpdateValue(v, static_cast<double>(w[t]));
  }
}

}  // namespace

void FoldReplicates(const PoissonWeights& weights, const int64_t* serials,
                    const uint32_t* rows, size_t num_rows,
                    const ReplicateTarget* targets, size_t num_targets) {
  const auto b = static_cast<size_t>(weights.num_replicates());
  if (num_rows == 0 || num_targets == 0 || b == 0) return;
  alignas(64) uint16_t w[kBlockRows * kChunk];
  alignas(64) uint16_t block_sum[kChunk];  // at most kBlockRows * kMaxJumps
  alignas(64) double wsum[kChunk];         // the weights of every row so far
  for (size_t j0 = 0; j0 < b; j0 += kChunk) {
    const size_t jn = std::min(b - j0, kChunk);
    const size_t stride = 4 * ((jn + 3) / 4);  // uniforms drawn per row
    std::fill(wsum, wsum + jn, 0.0);
    for (size_t i0 = 0; i0 < num_rows; i0 += kBlockRows) {
      const size_t rn = std::min(num_rows - i0, kBlockRows);
      DrawBlock(weights, serials, rows + i0, rn, j0 / 4, stride / 4, w);
      std::copy(w, w + jn, block_sum);
      for (size_t r = 1; r < rn; ++r) {
        const uint16_t* __restrict wr = w + r * stride;
        for (size_t t = 0; t < jn; ++t) block_sum[t] = static_cast<uint16_t>(block_sum[t] + wr[t]);
      }
      AddTo(block_sum, wsum, jn);
      for (size_t r = 0; r < rn; ++r) {
        const uint32_t row = rows[i0 + r];
        const uint16_t* wr = w + r * stride;
        for (size_t a = 0; a < num_targets; ++a) {
          const ReplicateTarget& target = targets[a];
          if (target.nulls != nullptr && target.nulls[row] != 0) continue;
          if (target.sums == nullptr) {
            UpdateGeneric(target, row, wr, j0, jn);
            continue;
          }
          if (target.values != nullptr) {
            AddScaledTo(target.values[row], wr, target.sums + j0, jn);
          }
          if (target.nulls != nullptr) {
            AddTo(wr, target.counts + j0, jn);
            if (target.values == nullptr) AddTo(wr, target.sums + j0, jn);
          }
        }
      }
    }
    // The null-free flat targets' count streams, and a count-like target's
    // sum stream, receive the integer weight sums in one add each.
    for (size_t a = 0; a < num_targets; ++a) {
      const ReplicateTarget& target = targets[a];
      if (target.sums == nullptr || target.nulls != nullptr) continue;
      for (size_t t = 0; t < jn; ++t) target.counts[j0 + t] += wsum[t];
      if (target.values == nullptr) {
        for (size_t t = 0; t < jn; ++t) target.sums[j0 + t] += wsum[t];
      }
    }
  }
}

}  // namespace kernels
}  // namespace gola
