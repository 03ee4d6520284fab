// Deterministic poissonized-resampling weights (the BlinkDB technique the
// paper builds its error estimation on, §2.2/§4).
//
// A classical bootstrap trial resamples |D_i| tuples with replacement; for
// large samples the number of times a given tuple appears in a trial is
// Poisson(1)-distributed and nearly independent across tuples. Maintaining
// B replicate aggregate states where tuple t updates replicate j with
// weight Poisson_j(1) therefore yields B incrementally-maintained bootstrap
// trials — available at *every* mini-batch without re-running Monte-Carlo.
//
// Weights are a pure function of (seed, tuple serial, replicate id): a
// range-failure recompute (§3.2) that rescans all seen batches rebuilds
// bit-identical replicate states.
#ifndef GOLA_BOOTSTRAP_POISSON_H_
#define GOLA_BOOTSTRAP_POISSON_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace gola {

class PoissonWeights {
 public:
  PoissonWeights(int num_replicates, uint64_t seed)
      : num_replicates_(num_replicates), seed_(seed) {}

  int num_replicates() const { return num_replicates_; }

  /// Poisson(1) weight of tuple `serial` in replicate `replicate`.
  int32_t Weight(int64_t serial, int replicate) const {
    int32_t quad[4];
    StatelessPoisson1x4(QuadKey(serial, replicate / 4), quad);
    return quad[replicate % 4];
  }

  /// All replicate weights of one tuple, written into `out` (resized to B).
  /// One hash serves four replicates (16 bits of uniform each). This is the
  /// table-lookup reference: the fold kernel (kernels::FoldReplicates)
  /// counts inverse-CDF jump points instead and must match it exactly.
  void WeightsFor(int64_t serial, std::vector<int32_t>* out) const {
    out->resize(static_cast<size_t>(num_replicates_));
    int32_t quad[4];
    int j = 0;
    for (; j + 4 <= num_replicates_; j += 4) {
      StatelessPoisson1x4(QuadKey(serial, j / 4), quad);
      (*out)[static_cast<size_t>(j)] = quad[0];
      (*out)[static_cast<size_t>(j + 1)] = quad[1];
      (*out)[static_cast<size_t>(j + 2)] = quad[2];
      (*out)[static_cast<size_t>(j + 3)] = quad[3];
    }
    if (j < num_replicates_) {
      StatelessPoisson1x4(QuadKey(serial, j / 4), quad);
      for (int r = 0; r < 4 && j < num_replicates_; ++j, ++r) {
        (*out)[static_cast<size_t>(j)] = quad[r];
      }
    }
  }

  /// The key of tuple `serial`'s quad `quad`: SplitMix64 of it holds the
  /// 16-bit uniforms of replicates 4 * quad .. 4 * quad + 3, lowest bits
  /// first.
  uint64_t QuadKey(int64_t serial, int quad) const {
    return seed_ ^ (static_cast<uint64_t>(serial) * 0x9E3779B97F4A7C15ULL) ^
           (static_cast<uint64_t>(quad) * 0xC2B2AE3D27D4EB4FULL);
  }

 private:
  int num_replicates_;
  uint64_t seed_;
};

}  // namespace gola

#endif  // GOLA_BOOTSTRAP_POISSON_H_
