// Typed key access and hashing shared by the group-id kernel and the key
// index: raw storage pointers per key column, and the per-type hashes both
// key their flat tables on, so neither boxes a Value per row.
#ifndef GOLA_EXEC_KERNELS_KEY_HASH_H_
#define GOLA_EXEC_KERNELS_KEY_HASH_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/random.h"
#include "storage/column.h"

namespace gola {
namespace kernels {

// Typed view of one key column: raw storage pointers, no per-row variant
// dispatch inside the probe loops.
struct KeyColView {
  TypeId type;
  const uint8_t* bools = nullptr;
  const int64_t* ints = nullptr;
  const double* floats = nullptr;
  const std::string* strings = nullptr;
  const uint8_t* nulls = nullptr;  // nullptr when the column has no null mask

  bool IsNull(uint32_t row) const { return nulls != nullptr && nulls[row] != 0; }
};

/// Fills `view` for `col`; false when the column's type has no typed path.
inline bool MakeKeyColView(const Column& col, KeyColView* view) {
  view->type = col.type();
  view->nulls = col.has_nulls() ? col.nulls().data() : nullptr;
  switch (col.type()) {
    case TypeId::kBool: view->bools = col.bools().data(); return true;
    case TypeId::kInt64: view->ints = col.ints().data(); return true;
    case TypeId::kFloat64: view->floats = col.floats().data(); return true;
    case TypeId::kString: view->strings = col.strings().data(); return true;
    default: return false;
  }
}

constexpr uint64_t kNullHash = 0x9e3779b97f4a7c15ULL;
// NaN keys can never match a resident key (NaN != NaN), so their hash only
// affects probe clustering, not correctness.
constexpr uint64_t kNanHash = 0xc2b2ae3d27d4eb4fULL;

inline uint64_t HashFloat(double v) {
  if (v == 0.0) return SplitMix64(0);  // -0.0 == 0.0: one key
  if (std::isnan(v)) return kNanHash;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return SplitMix64(bits);
}

inline uint64_t HashString(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
  return h;
}

}  // namespace kernels
}  // namespace gola

#endif  // GOLA_EXEC_KERNELS_KEY_HASH_H_
