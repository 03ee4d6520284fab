// The boxed key lookup the KeyIndex replaced: an unordered_map from a boxed
// Value to a dense id, probed one GetValue per row. Kept as the reference
// the key index is checked and benchmarked against. Like the index it never
// holds a NULL or NaN key, and an int and a float compare as widened doubles
// (Value::operator==; ints beyond 2^53 hash apart from their widened double,
// so keep mixed-type keys small).
#ifndef GOLA_TESTS_SUPPORT_BOXED_KEY_MAP_H_
#define GOLA_TESTS_SUPPORT_BOXED_KEY_MAP_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "exec/kernels/key_index.h"
#include "storage/column.h"

namespace gola {
namespace oracle {

class BoxedKeyMap {
 public:
  /// The key's id: an equal key's, else the next dense one; kNone for NULL
  /// and NaN.
  uint32_t Insert(const Value& key);
  /// ids[i] = the id of row i's key, KeyIndex::kNone when absent.
  void Probe(const Column& keys, std::vector<uint32_t>* ids) const;
  size_t size() const { return map_.size(); }

 private:
  std::unordered_map<Value, uint32_t, ValueHash> map_;
};

}  // namespace oracle
}  // namespace gola

#endif  // GOLA_TESTS_SUPPORT_BOXED_KEY_MAP_H_
