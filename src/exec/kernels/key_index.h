// A persistent dictionary from one typed key column to dense ids — the
// lookup side of every keyed broadcast (a correlated subquery's per-key
// values, an IN subquery's set, the online engine's per-key classification
// state) and of the dimension join. Where the group-id kernel assigns ids
// to one morsel's keys and forgets them, an index keeps its keys across
// calls: it is built once and then probed a whole key column at a time,
// hashing raw column storage instead of a boxed Value per row.
//
// Equality is Value::operator== except that NULL never matches: ints
// compare exactly, an int and a float compare as widened doubles (an int 1
// finds a float 1.0), -0.0 matches 0.0, strings and bools compare by value,
// and keys of other type pairs never match. NULL and NaN keys are never
// indexed and never found.
#ifndef GOLA_EXEC_KERNELS_KEY_INDEX_H_
#define GOLA_EXEC_KERNELS_KEY_INDEX_H_

#include <cstdint>
#include <vector>

#include "storage/column.h"

namespace gola {

class KeyIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// Number of indexed keys; their ids are 0 .. size() - 1.
  size_t size() const { return hashes_.size(); }
  bool empty() const { return hashes_.empty(); }

  /// The indexed keys in id order: key id i is row i. Its type is that of
  /// the first key inserted.
  const Column& keys() const { return keys_; }
  Value KeyAt(uint32_t id) const { return keys_.GetValue(id); }

  /// Indexes rows `*sel` of `keys` (every row when `sel` is null), in that
  /// order. ids[i] is the id of the i-th indexed row: an equal key's id when
  /// one is indexed already, else the next dense id. NULL and NaN rows get
  /// kNone, and so does every row when `keys` is of another type than the
  /// keys indexed so far. `ids` may be null.
  void Insert(const Column& keys, const std::vector<uint32_t>* sel,
              std::vector<uint32_t>* ids);
  /// One boxed key; its id, or kNone as above.
  uint32_t Insert(const Value& key);

  /// ids[i] = the id of the key at row (*sel)[i] of `keys` (row i when `sel`
  /// is null), kNone when no equal key is indexed.
  void Probe(const Column& keys, const std::vector<uint32_t>* sel,
             std::vector<uint32_t>* ids) const;

 private:
  template <typename Eq>
  uint32_t Lookup(uint64_t h, Eq eq) const;
  template <typename K>
  void InsertTyped(std::vector<K>& dict, const K* in, const uint8_t* nulls,
                   const std::vector<uint32_t>* sel, size_t n, uint32_t* ids);
  template <typename K, typename P>
  void ProbeTyped(const std::vector<K>& dict, const P* in, const uint8_t* nulls,
                  const std::vector<uint32_t>* sel, size_t n, uint32_t* ids) const;
  void Place(uint64_t h, uint32_t id);

  Column keys_;
  std::vector<uint64_t> hashes_;  // per id
  /// Open addressing with linear probing, load factor <= 0.5: id + 1 per
  /// slot, 0 when empty.
  std::vector<uint32_t> slots_;
};

}  // namespace gola

#endif  // GOLA_EXEC_KERNELS_KEY_INDEX_H_
