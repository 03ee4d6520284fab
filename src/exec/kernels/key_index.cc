#include "exec/kernels/key_index.h"

#include <algorithm>
#include <cmath>

#include "exec/kernels/key_hash.h"

namespace gola {

namespace {

// Every numeric key hashes its widened double, so an int and a float that
// compare equal land in the same probe sequence.
inline uint64_t KeyHash(int64_t v) { return kernels::HashFloat(static_cast<double>(v)); }
inline uint64_t KeyHash(double v) { return kernels::HashFloat(v); }
inline uint64_t KeyHash(uint8_t v) { return v ? 2 : 1; }
inline uint64_t KeyHash(const std::string& v) { return kernels::HashString(v); }

inline bool KeyEq(int64_t k, int64_t p) { return k == p; }
inline bool KeyEq(int64_t k, double p) { return static_cast<double>(k) == p; }
inline bool KeyEq(double k, int64_t p) { return k == static_cast<double>(p); }
inline bool KeyEq(double k, double p) { return k == p; }
inline bool KeyEq(uint8_t k, uint8_t p) { return (k != 0) == (p != 0); }
inline bool KeyEq(const std::string& k, const std::string& p) { return k == p; }

inline bool Unindexable(double v) { return std::isnan(v); }
template <typename T>
inline bool Unindexable(const T&) {
  return false;
}

}  // namespace

template <typename Eq>
uint32_t KeyIndex::Lookup(uint64_t h, Eq eq) const {
  if (slots_.empty()) return kNone;
  const size_t mask = slots_.size() - 1;
  for (size_t idx = static_cast<size_t>(h) & mask;; idx = (idx + 1) & mask) {
    const uint32_t slot = slots_[idx];
    if (slot == 0) return kNone;
    if (hashes_[slot - 1] == h && eq(slot - 1)) return slot - 1;
  }
}

void KeyIndex::Place(uint64_t h, uint32_t id) {
  const size_t mask = slots_.size() - 1;
  size_t idx = static_cast<size_t>(h) & mask;
  while (slots_[idx] != 0) idx = (idx + 1) & mask;
  slots_[idx] = id + 1;
}

template <typename K>
void KeyIndex::InsertTyped(std::vector<K>& dict, const K* in, const uint8_t* nulls,
                           const std::vector<uint32_t>* sel, size_t n, uint32_t* ids) {
  for (size_t i = 0; i < n; ++i) {
    const uint32_t row = sel != nullptr ? (*sel)[i] : static_cast<uint32_t>(i);
    if ((nulls != nullptr && nulls[row] != 0) || Unindexable(in[row])) continue;
    const K& key = in[row];
    const uint64_t h = KeyHash(key);
    uint32_t id = Lookup(h, [&](uint32_t k) { return KeyEq(dict[k], key); });
    if (id == kNone) {
      id = static_cast<uint32_t>(dict.size());
      dict.push_back(key);
      hashes_.push_back(h);
      if (2 * hashes_.size() > slots_.size()) {
        slots_.assign(std::max<size_t>(16, 2 * slots_.size()), 0);
        for (uint32_t k = 0; k < hashes_.size(); ++k) Place(hashes_[k], k);
      } else {
        Place(h, id);
      }
    }
    if (ids != nullptr) ids[i] = id;
  }
}

template <typename K, typename P>
void KeyIndex::ProbeTyped(const std::vector<K>& dict, const P* in, const uint8_t* nulls,
                          const std::vector<uint32_t>* sel, size_t n,
                          uint32_t* ids) const {
  for (size_t i = 0; i < n; ++i) {
    const uint32_t row = sel != nullptr ? (*sel)[i] : static_cast<uint32_t>(i);
    if ((nulls != nullptr && nulls[row] != 0) || Unindexable(in[row])) continue;
    const P& key = in[row];
    ids[i] = Lookup(KeyHash(key), [&](uint32_t k) { return KeyEq(dict[k], key); });
  }
}

void KeyIndex::Insert(const Column& keys, const std::vector<uint32_t>* sel,
                      std::vector<uint32_t>* ids) {
  const size_t n = sel != nullptr ? sel->size() : keys.size();
  if (ids != nullptr) ids->assign(n, kNone);
  if (empty()) keys_ = Column(keys.type());
  if (keys.type() != keys_.type()) return;
  const uint8_t* nulls = keys.has_nulls() ? keys.nulls().data() : nullptr;
  uint32_t* out = ids != nullptr ? ids->data() : nullptr;
  switch (keys_.type()) {
    case TypeId::kBool:
      InsertTyped(keys_.mutable_bools(), keys.bools().data(), nulls, sel, n, out);
      break;
    case TypeId::kInt64:
      InsertTyped(keys_.mutable_ints(), keys.ints().data(), nulls, sel, n, out);
      break;
    case TypeId::kFloat64:
      InsertTyped(keys_.mutable_floats(), keys.floats().data(), nulls, sel, n, out);
      break;
    case TypeId::kString:
      InsertTyped(keys_.mutable_strings(), keys.strings().data(), nulls, sel, n, out);
      break;
    default:
      break;
  }
}

uint32_t KeyIndex::Insert(const Value& key) {
  if (key.is_null()) return kNone;
  Column one(key.type());
  one.Append(key);
  std::vector<uint32_t> ids;
  Insert(one, nullptr, &ids);
  return ids[0];
}

void KeyIndex::Probe(const Column& keys, const std::vector<uint32_t>* sel,
                     std::vector<uint32_t>* ids) const {
  const size_t n = sel != nullptr ? sel->size() : keys.size();
  ids->assign(n, kNone);
  if (empty() || n == 0) return;
  const uint8_t* nulls = keys.has_nulls() ? keys.nulls().data() : nullptr;
  uint32_t* out = ids->data();
  const TypeId kt = keys_.type();
  const TypeId pt = keys.type();
  if (kt == TypeId::kInt64 && pt == TypeId::kInt64) {
    ProbeTyped(keys_.ints(), keys.ints().data(), nulls, sel, n, out);
  } else if (kt == TypeId::kInt64 && pt == TypeId::kFloat64) {
    ProbeTyped(keys_.ints(), keys.floats().data(), nulls, sel, n, out);
  } else if (kt == TypeId::kFloat64 && pt == TypeId::kInt64) {
    ProbeTyped(keys_.floats(), keys.ints().data(), nulls, sel, n, out);
  } else if (kt == TypeId::kFloat64 && pt == TypeId::kFloat64) {
    ProbeTyped(keys_.floats(), keys.floats().data(), nulls, sel, n, out);
  } else if (kt == TypeId::kString && pt == TypeId::kString) {
    ProbeTyped(keys_.strings(), keys.strings().data(), nulls, sel, n, out);
  } else if (kt == TypeId::kBool && pt == TypeId::kBool) {
    ProbeTyped(keys_.bools(), keys.bools().data(), nulls, sel, n, out);
  }
}

}  // namespace gola
