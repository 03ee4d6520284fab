#include "support/boxed_key_map.h"

#include <cmath>

namespace gola {
namespace oracle {

uint32_t BoxedKeyMap::Insert(const Value& key) {
  if (key.is_null()) return KeyIndex::kNone;
  if (key.type() == TypeId::kFloat64 && std::isnan(key.AsFloat())) return KeyIndex::kNone;
  auto [it, inserted] = map_.emplace(key, static_cast<uint32_t>(map_.size()));
  return it->second;
}

void BoxedKeyMap::Probe(const Column& keys, std::vector<uint32_t>* ids) const {
  ids->assign(keys.size(), KeyIndex::kNone);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (keys.IsNull(i)) continue;
    auto it = map_.find(keys.GetValue(i));
    if (it != map_.end()) (*ids)[i] = it->second;
  }
}

}  // namespace oracle
}  // namespace gola
