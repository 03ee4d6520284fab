#include "obs/group_telemetry.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"

namespace gola {
namespace obs {

bool WorseCell(const GroupCell& a, const GroupCell& b) {
  // Absent RSD is "worse than anything measurable".
  if (a.has_rsd != b.has_rsd) return !a.has_rsd;
  if (a.has_rsd && a.rsd != b.rsd) return a.rsd > b.rsd;
  if (a.half_width() != b.half_width()) return a.half_width() > b.half_width();
  if (a.group_key != b.group_key) return a.group_key < b.group_key;
  return a.column < b.column;
}

std::string GroupConvergenceSummary::ToJson() const {
  std::string out = "{";
  out += Format(
      "\"cells_total\": %lld, \"groups_total\": %lld, "
      "\"groups_appeared\": %lld, \"groups_disappeared\": %lld, "
      "\"cells_without_rsd\": %lld, \"worst_rsd\": %.6g, "
      "\"worst_half_width\": %.6g, \"top\": [",
      static_cast<long long>(cells_total), static_cast<long long>(groups_total),
      static_cast<long long>(groups_appeared),
      static_cast<long long>(groups_disappeared),
      static_cast<long long>(cells_without_rsd), worst_rsd, worst_half_width);
  for (size_t i = 0; i < top.size(); ++i) {
    const GroupCell& c = top[i];
    if (i) out += ", ";
    out += "{\"key\": \"" + JsonEscape(c.group_key) + "\", \"column\": \"" +
           JsonEscape(c.column) + "\", ";
    if (c.has_estimate) {
      out += Format("\"estimate\": %.6g, \"ci_lo\": %.6g, \"ci_hi\": %.6g, ",
                    c.estimate, c.ci_lo, c.ci_hi);
    } else {
      out += "\"estimate\": null, ";
    }
    if (c.has_rsd) {
      out += Format("\"rsd\": %.6g}", c.rsd);
    } else {
      out += "\"rsd\": null}";
    }
  }
  out += "]}";
  return out;
}

GroupTelemetryTracker::GroupTelemetryTracker(int top_k)
    : top_k_(std::max(top_k, 1)) {}

const GroupConvergenceSummary& GroupTelemetryTracker::Observe(
    const std::vector<GroupCell>& cells) {
  GroupConvergenceSummary next;
  next.cells_total = static_cast<int64_t>(cells.size());

  std::unordered_set<std::string> keys;
  keys.reserve(cells.size());
  for (const GroupCell& c : cells) {
    keys.insert(c.group_key);
    if (c.has_rsd) {
      next.worst_rsd = std::max(next.worst_rsd, c.rsd);
    } else {
      ++next.cells_without_rsd;
    }
    if (c.has_estimate) {
      next.worst_half_width = std::max(next.worst_half_width, c.half_width());
    }
  }
  next.groups_total = static_cast<int64_t>(keys.size());
  for (const std::string& k : keys) {
    if (prev_keys_.find(k) == prev_keys_.end()) ++next.groups_appeared;
  }
  for (const std::string& k : prev_keys_) {
    if (keys.find(k) == keys.end()) ++next.groups_disappeared;
  }

  // Keep only the K worst cells: partial_sort beats a full sort when the
  // group count is large (the whole point of the bounded summary).
  std::vector<const GroupCell*> order;
  order.reserve(cells.size());
  for (const GroupCell& c : cells) order.push_back(&c);
  const size_t k = std::min(cells.size(), static_cast<size_t>(top_k_));
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [](const GroupCell* a, const GroupCell* b) {
                      return WorseCell(*a, *b);
                    });
  next.top.reserve(k);
  for (size_t i = 0; i < k; ++i) next.top.push_back(*order[i]);

  prev_keys_ = std::move(keys);
  summary_ = std::move(next);
  return summary_;
}

}  // namespace obs
}  // namespace gola
