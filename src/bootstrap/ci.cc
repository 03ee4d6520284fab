#include "bootstrap/ci.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/string_util.h"

namespace gola {

std::string ConfidenceInterval::ToString() const {
  return Format("[%.6g, %.6g] @%.0f%%", lo, hi, level * 100);
}

ConfidenceInterval PercentileCI(std::vector<double> replicates, double estimate,
                                double level) {
  std::vector<double> scratch;
  return PercentileCI(replicates.data(), replicates.size(), estimate, level, &scratch);
}

ConfidenceInterval PercentileCI(const double* replicates, size_t n, double estimate,
                                double level, std::vector<double>* scratch) {
  ConfidenceInterval ci;
  ci.level = level;
  std::vector<double>& sorted = *scratch;
  sorted.clear();
  for (size_t j = 0; j < n; ++j) {
    if (!std::isnan(replicates[j])) sorted.push_back(replicates[j]);
  }
  if (sorted.size() < 2) {
    ci.lo = ci.hi = estimate;
    return ci;
  }
  std::sort(sorted.begin(), sorted.end());
  double alpha = (1.0 - level) / 2.0;
  auto quantile = [&](double q) {
    double pos = q * static_cast<double>(sorted.size() - 1);
    size_t lo_idx = static_cast<size_t>(pos);
    size_t hi_idx = std::min(lo_idx + 1, sorted.size() - 1);
    double frac = pos - static_cast<double>(lo_idx);
    return sorted[lo_idx] * (1 - frac) + sorted[hi_idx] * frac;
  };
  ci.lo = quantile(alpha);
  ci.hi = quantile(1.0 - alpha);
  return ci;
}

double ReplicateMean(const double* replicates, size_t n) {
  double s = 0;
  size_t count = 0;
  for (size_t j = 0; j < n; ++j) {
    if (std::isnan(replicates[j])) continue;
    s += replicates[j];
    ++count;
  }
  return count == 0 ? 0 : s / static_cast<double>(count);
}

double ReplicateStddev(const double* replicates, size_t n) {
  double mean = ReplicateMean(replicates, n);
  double ss = 0;
  size_t count = 0;
  for (size_t j = 0; j < n; ++j) {
    const double v = replicates[j];
    if (std::isnan(v)) continue;
    ss += (v - mean) * (v - mean);
    ++count;
  }
  if (count < 2) return 0;
  return std::sqrt(ss / static_cast<double>(count - 1));
}

double ReplicateMean(const std::vector<double>& replicates) {
  return ReplicateMean(replicates.data(), replicates.size());
}

double ReplicateStddev(const std::vector<double>& replicates) {
  return ReplicateStddev(replicates.data(), replicates.size());
}

double RelativeStdDev(const double* replicates, size_t n, double estimate) {
  if (estimate == 0) return std::numeric_limits<double>::quiet_NaN();
  return ReplicateStddev(replicates, n) / std::fabs(estimate);
}

double RelativeStdDev(const std::vector<double>& replicates, double estimate) {
  return RelativeStdDev(replicates.data(), replicates.size(), estimate);
}

VariationRange VariationRange::FromReplicates(const std::vector<double>& replicates,
                                              double estimate, double epsilon_mult) {
  return FromReplicates(replicates.data(), replicates.size(), estimate, epsilon_mult,
                        ReplicateStddev(replicates));
}

VariationRange VariationRange::FromReplicates(const double* replicates, size_t n,
                                              double estimate, double epsilon_mult,
                                              double stddev) {
  double lo = estimate;
  double hi = estimate;
  bool any = false;
  for (size_t j = 0; j < n; ++j) {
    const double v = replicates[j];
    if (std::isnan(v)) continue;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    any = true;
  }
  if (!any) return Point(estimate);
  double eps = epsilon_mult * stddev;
  return {lo - eps, hi + eps};
}

std::string VariationRange::ToString() const {
  return Format("R[%.6g, %.6g]", lo, hi);
}

}  // namespace gola
