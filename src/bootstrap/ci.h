// Error estimates derived from bootstrap replicate outputs: confidence
// intervals, relative standard deviation, and the variation ranges R(u)
// that drive deterministic/uncertain classification (paper §3.2).
#ifndef GOLA_BOOTSTRAP_CI_H_
#define GOLA_BOOTSTRAP_CI_H_

#include <string>
#include <vector>

namespace gola {

struct ConfidenceInterval {
  double lo = 0;
  double hi = 0;
  double level = 0.95;

  std::string ToString() const;
};

/// Percentile-method CI at the given level from replicate outputs (NaN
/// entries, undefined replicates, are skipped). Falls back to
/// [estimate, estimate] when fewer than 2 replicates exist.
ConfidenceInterval PercentileCI(std::vector<double> replicates, double estimate,
                                double level = 0.95);
/// The same over `n` contiguous values, sorting a copy in `scratch` so a
/// caller computing many intervals reuses one buffer.
ConfidenceInterval PercentileCI(const double* replicates, size_t n, double estimate,
                                double level, std::vector<double>* scratch);

/// Mean and (sample) standard deviation of the replicate outputs.
double ReplicateMean(const std::vector<double>& replicates);
double ReplicateStddev(const std::vector<double>& replicates);
double ReplicateMean(const double* replicates, size_t n);
double ReplicateStddev(const double* replicates, size_t n);

/// Relative standard deviation: stddev(replicates) / |estimate|. This is the
/// y-axis of the paper's Figure 3(a). NaN when the estimate is 0: a spread
/// relative to nothing is undefined, and reading it as 0 would call an
/// answer converged that has not seen a single qualifying row.
double RelativeStdDev(const std::vector<double>& replicates, double estimate);
double RelativeStdDev(const double* replicates, size_t n, double estimate);

/// The variation range R(u) = [min(û) − ε, max(û) + ε] of §3.2, where
/// ε = epsilon_mult * stddev(û); the paper recommends epsilon_mult = 1.
struct VariationRange {
  double lo = 0;
  double hi = 0;

  bool Contains(double v) const { return v >= lo && v <= hi; }
  bool Contains(const VariationRange& other) const {
    return other.lo >= lo && other.hi <= hi;
  }
  bool Overlaps(const VariationRange& other) const {
    return lo <= other.hi && other.lo <= hi;
  }
  double width() const { return hi - lo; }

  static VariationRange FromReplicates(const std::vector<double>& replicates,
                                       double estimate, double epsilon_mult);
  /// The same with ReplicateStddev(replicates, n) supplied by the caller, so
  /// one key's core and padded ranges share a single stddev pass.
  static VariationRange FromReplicates(const double* replicates, size_t n,
                                       double estimate, double epsilon_mult,
                                       double stddev);
  static VariationRange Point(double v) { return {v, v}; }

  std::string ToString() const;
};

}  // namespace gola

#endif  // GOLA_BOOTSTRAP_CI_H_
