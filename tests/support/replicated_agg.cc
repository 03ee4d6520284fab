#include "support/replicated_agg.h"

#include <limits>

#include "common/logging.h"

namespace gola {

ReplicatedAgg::ReplicatedAgg(const AggregateFunction* fn, const PoissonWeights* weights)
    : fn_(fn), weights_(weights), simple_(fn->simple_kind()), main_(fn->CreateState()) {
  size_t b = weights_ ? static_cast<size_t>(weights_->num_replicates()) : 0;
  if (simple_ != SimpleAggKind::kNone) {
    flat_sum_.assign(b, 0.0);
    flat_count_.assign(b, 0.0);
  } else {
    replicates_.reserve(b);
    for (size_t j = 0; j < b; ++j) replicates_.push_back(fn->CreateState());
  }
}

void ReplicatedAgg::UpdateNumericWeighted(double v, const int32_t* weights, size_t b) {
  main_->UpdateNumeric(v, 1.0);
  if (simple_ != SimpleAggKind::kNone) {
    // Weight 0 contributes nothing, so the loop can run unconditionally.
    for (size_t j = 0; j < b; ++j) {
      double w = static_cast<double>(weights[j]);
      flat_sum_[j] += v * w;
      flat_count_[j] += w;
    }
    return;
  }
  for (size_t j = 0; j < replicates_.size(); ++j) {
    int32_t w = weights[j];
    if (w > 0) replicates_[j]->UpdateNumeric(v, static_cast<double>(w));
  }
}

void ReplicatedAgg::UpdateValueWeighted(const Value& v, const int32_t* weights, size_t b) {
  if (simple_ != SimpleAggKind::kNone) {
    // A value that cannot widen to double (a string) still counts for COUNT,
    // as 1.0 — the way COUNT(*) counts a row. SUM and AVG skip it outright,
    // as the generic AggState path's default UpdateValue does: folding it as
    // 0.0 would bias their replicates and inflate every replicate count.
    auto d = v.ToDouble();
    if (!d.ok() && simple_ != SimpleAggKind::kCount) return;
    UpdateNumericWeighted(d.ok() ? *d : 1.0, weights, b);
    return;
  }
  main_->UpdateValue(v, 1.0);
  for (size_t j = 0; j < replicates_.size(); ++j) {
    int32_t w = weights[j];
    if (w > 0) replicates_[j]->UpdateValue(v, static_cast<double>(w));
  }
}

void ReplicatedAgg::UpdateNumericWeighted(double v, const std::vector<int32_t>& weights) {
  UpdateNumericWeighted(v, weights.data(), flat_sum_.size());
}

void ReplicatedAgg::UpdateValueWeighted(const Value& v, const std::vector<int32_t>& weights) {
  UpdateValueWeighted(v, weights.data(), flat_sum_.size());
}

void ReplicatedAgg::Merge(const ReplicatedAgg& other) {
  // Partials merged here must come from the same (function, weights)
  // configuration; a replicate-count mismatch would silently read past
  // other's arrays. Fail loudly instead.
  GOLA_CHECK(other.simple_ == simple_);
  GOLA_CHECK(other.flat_sum_.size() == flat_sum_.size());
  GOLA_CHECK(other.replicates_.size() == replicates_.size());
  main_->Merge(*other.main_);
  if (simple_ != SimpleAggKind::kNone) {
    for (size_t j = 0; j < flat_sum_.size(); ++j) {
      flat_sum_[j] += other.flat_sum_[j];
      flat_count_[j] += other.flat_count_[j];
    }
    return;
  }
  for (size_t j = 0; j < replicates_.size(); ++j) {
    replicates_[j]->Merge(*other.replicates_[j]);
  }
}

ReplicatedAgg ReplicatedAgg::Clone() const {
  ReplicatedAgg copy(fn_, weights_);
  copy.main_ = main_->Clone();
  if (simple_ != SimpleAggKind::kNone) {
    copy.flat_sum_ = flat_sum_;
    copy.flat_count_ = flat_count_;
    return copy;
  }
  copy.replicates_.clear();
  copy.replicates_.reserve(replicates_.size());
  for (const auto& rep : replicates_) copy.replicates_.push_back(rep->Clone());
  return copy;
}

Value ReplicatedAgg::Finalize(double scale) const { return main_->Finalize(scale); }

std::vector<double> ReplicatedAgg::FinalizeReplicates(double scale) const {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> out(num_replicates(), kNaN);
  if (simple_ != SimpleAggKind::kNone) {
    for (size_t j = 0; j < out.size(); ++j) {
      switch (simple_) {
        case SimpleAggKind::kCount:
          out[j] = flat_count_[j] * scale;
          break;
        case SimpleAggKind::kSum:
          if (flat_count_[j] > 0) out[j] = flat_sum_[j] * scale;
          break;
        case SimpleAggKind::kAvg:
          if (flat_count_[j] > 0) out[j] = flat_sum_[j] / flat_count_[j];
          break;
        case SimpleAggKind::kNone:
          break;
      }
    }
    return out;
  }
  for (size_t j = 0; j < replicates_.size(); ++j) {
    Value v = replicates_[j]->Finalize(scale);
    if (v.is_null()) continue;
    auto converted = v.ToDouble();
    if (converted.ok()) out[j] = *converted;
  }
  return out;
}

}  // namespace gola
