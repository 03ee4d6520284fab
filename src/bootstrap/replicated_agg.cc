#include "bootstrap/replicated_agg.h"

#include <cmath>
#include <limits>

#include "common/logging.h"
#include "storage/serde.h"

namespace gola {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Status SaveAggState(BinaryWriter* w, const AggState& state) {
  std::vector<Value> vals;
  GOLA_RETURN_NOT_OK(state.SaveState(&vals));
  w->U32(static_cast<uint32_t>(vals.size()));
  for (const Value& v : vals) WriteValue(w, v);
  return Status::OK();
}

Status LoadAggState(BinaryReader* r, AggState* state) {
  GOLA_ASSIGN_OR_RETURN(uint32_t n, r->U32());
  if (n > (1u << 24)) return Status::IoError("aggregate state field count implausible");
  std::vector<Value> vals;
  vals.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    GOLA_ASSIGN_OR_RETURN(Value v, ReadValue(r));
    vals.push_back(std::move(v));
  }
  return state->LoadState(vals);
}

}  // namespace

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
    // Weight 0 contributes nothing, so the loop can run unconditionally —
    // two contiguous FMA sweeps the compiler vectorizes.
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

void ReplicatedAgg::UpdateNumeric(double v, int64_t serial) {
  if (weights_ == nullptr || weights_->num_replicates() == 0) {
    main_->UpdateNumeric(v, 1.0);
    return;
  }
  weights_->WeightsFor(serial, &weight_buf_);
  UpdateNumericWeighted(v, weight_buf_);
}

void ReplicatedAgg::UpdateValue(const Value& v, int64_t serial) {
  if (weights_ == nullptr || weights_->num_replicates() == 0) {
    main_->UpdateValue(v, 1.0);
    return;
  }
  weights_->WeightsFor(serial, &weight_buf_);
  UpdateValueWeighted(v, weight_buf_);
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
  std::vector<double> out(num_replicates());
  FinalizeReplicatesInto(scale, out.data());
  return out;
}

void ReplicatedAgg::FinalizeReplicatesInto(double scale, double* out) const {
  if (simple_ != SimpleAggKind::kNone) {
    const size_t b = flat_sum_.size();
    for (size_t j = 0; j < b; ++j) {
      double v = kNaN;
      switch (simple_) {
        case SimpleAggKind::kCount:
          v = flat_count_[j] * scale;
          break;
        case SimpleAggKind::kSum:
          if (flat_count_[j] > 0) v = flat_sum_[j] * scale;
          break;
        case SimpleAggKind::kAvg:
          if (flat_count_[j] > 0) v = flat_sum_[j] / flat_count_[j];
          break;
        case SimpleAggKind::kNone:
          break;
      }
      out[j] = v;
    }
    return;
  }
  for (size_t j = 0; j < replicates_.size(); ++j) {
    Value v = replicates_[j]->Finalize(scale);
    double d = kNaN;
    if (!v.is_null()) {
      auto converted = v.ToDouble();
      if (converted.ok()) d = *converted;
    }
    out[j] = d;
  }
}

Status ReplicatedAgg::SaveTo(BinaryWriter* w) const {
  w->U8(static_cast<uint8_t>(simple_));
  GOLA_RETURN_NOT_OK(SaveAggState(w, *main_));
  if (simple_ != SimpleAggKind::kNone) {
    w->U64(flat_sum_.size());
    w->Raw(flat_sum_.data(), flat_sum_.size() * sizeof(double));
    w->Raw(flat_count_.data(), flat_count_.size() * sizeof(double));
    return Status::OK();
  }
  w->U64(replicates_.size());
  for (const auto& rep : replicates_) {
    GOLA_RETURN_NOT_OK(SaveAggState(w, *rep));
  }
  return Status::OK();
}

Status ReplicatedAgg::LoadFrom(BinaryReader* r) {
  GOLA_ASSIGN_OR_RETURN(uint8_t kind, r->U8());
  if (kind != static_cast<uint8_t>(simple_)) {
    return Status::IoError("checkpointed aggregate fast-path kind mismatch");
  }
  GOLA_RETURN_NOT_OK(LoadAggState(r, main_.get()));
  GOLA_ASSIGN_OR_RETURN(uint64_t b, r->U64());
  if (simple_ != SimpleAggKind::kNone) {
    if (b != flat_sum_.size()) {
      return Status::IoError("checkpointed replicate count mismatch");
    }
    GOLA_RETURN_NOT_OK(r->Raw(flat_sum_.data(), b * sizeof(double)));
    return r->Raw(flat_count_.data(), b * sizeof(double));
  }
  if (b != replicates_.size()) {
    return Status::IoError("checkpointed replicate count mismatch");
  }
  for (auto& rep : replicates_) {
    GOLA_RETURN_NOT_OK(LoadAggState(r, rep.get()));
  }
  return Status::OK();
}

ConfidenceInterval ReplicatedAgg::CI(double scale, double level) const {
  Value est = Finalize(scale);
  double e = est.is_null() ? 0.0 : est.ToDouble().ValueOr(0.0);
  return PercentileCI(FinalizeReplicates(scale), e, level);
}

double ReplicatedAgg::Rsd(double scale) const {
  Value est = Finalize(scale);
  double e = est.is_null() ? 0.0 : est.ToDouble().ValueOr(0.0);
  return RelativeStdDev(FinalizeReplicates(scale), e);
}

VariationRange ReplicatedAgg::Range(double scale, double epsilon_mult) const {
  Value est = Finalize(scale);
  double e = est.is_null() ? 0.0 : est.ToDouble().ValueOr(0.0);
  return VariationRange::FromReplicates(FinalizeReplicates(scale), e, epsilon_mult);
}

}  // namespace gola
