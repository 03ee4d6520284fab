#include "gola/online_stages.h"

#include "common/logging.h"
#include "obs/metrics.h"
#include "storage/serde.h"

namespace gola {

const char* RangeFailureName(RangeFailure cause) {
  switch (cause) {
    case RangeFailure::kNone: return "none";
    case RangeFailure::kGlobalEnvelope: return "global_envelope";
    case RangeFailure::kKeyedEnvelope: return "keyed_envelope";
    case RangeFailure::kKeyVanished: return "key_vanished";
    case RangeFailure::kMemberFlip: return "member_flip";
    case RangeFailure::kInjected: return "injected";
  }
  return "?";
}

// --------------------------------------------------- OnlineClassifyStage --

OnlineClassifyStage::OnlineClassifyStage(const BlockDef* block,
                                         const GolaOptions* options)
    : block_(block), options_(options) {
  for (const auto& uc : block_->uncertain_conjuncts) {
    point_exprs_.push_back(uc.ToPointExpr());
  }
  ResetEnvelopes();
}

Result<std::vector<uint8_t>> OnlineClassifyStage::PassFlags(
    const Chunk& uncertain, const BroadcastEnv* point) const {
  const size_t n = uncertain.num_rows();
  std::vector<uint8_t> pass(n, 1);
  if (n == 0) return pass;
  for (const auto& pred : point_exprs_) {
    GOLA_ASSIGN_OR_RETURN(std::vector<uint8_t> sel,
                          EvaluatePredicate(*pred, uncertain, point));
    for (size_t i = 0; i < n; ++i) pass[i] &= sel[i];
  }
  return pass;
}

void OnlineClassifyStage::ResetEnvelopes() {
  conj_states_.assign(block_->uncertain_conjuncts.size(), ConjunctState{});
  pending_.clear();
}

Result<RangeFailure> OnlineClassifyStage::CheckEnvelopes(OnlineEnv* env) {
  for (size_t c = 0; c < block_->uncertain_conjuncts.size(); ++c) {
    const UncertainConjunct& uc = block_->uncertain_conjuncts[c];
    ConjunctState& cs = conj_states_[c];
    switch (uc.form) {
      case UncertainConjunct::Form::kScalarCmp: {
        const ScalarBroadcast* sb = env->scalar(uc.subquery_id);
        if (sb == nullptr) break;
        if (cs.has_global) {
          const ScalarEntry& e = sb->global;
          // Failure: the running value or a bootstrap output escaped the
          // envelope (§3.2). The ε padding is slack, not part of the check.
          if (!cs.global_envelope.Contains(e.core)) {
            return RangeFailure::kGlobalEnvelope;
          }
          if (cs.global_envelope.Contains(e.padded)) cs.global_envelope = e.padded;
        }
        for (auto& [key, envelope] : cs.keyed_envelopes) {
          const ScalarEntry* e = sb->Find(key);
          if (e == nullptr) return RangeFailure::kKeyVanished;
          if (!envelope.Contains(e->core)) return RangeFailure::kKeyedEnvelope;
          if (envelope.Contains(e->padded)) envelope = e->padded;
        }
        break;
      }
      case UncertainConjunct::Form::kMembership: {
        MembershipSource* src = env->membership(uc.subquery_id);
        if (src == nullptr) break;
        for (const auto& [key, decision] : cs.member_decisions) {
          // Decision-validity check: the key's current running value vs the
          // current threshold range. Values drifting far from the threshold
          // never trigger; only decisions at risk of flipping do.
          TriState now = src->CurrentPointDecision(key);
          if (now != (decision.is_member ? TriState::kTrue : TriState::kFalse)) {
            return RangeFailure::kMemberFlip;
          }
        }
        break;
      }
      case UncertainConjunct::Form::kOpaque:
        break;  // never classified deterministically → nothing to violate
    }
  }
  return RangeFailure::kNone;
}

void OnlineClassifyStage::BeginBatch(size_t num_morsels) {
  pending_.assign(num_morsels, std::vector<ConjInstalls>());
}

TriState OnlineClassifyStage::ClassifyScalarRow(const UncertainConjunct& uc,
                                                const ConjunctState& cs, double lhs,
                                                const Value& key,
                                                ConjInstalls* installs) const {
  const ScalarBroadcast* sb = env_->scalar(uc.subquery_id);
  if (sb == nullptr) return TriState::kUncertain;

  const VariationRange* envelope = nullptr;
  if (uc.outer_key) {
    auto it = cs.keyed_envelopes.find(key);
    if (it != cs.keyed_envelopes.end()) envelope = &it->second;
  } else if (cs.has_global) {
    envelope = &cs.global_envelope;
  }
  if (envelope != nullptr) return ClassifyCmpRange(uc.cmp, lhs, *envelope);

  const ScalarEntry* entry = sb->Find(uc.outer_key ? key : Value());
  if (entry == nullptr || entry->point.is_null()) return TriState::kUncertain;
  // Too few observations behind the value → its range estimate is not yet
  // trustworthy; deferring classification avoids installing an envelope
  // that would almost surely be violated (forcing a full recompute).
  if (entry->support < options_->min_group_support) return TriState::kUncertain;
  TriState t = ClassifyCmpRange(uc.cmp, lhs, entry->padded);
  if (t != TriState::kUncertain) {
    // First deterministic decision under this range: record the install so
    // EndBatch hangs the envelope for future batches to monitor. The
    // envelope equals the broadcast's current padded range no matter which
    // row (or morsel) records it, so deferring cannot change any
    // classification within this batch.
    if (uc.outer_key) {
      installs->keyed.emplace(key, entry->padded);
    } else {
      installs->has_global = true;
      installs->global = entry->padded;
    }
  }
  return t;
}

Result<ClassifyStage::Split> OnlineClassifyStage::Classify(size_t morsel_index,
                                                           Chunk in,
                                                           const ExecContext& ctx) {
  Split out;
  size_t n = in.num_rows();
  if (n == 0 || block_->uncertain_conjuncts.empty()) {
    out.fold = std::move(in);
    return out;
  }
  const BroadcastEnv* point = ctx.env;
  std::vector<ConjInstalls>& installs = pending_[morsel_index];
  installs.assign(block_->uncertain_conjuncts.size(), ConjInstalls{});

  // Per-conjunct inputs.
  struct ConjunctCols {
    Column lhs;   // scalar: lhs values; membership: keys
    Column keys;  // scalar correlated: outer keys
  };
  std::vector<ConjunctCols> inputs(block_->uncertain_conjuncts.size());
  for (size_t c = 0; c < block_->uncertain_conjuncts.size(); ++c) {
    const UncertainConjunct& uc = block_->uncertain_conjuncts[c];
    if (uc.form == UncertainConjunct::Form::kOpaque) continue;
    GOLA_ASSIGN_OR_RETURN(inputs[c].lhs, Evaluate(*uc.lhs, in, point));
    if (uc.form == UncertainConjunct::Form::kScalarCmp && uc.outer_key) {
      GOLA_ASSIGN_OR_RETURN(inputs[c].keys, Evaluate(*uc.outer_key, in, point));
    }
  }

  // Selection vectors, not boolean masks: each row lands in at most one of
  // the two survivor lists, and the split is materialized with one gather
  // per side instead of two full-width mask filters.
  SelectionVector fold_sel;
  SelectionVector uncertain_sel;
  for (size_t i = 0; i < n; ++i) {
    TriState combined = TriState::kTrue;
    for (size_t c = 0; c < block_->uncertain_conjuncts.size(); ++c) {
      const UncertainConjunct& uc = block_->uncertain_conjuncts[c];
      TriState t = TriState::kUncertain;
      switch (uc.form) {
        case UncertainConjunct::Form::kScalarCmp: {
          if (inputs[c].lhs.IsNull(i)) {
            t = TriState::kFalse;  // NULL comparisons are false in this engine
            break;
          }
          Value key = uc.outer_key ? inputs[c].keys.GetValue(i) : Value();
          t = ClassifyScalarRow(uc, conj_states_[c], inputs[c].lhs.NumericAt(i), key,
                                &installs[c]);
          break;
        }
        case UncertainConjunct::Form::kMembership: {
          if (inputs[c].lhs.IsNull(i)) {
            t = TriState::kFalse;
            break;
          }
          Value key = inputs[c].lhs.GetValue(i);
          const ConjunctState& cs = conj_states_[c];
          bool have = false;
          bool is_member = false;
          auto it = cs.member_decisions.find(key);
          if (it != cs.member_decisions.end()) {
            have = true;
            is_member = it->second.is_member;
          } else {
            // Decided earlier in this morsel? (Upstream answers are frozen
            // during a batch, so re-asking would return the same value —
            // this just skips the upstream call.)
            auto pit = installs[c].members.find(key);
            if (pit != installs[c].members.end()) {
              have = true;
              is_member = pit->second;
            } else {
              MembershipSource* src = env_->membership(uc.subquery_id);
              if (src != nullptr) {
                TriState m = src->ClassifyKey(key);
                if (m != TriState::kUncertain) {
                  have = true;
                  is_member = m == TriState::kTrue;
                  installs[c].members.emplace(key, is_member);
                }
              }
            }
          }
          if (have) {
            t = (is_member != uc.negated) ? TriState::kTrue : TriState::kFalse;
          } else {
            t = TriState::kUncertain;
          }
          break;
        }
        case UncertainConjunct::Form::kOpaque:
          t = TriState::kUncertain;
          break;
      }
      combined = CombineConjuncts(combined, t);
      if (combined == TriState::kFalse) break;
    }
    if (combined == TriState::kTrue) fold_sel.push_back(static_cast<uint32_t>(i));
    else if (combined == TriState::kUncertain) {
      uncertain_sel.push_back(static_cast<uint32_t>(i));
    }
  }

  out.uncertain = in.Gather(uncertain_sel);
  // The passing set is decided here, on the morsel's worker: a flag is a
  // function of the row and the point environment alone, and neither
  // changes between this classification and the batch's emission.
  GOLA_ASSIGN_OR_RETURN(out.pass, PassFlags(out.uncertain, point));
  out.fold = fold_sel.size() == n ? std::move(in) : in.Gather(fold_sel);
  return out;
}

Status OnlineClassifyStage::EndBatch() {
  // Apply deferred installs in morsel order. emplace keeps the first install
  // for a key — all installs of one batch carry identical ranges/decisions
  // (the broadcast is frozen), so this only fixes the iteration history.
  int64_t envelope_installs = 0;
  int64_t member_decisions = 0;
  for (auto& morsel : pending_) {
    for (size_t c = 0; c < morsel.size(); ++c) {
      ConjInstalls& pi = morsel[c];
      ConjunctState& cs = conj_states_[c];
      if (pi.has_global && !cs.has_global) {
        cs.has_global = true;
        cs.global_envelope = pi.global;
        ++envelope_installs;
      }
      for (auto& [key, range] : pi.keyed) {
        if (cs.keyed_envelopes.emplace(key, range).second) ++envelope_installs;
      }
      for (auto& [key, member] : pi.members) {
        if (cs.member_decisions.emplace(key, MemberDecision{member}).second) {
          ++member_decisions;
        }
      }
    }
  }
  pending_.clear();
  if (obs::MetricsEnabled() && (envelope_installs > 0 || member_decisions > 0)) {
    auto& reg = obs::MetricsRegistry::Global();
    static obs::Counter* installs_total =
        reg.GetCounter("gola_online_envelope_installs_total");
    static obs::Counter* decisions_total =
        reg.GetCounter("gola_online_member_decisions_total");
    installs_total->Add(envelope_installs);
    decisions_total->Add(member_decisions);
  }
  return Status::OK();
}

Status OnlineClassifyStage::SaveState(BinaryWriter* w) const {
  w->U32(static_cast<uint32_t>(conj_states_.size()));
  for (const ConjunctState& cs : conj_states_) {
    w->U8(cs.has_global ? 1 : 0);
    w->F64(cs.global_envelope.lo);
    w->F64(cs.global_envelope.hi);
    w->U32(static_cast<uint32_t>(cs.keyed_envelopes.size()));
    for (const auto& [key, envelope] : cs.keyed_envelopes) {
      WriteValue(w, key);
      w->F64(envelope.lo);
      w->F64(envelope.hi);
    }
    w->U32(static_cast<uint32_t>(cs.member_decisions.size()));
    for (const auto& [key, decision] : cs.member_decisions) {
      WriteValue(w, key);
      w->U8(decision.is_member ? 1 : 0);
    }
  }
  return Status::OK();
}

Status OnlineClassifyStage::LoadState(BinaryReader* r) {
  GOLA_ASSIGN_OR_RETURN(uint32_t n, r->U32());
  if (n != block_->uncertain_conjuncts.size()) {
    return Status::IoError("checkpointed uncertain-conjunct count mismatch");
  }
  conj_states_.assign(n, ConjunctState{});
  pending_.clear();
  for (uint32_t c = 0; c < n; ++c) {
    ConjunctState& cs = conj_states_[c];
    GOLA_ASSIGN_OR_RETURN(uint8_t has_global, r->U8());
    cs.has_global = has_global != 0;
    GOLA_ASSIGN_OR_RETURN(cs.global_envelope.lo, r->F64());
    GOLA_ASSIGN_OR_RETURN(cs.global_envelope.hi, r->F64());
    GOLA_ASSIGN_OR_RETURN(uint32_t keyed, r->U32());
    for (uint32_t k = 0; k < keyed; ++k) {
      GOLA_ASSIGN_OR_RETURN(Value key, ReadValue(r));
      VariationRange envelope = VariationRange::Point(0);
      GOLA_ASSIGN_OR_RETURN(envelope.lo, r->F64());
      GOLA_ASSIGN_OR_RETURN(envelope.hi, r->F64());
      cs.keyed_envelopes.emplace(std::move(key), envelope);
    }
    GOLA_ASSIGN_OR_RETURN(uint32_t members, r->U32());
    for (uint32_t m = 0; m < members; ++m) {
      GOLA_ASSIGN_OR_RETURN(Value key, ReadValue(r));
      GOLA_ASSIGN_OR_RETURN(uint8_t is_member, r->U8());
      cs.member_decisions.emplace(std::move(key), MemberDecision{is_member != 0});
    }
  }
  return Status::OK();
}

}  // namespace gola
