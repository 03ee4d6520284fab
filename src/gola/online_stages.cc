#include "gola/online_stages.h"

#include <numeric>

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
        if (cs.envelopes.empty()) break;
        // Every envelope key probed at once into the fresh broadcast, then
        // checked in install order.
        std::vector<uint32_t> ids;
        sb->keys->Probe(cs.envelope_keys.keys(), nullptr, &ids);
        for (size_t k = 0; k < ids.size(); ++k) {
          if (ids[k] == KeyIndex::kNone) return RangeFailure::kKeyVanished;
          const ScalarEntry& e = sb->entries[ids[k]];
          VariationRange& envelope = cs.envelopes[k];
          if (!envelope.Contains(e.core)) return RangeFailure::kKeyedEnvelope;
          if (envelope.Contains(e.padded)) envelope = e.padded;
        }
        break;
      }
      case UncertainConjunct::Form::kMembership: {
        const MembershipView* view = env->membership(uc.subquery_id);
        if (view == nullptr || cs.is_member.empty()) break;
        std::vector<uint32_t> ids;
        view->keys.Probe(cs.decision_keys.keys(), nullptr, &ids);
        for (size_t k = 0; k < ids.size(); ++k) {
          // Decision-validity check: the key's current running value vs the
          // current threshold range. Values drifting far from the threshold
          // never trigger; only decisions at risk of flipping do.
          TriState now = view->CurrentPointDecision(ids[k]);
          if (now != (cs.is_member[k] ? TriState::kTrue : TriState::kFalse)) {
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

void OnlineClassifyStage::ClassifyScalar(const UncertainConjunct& uc,
                                         const ConjunctState& cs, const Column& lhs,
                                         const Column& keys, const SelectionVector& alive,
                                         std::vector<TriState>* state,
                                         ConjInstalls* installs) const {
  // The binder correlates a conjunct exactly when its subquery's block is
  // keyed, so a correlated conjunct reads a keyed broadcast.
  const bool keyed = uc.outer_key != nullptr;
  const ScalarBroadcast* sb = env_->scalar(uc.subquery_id);
  auto combine = [state](uint32_t r, TriState t) {
    (*state)[r] = CombineConjuncts((*state)[r], t);
  };
  std::vector<uint32_t> envelope_ids;
  if (keyed) cs.envelope_keys.Probe(keys, &alive, &envelope_ids);
  SelectionVector open;  // rows with no installed envelope
  for (size_t k = 0; k < alive.size(); ++k) {
    const uint32_t r = alive[k];
    // NULL comparisons are false in this engine, and a NULL correlation key
    // matches no inner row, so the subquery is NULL and the row fails.
    if (lhs.IsNull(r) || (keyed && keys.IsNull(r))) {
      combine(r, TriState::kFalse);
    } else if (sb == nullptr) {
      combine(r, TriState::kUncertain);
    } else if (keyed ? envelope_ids[k] != KeyIndex::kNone : cs.has_global) {
      const VariationRange& envelope =
          keyed ? cs.envelopes[envelope_ids[k]] : cs.global_envelope;
      combine(r, ClassifyCmpRange(uc.cmp, lhs.NumericAt(r), envelope));
    } else {
      open.push_back(r);
    }
  }
  if (open.empty()) return;

  std::vector<uint32_t> ids;
  if (keyed) sb->keys->Probe(keys, &open, &ids);
  std::vector<uint8_t> installed;  // per broadcast id, set on its first install
  for (size_t k = 0; k < open.size(); ++k) {
    const uint32_t r = open[k];
    if (keyed && ids[k] == KeyIndex::kNone) {
      combine(r, TriState::kUncertain);
      continue;
    }
    const ScalarEntry& entry = keyed ? sb->entries[ids[k]] : sb->global;
    // Too few observations behind the value → its range estimate is not yet
    // trustworthy; deferring classification avoids installing an envelope
    // that would almost surely be violated (forcing a full recompute).
    TriState t = TriState::kUncertain;
    if (!entry.point.is_null() && entry.support >= options_->min_group_support) {
      t = ClassifyCmpRange(uc.cmp, lhs.NumericAt(r), entry.padded);
    }
    if (t != TriState::kUncertain) {
      // First deterministic decision under this range: record the install so
      // EndBatch hangs the envelope for future batches to monitor. The
      // envelope equals the broadcast's current padded range no matter which
      // row (or morsel) records it, so deferring cannot change any
      // classification within this batch.
      if (!keyed) {
        installs->has_global = true;
        installs->global = entry.padded;
      } else {
        if (installed.empty()) installed.assign(sb->entries.size(), 0);
        if (!installed[ids[k]]) {
          installed[ids[k]] = 1;
          installs->keyed.emplace_back(keys.GetValue(r), entry.padded);
        }
      }
    }
    combine(r, t);
  }
}

void OnlineClassifyStage::ClassifyMembership(const UncertainConjunct& uc,
                                             const ConjunctState& cs,
                                             const Column& keys,
                                             const SelectionVector& alive,
                                             std::vector<TriState>* state,
                                             ConjInstalls* installs) const {
  auto combine = [state](uint32_t r, TriState t) {
    (*state)[r] = CombineConjuncts((*state)[r], t);
  };
  auto decide = [&](uint32_t r, bool is_member) {
    combine(r, is_member != uc.negated ? TriState::kTrue : TriState::kFalse);
  };
  std::vector<uint32_t> decision_ids;
  cs.decision_keys.Probe(keys, &alive, &decision_ids);
  SelectionVector open;  // rows with no installed decision
  for (size_t k = 0; k < alive.size(); ++k) {
    const uint32_t r = alive[k];
    if (keys.IsNull(r)) {
      combine(r, TriState::kFalse);
    } else if (decision_ids[k] != KeyIndex::kNone) {
      decide(r, cs.is_member[decision_ids[k]] != 0);
    } else {
      open.push_back(r);
    }
  }
  const MembershipView* view = env_->membership(uc.subquery_id);
  if (view == nullptr) {
    for (uint32_t r : open) combine(r, TriState::kUncertain);
    return;
  }
  std::vector<uint32_t> ids;
  view->keys.Probe(keys, &open, &ids);
  std::vector<uint8_t> installed;  // per view id, set on its first install
  for (size_t k = 0; k < open.size(); ++k) {
    const uint32_t r = open[k];
    const TriState m = view->ClassifyKey(ids[k]);
    if (m == TriState::kUncertain) {
      combine(r, TriState::kUncertain);
      continue;
    }
    const bool is_member = m == TriState::kTrue;
    if (installed.empty()) installed.assign(view->keys.size(), 0);
    if (!installed[ids[k]]) {
      installed[ids[k]] = 1;
      installs->members.emplace_back(keys.GetValue(r), is_member);
    }
    decide(r, is_member);
  }
}

Result<ClassifyStage::Split> OnlineClassifyStage::Classify(size_t morsel_index,
                                                           Chunk in,
                                                           const ExecContext& ctx) {
  Split out;
  const size_t n = in.num_rows();
  const size_t num_conjuncts = block_->uncertain_conjuncts.size();
  if (n == 0 || num_conjuncts == 0) {
    out.fold = std::move(in);
    return out;
  }
  const BroadcastEnv* point = ctx.env;
  std::vector<ConjInstalls>& installs = pending_[morsel_index];
  installs.assign(num_conjuncts, ConjInstalls{});

  // Conjunct by conjunct, each over the rows no earlier conjunct decided
  // false: the same (row, conjunct) pairs — and so the same installs — as a
  // row at a time with an early exit, but every lookup probes a whole key
  // column.
  std::vector<TriState> state(n, TriState::kTrue);
  SelectionVector alive(n);
  std::iota(alive.begin(), alive.end(), 0);
  for (size_t c = 0; c < num_conjuncts && !alive.empty(); ++c) {
    const UncertainConjunct& uc = block_->uncertain_conjuncts[c];
    switch (uc.form) {
      case UncertainConjunct::Form::kScalarCmp: {
        GOLA_ASSIGN_OR_RETURN(Column lhs, Evaluate(*uc.lhs, in, point));
        Column keys;
        if (uc.outer_key) {
          GOLA_ASSIGN_OR_RETURN(keys, Evaluate(*uc.outer_key, in, point));
        }
        ClassifyScalar(uc, conj_states_[c], lhs, keys, alive, &state, &installs[c]);
        break;
      }
      case UncertainConjunct::Form::kMembership: {
        GOLA_ASSIGN_OR_RETURN(Column keys, Evaluate(*uc.lhs, in, point));
        ClassifyMembership(uc, conj_states_[c], keys, alive, &state, &installs[c]);
        break;
      }
      case UncertainConjunct::Form::kOpaque:
        for (uint32_t r : alive) state[r] = CombineConjuncts(state[r], TriState::kUncertain);
        break;
    }
    size_t kept = 0;
    for (uint32_t r : alive) {
      if (state[r] != TriState::kFalse) alive[kept++] = r;
    }
    alive.resize(kept);
  }

  // Selection vectors, not boolean masks: each row lands in at most one of
  // the two survivor lists, and the split is materialized with one gather
  // per side instead of two full-width mask filters.
  SelectionVector fold_sel;
  SelectionVector uncertain_sel;
  for (uint32_t i = 0; i < n; ++i) {
    if (state[i] == TriState::kTrue) fold_sel.push_back(i);
    else if (state[i] == TriState::kUncertain) uncertain_sel.push_back(i);
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
  // Apply deferred installs in morsel order; the first install of a key wins
  // — all installs of one batch carry identical ranges/decisions (the
  // broadcast is frozen), so this only fixes the key ids' order.
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
      for (const auto& [key, range] : pi.keyed) {
        if (cs.envelope_keys.Insert(key) == cs.envelopes.size()) {
          cs.envelopes.push_back(range);
          ++envelope_installs;
        }
      }
      for (const auto& [key, member] : pi.members) {
        if (cs.decision_keys.Insert(key) == cs.is_member.size()) {
          cs.is_member.push_back(member ? 1 : 0);
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
    // Each list in key id order: a count, then each boxed key with its
    // range or flag.
    w->U32(static_cast<uint32_t>(cs.envelopes.size()));
    for (uint32_t id = 0; id < cs.envelopes.size(); ++id) {
      WriteValue(w, cs.envelope_keys.KeyAt(id));
      w->F64(cs.envelopes[id].lo);
      w->F64(cs.envelopes[id].hi);
    }
    w->U32(static_cast<uint32_t>(cs.is_member.size()));
    for (uint32_t id = 0; id < cs.is_member.size(); ++id) {
      WriteValue(w, cs.decision_keys.KeyAt(id));
      w->U8(cs.is_member[id]);
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
      if (cs.envelope_keys.Insert(key) == cs.envelopes.size()) {
        cs.envelopes.push_back(envelope);
      }
    }
    GOLA_ASSIGN_OR_RETURN(uint32_t members, r->U32());
    for (uint32_t m = 0; m < members; ++m) {
      GOLA_ASSIGN_OR_RETURN(Value key, ReadValue(r));
      GOLA_ASSIGN_OR_RETURN(uint8_t is_member, r->U8());
      if (cs.decision_keys.Insert(key) == cs.is_member.size()) {
        cs.is_member.push_back(is_member != 0 ? 1 : 0);
      }
    }
  }
  return Status::OK();
}

}  // namespace gola
