// The online engine's stage for the shared delta-pipeline layer
// (exec/pipeline.h): deterministic/uncertain classification. The fold is
// every engine's FoldStage, with the block's bootstrap weights.
//
// Concurrency/determinism contract: during one batch, upstream broadcasts
// and this block's classification envelopes are frozen key indexes, so
// every row's tri-state is a pure function of the row — independent of
// morsel order and of which thread runs it. Newly made decisions (envelope
// installs, member decisions) are collected per morsel as (key, range) and
// (key, decision) lists and applied at the barrier in morsel order, the
// first install of a key winning; since an installed envelope always equals
// the broadcast's current padded range, deferring installs never changes
// any classification within the batch. Partial aggregate states merge in morsel order, making the
// floating-point accumulation order — and the seeded bootstrap state —
// bit-identical across pool sizes.
#ifndef GOLA_GOLA_ONLINE_STAGES_H_
#define GOLA_GOLA_ONLINE_STAGES_H_

#include <utility>
#include <vector>

#include "exec/pipeline.h"
#include "gola/online_env.h"
#include "gola/uncertain.h"
#include "plan/logical_plan.h"

namespace gola {

class BinaryReader;
class BinaryWriter;

/// Why a range failure fired (§3.2 failure recovery) — the observability
/// layer counts recomputes per cause so overhead regressions can be
/// attributed (see `gola_online_range_failures_total{cause=...}`).
enum class RangeFailure {
  kNone = 0,
  /// A global scalar's running value or bootstrap output escaped its
  /// installed envelope.
  kGlobalEnvelope,
  /// A correlated (per-key) scalar escaped its envelope.
  kKeyedEnvelope,
  /// A key with an installed envelope vanished from the broadcast.
  kKeyVanished,
  /// A previously deterministic membership decision flipped.
  kMemberFlip,
  /// Forced by the `gola.check_envelopes` failpoint (fault-injection tests
  /// exercising the rebuild path).
  kInjected,
};

/// Stable label for metrics/QueryStats ("none", "global_envelope", ...).
const char* RangeFailureName(RangeFailure cause);

/// Classifies morsels against the block's uncertain conjuncts (paper §3.2):
/// deterministic-true rows go to the fold, deterministic-false rows are
/// dropped, uncertain rows are cached. Also owns the classification
/// envelopes and runs the per-batch envelope-failure check.
class OnlineClassifyStage : public ClassifyStage {
 public:
  OnlineClassifyStage(const BlockDef* block, const GolaOptions* options);

  /// Drops every envelope and member decision (failure recovery).
  void ResetEnvelopes();

  /// Sets the broadcast fabric used for range lookups; call before each
  /// batch (the ExecContext only carries the point env).
  void SetEnv(OnlineEnv* env) { env_ = env; }

  /// Envelope maintenance against the fresh upstream ranges; returns the
  /// violation cause, kNone when every installed decision still holds
  /// (serial, before the batch's pipeline run).
  Result<RangeFailure> CheckEnvelopes(OnlineEnv* env);

  /// One flag per row of `uncertain`: whether the conjunction of the
  /// block's point-form uncertain predicates holds under `point`. Classify
  /// fills Split::pass with it; a restored uncertain set recomputes it.
  Result<std::vector<uint8_t>> PassFlags(const Chunk& uncertain,
                                         const BroadcastEnv* point) const;

  // --- ClassifyStage ----------------------------------------------------
  const char* name() const override { return "online_classify"; }
  void BeginBatch(size_t num_morsels) override;
  Result<Split> Classify(size_t morsel_index, Chunk in,
                         const ExecContext& ctx) override;
  Status EndBatch() override;

  /// Checkpoint round-trip of the installed envelopes and member decisions
  /// (the part of classification state that is not derivable from the
  /// deterministic aggregates).
  Status SaveState(BinaryWriter* w) const;
  Status LoadState(BinaryReader* r);

 private:
  /// Installed decisions of one where-uncertain conjunct (frozen during a
  /// batch; mutated only by EndBatch and CheckEnvelopes). Per-key decisions
  /// are a key index plus one payload per key id, in install order.
  struct ConjunctState {
    bool has_global = false;
    VariationRange global_envelope = VariationRange::Point(0);
    KeyIndex envelope_keys;
    std::vector<VariationRange> envelopes;  // per envelope key id
    KeyIndex decision_keys;
    std::vector<uint8_t> is_member;  // per decision key id
  };
  /// Decisions one morsel wants to install, one per key, in row order (each
  /// worker writes only its own morsel's slot — no locking).
  struct ConjInstalls {
    bool has_global = false;
    VariationRange global = VariationRange::Point(0);
    std::vector<std::pair<Value, VariationRange>> keyed;
    std::vector<std::pair<Value, bool>> members;
  };

  /// Folds a scalar-cmp conjunct's tri-state for the rows `alive` of a
  /// morsel into `state`, recording a pending envelope install on each
  /// key's first deterministic decision. `keys` are the outer keys of a
  /// correlated conjunct.
  void ClassifyScalar(const UncertainConjunct& uc, const ConjunctState& cs,
                      const Column& lhs, const Column& keys,
                      const SelectionVector& alive, std::vector<TriState>* state,
                      ConjInstalls* installs) const;
  /// The same for a membership conjunct over its lhs keys.
  void ClassifyMembership(const UncertainConjunct& uc, const ConjunctState& cs,
                          const Column& keys, const SelectionVector& alive,
                          std::vector<TriState>* state, ConjInstalls* installs) const;

  const BlockDef* block_;
  const GolaOptions* options_;
  OnlineEnv* env_ = nullptr;
  std::vector<ExprPtr> point_exprs_;  // point forms of the uncertain conjuncts
  std::vector<ConjunctState> conj_states_;       // one per uncertain conjunct
  std::vector<std::vector<ConjInstalls>> pending_;  // [morsel][conjunct]
};

}  // namespace gola

#endif  // GOLA_GOLA_ONLINE_STAGES_H_
