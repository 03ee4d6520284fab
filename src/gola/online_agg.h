// Incremental group-by aggregation with poissonized bootstrap replicates —
// the per-block state of the online engine.
//
// All of it lives in one layout, the GroupArena: dense group ids behind a
// key dictionary, with each aggregate's main state and B replicates in
// per-id rows. The same type is a morsel's partial (FoldTileOf), the
// deterministic-set state (OnlineAggregate: tuples folded there were
// classified deterministic and are never revisited, paper §3.2) and the
// per-batch overlay (AggOverlay: only the groups touched by currently
// passing uncertain tuples are copied from the base, folded and finalized,
// so the per-batch fold scales with the passing set, not with the number
// of groups).
#ifndef GOLA_GOLA_ONLINE_AGG_H_
#define GOLA_GOLA_ONLINE_AGG_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bootstrap/poisson.h"
#include "exec/pipeline.h"
#include "expr/aggregate.h"
#include "expr/evaluator.h"
#include "plan/logical_plan.h"

namespace gola {

class AggOverlay;
class BinaryReader;
class BinaryWriter;

/// Main-state accumulators of one flat (COUNT/SUM/AVG) aggregate: the
/// fields its AggState::SimpleSlots expose.
struct FlatMain {
  double sum = 0;
  double count = 0;
  bool any = false;
};

/// How one block's aggregates map onto arena rows. COUNT/SUM/AVG are flat:
/// a FlatMain and two B-double replicate rows (weighted sums and counts).
/// Every other aggregate is generic: its main AggState and B replicate
/// AggStates.
struct ArenaLayout {
  ArenaLayout(const BlockDef* block, const PoissonWeights* weights);

  const BlockDef* block;
  const PoissonWeights* weights;
  size_t num_keys = 0;
  size_t b = 0;  // replicates per aggregate (0 without weights)
  /// flat_slot[a] (generic_slot[a]) is aggregate a's index among the flat
  /// (generic) aggregates, -1 when it is of the other kind.
  std::vector<int> flat_slot;
  std::vector<int> generic_slot;
  /// A flat aggregate's kind and the FlatMain fields its AggState's
  /// SimpleSlots expose — the ones the fold accumulates.
  struct Flat {
    SimpleAggKind kind = SimpleAggKind::kNone;
    bool sum = false;
    bool count = false;
    bool any = false;
  };
  std::vector<Flat> flat;
  size_t num_flat() const { return flat.size(); }
  size_t num_generic() const { return flat_slot.size() - flat.size(); }
};

/// Dense columnar group state. Ids are dense in insertion order; a
/// persistent dictionary maps key values to ids (Value equality, so NULLs
/// group together and a NaN key never matches). Per id: the key, the raw
/// row count, then per aggregate the layout's flat or generic state. The
/// row count gates deterministic classification: variation ranges
/// estimated from a handful of rows are too unstable to hang an envelope on.
class GroupArena {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// An arena without a layout holds nothing until one is assigned.
  GroupArena() = default;
  explicit GroupArena(const ArenaLayout* layout) : layout_(layout) {}

  size_t size() const { return rows_.size(); }
  const ArenaLayout* layout() const { return layout_; }

  /// The key's num_keys values.
  const Value* key(uint32_t id) const { return key_values_.data() + id * layout_->num_keys; }
  uint64_t key_hash(uint32_t id) const { return hashes_[id]; }
  int64_t rows(uint32_t id) const { return rows_[id]; }
  int64_t& rows(uint32_t id) { return rows_[id]; }

  /// The id of the group with these key values, or kNone.
  uint32_t Find(const Value* key, uint64_t hash) const;
  /// Appends a group with zero state; its key must not be present.
  uint32_t Add(const Value* key, uint64_t hash);
  /// Appends an exact copy of src's row `id` (generic states cloned).
  uint32_t AddCopy(const GroupArena& src, uint32_t id);
  /// Adds src's row `src_id` into row `id`: row counts and flat slots add
  /// (any ORs), replicates add elementwise, generic states Merge.
  void MergeRow(uint32_t id, const GroupArena& src, uint32_t src_id);
  /// Room for `n` groups without reallocation.
  void Reserve(size_t n);
  void Clear() { *this = GroupArena(layout_); }

  // Per-id state; f indexes the flat aggregates, k the generic ones.
  FlatMain& flat_main(uint32_t id, size_t f) { return main_[id * layout_->num_flat() + f]; }
  const FlatMain& flat_main(uint32_t id, size_t f) const {
    return main_[id * layout_->num_flat() + f];
  }
  /// The B weighted replicate sums (counts) of flat aggregate f.
  double* rep_sums(uint32_t id, size_t f) { return rep_sum_.data() + FlatRow(id, f); }
  const double* rep_sums(uint32_t id, size_t f) const {
    return rep_sum_.data() + FlatRow(id, f);
  }
  double* rep_counts(uint32_t id, size_t f) { return rep_count_.data() + FlatRow(id, f); }
  const double* rep_counts(uint32_t id, size_t f) const {
    return rep_count_.data() + FlatRow(id, f);
  }
  /// Generic aggregate k's main state followed by its B replicate states.
  std::unique_ptr<AggState>* generic_states(uint32_t id, size_t k) {
    return generic_.data() + GenericRow(id, k);
  }
  const std::unique_ptr<AggState>* generic_states(uint32_t id, size_t k) const {
    return generic_.data() + GenericRow(id, k);
  }

  /// Aggregate a's point estimate under `scale` (the caller decides whether
  /// the aggregate scales with multiplicity).
  Value Finalize(uint32_t id, size_t a, double scale) const;
  /// Aggregate a's B replicate outputs into `out`; an undefined replicate
  /// (e.g. SUM over an empty replicate) is NaN.
  void FinalizeReplicatesInto(uint32_t id, size_t a, double scale, double* out) const;

  /// Checkpoint round-trip as a column dump: keys, row counts, flat main
  /// fields, replicate sums and counts, then generic states field by field.
  /// LoadFrom replaces the contents and validates the layout.
  Status SaveTo(BinaryWriter* w) const;
  Status LoadFrom(BinaryReader* r);

 private:
  size_t FlatRow(uint32_t id, size_t f) const {
    return (id * layout_->num_flat() + f) * layout_->b;
  }
  size_t GenericRow(uint32_t id, size_t k) const {
    return (id * layout_->num_generic() + k) * (layout_->b + 1);
  }
  /// Appends the key, hash and row count of a new id and indexes it.
  uint32_t AppendKey(const Value* key, uint64_t hash, int64_t rows);
  /// Rebuilds the dictionary with at least `min_slots` slots.
  void Rehash(size_t min_slots);
  void Place(uint32_t id);

  const ArenaLayout* layout_ = nullptr;
  std::vector<Value> key_values_;  // [id * num_keys + k]
  std::vector<uint64_t> hashes_;   // per id
  std::vector<int64_t> rows_;      // per id
  std::vector<FlatMain> main_;     // [id * num_flat + f]
  std::vector<double> rep_sum_;    // [(id * num_flat + f) * b + j]
  std::vector<double> rep_count_;
  std::vector<std::unique_ptr<AggState>> generic_;  // [(id * num_generic + k) * (b + 1)]
  /// Open-addressing dictionary: id + 1 per slot, 0 when empty.
  std::vector<uint32_t> slots_;
};

/// The hash GroupArena's dictionary expects for `n` key values.
uint64_t GroupKeyValuesHash(const Value* key, size_t n);

/// Point estimates of one aggregation, row-aligned with the states behind
/// each row and (optionally) the rows' finalized bootstrap replicates.
struct PostAggChunk {
  Chunk point;  // [group columns..., main aggregate slots...]
  /// Raw observation count per emitted group row.
  std::vector<int64_t> support;
  /// The overlay the rows were finalized from, and each row's id in its
  /// merged view (AggOverlay::Resolve); kNoRow for the synthetic row of a
  /// global aggregation over no rows. Valid while the overlay lives.
  const AggOverlay* states = nullptr;
  std::vector<uint32_t> ids;
  static constexpr uint32_t kNoRow = GroupArena::kNone;
  /// Replicate outputs (Finalize with replicates): replicates[a] holds
  /// num_replicates values per row, row g's at [g * B, (g + 1) * B) — one
  /// flat buffer per aggregate. Undefined replicates are NaN.
  std::vector<std::vector<double>> replicates;
  size_t num_replicates = 0;
  /// The multiplicity scale the rows were finalized under.
  double scale = 1.0;
};

class OnlineAggregate {
 public:
  OnlineAggregate(const BlockDef* block, const PoissonWeights* weights);
  OnlineAggregate(const OnlineAggregate&) = delete;
  OnlineAggregate& operator=(const OnlineAggregate&) = delete;

  /// Folds one morsel (must carry serials) into a fresh tile, a chunk at a
  /// time (thread-safe: reads only the block definition). Tile ids are the
  /// morsel's groups in first-occurrence order. `env` supplies point
  /// broadcast values for group/agg exprs.
  Status FoldTileOf(const Chunk& input, const BroadcastEnv* env, GroupArena* tile) const;

  /// Adds a tile built over a disjoint morsel into the deterministic states:
  /// a group new here takes a copy of the tile's row, an existing one
  /// MergeRow's it. Callers merge tiles in morsel order so the
  /// floating-point accumulation order — and hence every downstream result
  /// — is independent of which thread ran which morsel.
  void MergeTile(const GroupArena& tile);

  /// Clears all state (used by range-failure recompute).
  void Reset() { arena_.Clear(); }

  const GroupArena& arena() const { return arena_; }
  const ArenaLayout& layout() const { return layout_; }
  size_t num_groups() const { return arena_.size(); }

  /// Checkpoint round-trip of the deterministic states (GroupArena's dump).
  Status SaveTo(BinaryWriter* w) const { return arena_.SaveTo(w); }
  Status LoadFrom(BinaryReader* r) { return arena_.LoadFrom(r); }

 private:
  ArenaLayout layout_;
  GroupArena arena_;
};

/// Copy-on-write overlay over an OnlineAggregate for per-batch emission:
/// its own arena holds the touched groups, each starting as an exact copy
/// of its base row (or at zero when new), and the base is never written.
class AggOverlay {
 public:
  explicit AggOverlay(const OnlineAggregate* base)
      : base_(base), delta_(&base->layout()) {}

  /// Folds rows `rows` of `input` (the passing uncertain tuples; the chunk
  /// must carry serials). Touched groups are looked up or copied in on the
  /// calling thread; the kernel fold then folds each group's rows, in row
  /// order, with groups split into row-balanced pieces across ctx.pool.
  Status Update(const Chunk& input, const SelectionVector& rows, const ExecContext& ctx);

  /// Finalizes the merged view into a post-aggregation chunk, groups in key
  /// order. When `with_replicates` is set, every group's replicate outputs
  /// are finalized too (needed to evaluate value/having expressions per
  /// bootstrap world), split by key range across ctx.pool.
  Result<PostAggChunk> Finalize(double scale, bool with_replicates,
                                const ExecContext& ctx) const;

  /// The arena and id behind row `row` of the merged view: base ids come
  /// first, overlay ids follow at base size + overlay id.
  const GroupArena& Resolve(uint32_t row, uint32_t* id) const;

 private:
  const OnlineAggregate* base_;
  GroupArena delta_;
  std::vector<uint32_t> base_id_;  // per overlay id: its base id, or kNone
};

}  // namespace gola

#endif  // GOLA_GOLA_ONLINE_AGG_H_
