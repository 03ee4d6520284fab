// Group-by aggregation state for every engine: the exact batch engine, the
// CDM baseline and the online engine keep their groups in one layout, the
// GroupArena, and fold into it with one kernel fold.
//
// An arena holds dense group ids behind a key dictionary, with each
// aggregate's main state and B bootstrap replicates in per-id rows. The
// exact engine and CDM fold with no replicates (B = 0). The same type is a
// morsel's partial (GroupAggregate::FoldTileOf), a block's accumulated state
// (GroupAggregate: the exact answer's groups, or the online engine's
// deterministic set, whose tuples are never revisited, paper §3.2), and the
// online engine's per-batch overlay (gola/online_agg.h).
#ifndef GOLA_EXEC_GROUP_ARENA_H_
#define GOLA_EXEC_GROUP_ARENA_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bootstrap/poisson.h"
#include "exec/kernels/agg_kernels.h"
#include "exec/kernels/group_ids.h"
#include "expr/aggregate.h"
#include "expr/evaluator.h"
#include "plan/logical_plan.h"
#include "storage/chunk.h"

namespace gola {

class BinaryReader;
class BinaryWriter;
struct EncodedColumnView;

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

// ------------------------------------------------------------- the fold --

/// Fold inputs of one chunk (or of its selected rows), computed once and
/// read by every group's fold: key and argument columns, dense group ids with
/// per-group row lists, numeric arguments widened to double, and (with
/// replicates) serials.
struct FoldBatch {
  std::vector<Column> key_cols;
  std::vector<Column> arg_cols;
  std::vector<bool> has_arg;
  std::vector<std::vector<double>> widened;
  std::vector<bool> numeric;
  std::vector<int64_t> gathered_serials;
  const int64_t* serials = nullptr;
  kernels::GroupIds gids;
  /// Per aggregate: the NULL-free int64 RLE view its flat target folds run
  /// by run (kernels::TryEncodedRleSumFold), or null. Set only without
  /// replicates, for a plain-column argument of an encoded chunk whose one
  /// group covers every row; such an argument is widened only if the run
  /// fold rejects it. `rle_offset` is the chunk's first row in the views.
  std::vector<const EncodedColumnView*> rle;
  uint64_t rle_offset = 0;

  size_t group_rows(size_t g) const {
    return gids.group_offsets[g + 1] - gids.group_offsets[g];
  }
  const uint32_t* rows_of(size_t g) const {
    return gids.group_rows.data() + gids.group_offsets[g];
  }
};

/// Builds the fold inputs of `input` (of its rows `sel` when non-null) for
/// `layout`'s block. With replicates, `input` must carry serials.
Status PrepareFoldBatch(const ArenaLayout& layout, const Chunk& input,
                        const SelectionVector* sel, const BroadcastEnv* env,
                        FoldBatch* in);

/// Where one (group, aggregate) fold lands in an arena row. Flat aggregates
/// accumulate through `slots` and the B-length replicate rows; generic ones go
/// row by row through their main state and B replicate states.
struct FoldTarget {
  bool flat = false;
  SimpleAggKind kind = SimpleAggKind::kNone;
  AggState::SimpleSlots slots;
  double* rep_sum = nullptr;
  double* rep_count = nullptr;
  std::unique_ptr<AggState>* states = nullptr;  // generic: main, then B replicates
};

/// The fold targets of row `id`, one per aggregate in block order.
void TargetsOf(GroupArena* arena, uint32_t id, FoldTarget* out);

/// The key values of fold-batch group g (read at its first row).
void KeyOf(const FoldBatch& in, size_t g, std::vector<Value>* key);

/// Per-thread scratch of the group fold.
struct FoldScratch {
  std::vector<uint32_t> nn_rows;  // null-filtered row list (chunk row ids)
  std::vector<double> widened;    // an argument the RLE fold rejected
  std::vector<kernels::ReplicateTarget> reps;
};

/// Folds one group's rows (ascending) into its targets, one per aggregate:
/// the main states here, every replicate in one FoldReplicates call when
/// `weights` is set. Touches only the group's own states, so distinct groups
/// fold concurrently.
Status FoldGroup(const FoldBatch& in, const PoissonWeights* weights, size_t g,
                 const FoldTarget* targets, FoldScratch* scratch);

// -------------------------------------------------------------- emission --

/// One group of a (merged) view: the arena holding it and its id there.
struct GroupRef {
  const GroupArena* arena = nullptr;
  uint32_t id = 0;
};

/// The scale aggregate `a` of `block` finalizes under: `scale` when it
/// scales with multiplicity, else 1.
inline double AggScale(const BlockDef& block, size_t a, double scale) {
  return block.aggs[a].fn->ScalesWithMultiplicity() ? scale : 1.0;
}

/// Sorts `groups` into key order and finalizes them into a post-aggregation
/// chunk: the group columns, then each aggregate under AggScale. Ids follow
/// insertion history (morsel merges, rebuilds, checkpoint reloads); key
/// order makes every state built from the same rows emit the same rows, in
/// the exact engine and the online one alike. A global aggregation over no
/// groups still yields one row: its fresh states are added to `fresh` (an
/// empty arena of `layout`, owned by the caller) and its entry in `groups`
/// refers to them. `support`, when non-null, receives each row's raw row
/// count.
Chunk FinalizeGroups(const ArenaLayout& layout, double scale, GroupArena* fresh,
                     std::vector<GroupRef>* groups, std::vector<int64_t>* support);

// ------------------------------------------------------- GroupAggregate --

/// One aggregate block's accumulated state: a GroupArena that disjoint
/// morsels' tiles merge into.
class GroupAggregate {
 public:
  /// `weights` null folds main states only (B = 0): the exact engine and CDM.
  GroupAggregate(const BlockDef* block, const PoissonWeights* weights);
  GroupAggregate(const GroupAggregate&) = delete;
  GroupAggregate& operator=(const GroupAggregate&) = delete;

  /// Folds one morsel into a fresh tile, a chunk at a time (thread-safe:
  /// reads only the block definition). Tile ids are the morsel's groups in
  /// first-occurrence order. `env` supplies point broadcast values for
  /// group/agg exprs.
  Status FoldTileOf(const Chunk& input, const BroadcastEnv* env, GroupArena* tile) const;

  /// Adds a tile built over a disjoint morsel into the state: a group new
  /// here takes a copy of the tile's row, an existing one MergeRow's it.
  /// Callers merge tiles in morsel order so the floating-point accumulation
  /// order — and hence every downstream result — is independent of which
  /// thread ran which morsel.
  void MergeTile(const GroupArena& tile);

  /// The post-aggregation chunk of every group, in key order
  /// (FinalizeGroups).
  Chunk Finalize(double scale) const;

  /// Clears all state (used by range-failure recompute).
  void Reset() { arena_.Clear(); }

  const GroupArena& arena() const { return arena_; }
  const ArenaLayout& layout() const { return layout_; }
  size_t num_groups() const { return arena_.size(); }

  /// Checkpoint round-trip (GroupArena's dump).
  Status SaveTo(BinaryWriter* w) const { return arena_.SaveTo(w); }
  Status LoadFrom(BinaryReader* r) { return arena_.LoadFrom(r); }

 private:
  ArenaLayout layout_;
  GroupArena arena_;
};

}  // namespace gola

#endif  // GOLA_EXEC_GROUP_ARENA_H_
