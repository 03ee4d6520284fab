#include "gola/online_agg.h"

#include "obs/trace.h"

namespace gola {

Status AggOverlay::Update(const Chunk& input, const SelectionVector& rows,
                          const ExecContext& ctx) {
  if (rows.empty()) return Status::OK();
  const ArenaLayout& layout = base_->layout();
  const GroupArena& base = base_->arena();
  FoldBatch in;
  GOLA_RETURN_NOT_OK(PrepareFoldBatch(layout, input, &rows, ctx.env, &in));
  // Every touched group is found in the overlay, or copied in from the base,
  // or added at zero, on the calling thread in first-occurrence order; then
  // groups fold in row-balanced pieces, on ctx.pool when there are several.
  const size_t num_groups = in.gids.num_groups;
  const size_t num_aggs = layout.flat_slot.size();
  delta_.Reserve(delta_.size() + num_groups);
  base_id_.reserve(delta_.size() + num_groups);
  std::vector<uint32_t> ids(num_groups);
  std::vector<Value> key(layout.num_keys);
  for (size_t g = 0; g < num_groups; ++g) {
    KeyOf(in, g, &key);
    const uint64_t hash = GroupKeyValuesHash(key.data(), key.size());
    uint32_t id = delta_.Find(key.data(), hash);
    if (id == GroupArena::kNone) {
      const uint32_t src = base.Find(key.data(), hash);
      id = src == GroupArena::kNone ? delta_.Add(key.data(), hash)
                                    : delta_.AddCopy(base, src);
      base_id_.push_back(src);
    }
    delta_.rows(id) += static_cast<int64_t>(in.group_rows(g));
    ids[g] = id;
  }
  std::vector<FoldTarget> targets(num_groups * num_aggs);
  for (size_t g = 0; g < num_groups; ++g) {
    TargetsOf(&delta_, ids[g], &targets[g * num_aggs]);
  }
  std::vector<PieceRange> pieces =
      PlanPieces(num_groups, [&](size_t g) { return in.group_rows(g); }, ctx);
  return RunPieces(ctx, pieces.size(), [&](size_t p) -> Status {
    obs::TraceSpan span("kernel_fold", "groups",
                        static_cast<int64_t>(pieces[p].end - pieces[p].begin));
    FoldScratch scratch;
    for (size_t g = pieces[p].begin; g < pieces[p].end; ++g) {
      GOLA_RETURN_NOT_OK(
          FoldGroup(in, layout.weights, g, &targets[g * num_aggs], &scratch));
    }
    return Status::OK();
  });
}

const GroupArena& AggOverlay::Resolve(uint32_t row, uint32_t* id) const {
  const size_t base_size = base_->arena().size();
  if (row < base_size) {
    *id = row;
    return base_->arena();
  }
  *id = static_cast<uint32_t>(row - base_size);
  return delta_;
}

Result<PostAggChunk> AggOverlay::Finalize(double scale, bool with_replicates,
                                          const ExecContext& ctx) const {
  const ArenaLayout& layout = base_->layout();
  const BlockDef& block = *layout.block;
  const size_t num_aggs = block.aggs.size();
  const size_t b = with_replicates ? layout.b : 0;

  // The merged view: every base row, replaced by its overlay row when
  // touched, then the overlay's new groups.
  const GroupArena& base = base_->arena();
  const auto base_size = static_cast<uint32_t>(base.size());
  std::vector<GroupRef> view(base_size);
  for (uint32_t id = 0; id < base_size; ++id) view[id] = {&base, id};
  for (uint32_t d = 0; d < delta_.size(); ++d) {
    if (base_id_[d] != GroupArena::kNone) {
      view[base_id_[d]] = {&delta_, d};
    } else {
      view.push_back({&delta_, d});
    }
  }
  PostAggChunk out;
  out.scale = scale;
  out.states = this;
  // Holds the synthetic row of a global aggregation over no rows.
  GroupArena fresh(&layout);
  out.point = FinalizeGroups(layout, scale, &fresh, &view, &out.support);
  const size_t n = view.size();
  out.ids.reserve(n);
  for (const GroupRef& ref : view) {
    out.ids.push_back(ref.arena == &base     ? ref.id
                      : ref.arena == &delta_ ? base_size + ref.id
                                             : PostAggChunk::kNoRow);
  }

  out.num_replicates = b;
  if (b > 0) {
    out.replicates.assign(num_aggs, std::vector<double>(n * b));
    // Each group weighs its b replicate rows under the morsel policy.
    std::vector<PieceRange> pieces = PlanPieces(n, [b](size_t) { return b; }, ctx);
    GOLA_RETURN_NOT_OK(RunPieces(ctx, pieces.size(), [&](size_t p) -> Status {
      for (size_t g = pieces[p].begin; g < pieces[p].end; ++g) {
        for (size_t a = 0; a < num_aggs; ++a) {
          view[g].arena->FinalizeReplicatesInto(view[g].id, a, AggScale(block, a, scale),
                                                out.replicates[a].data() + g * b);
        }
      }
      return Status::OK();
    }));
  }
  return out;
}

}  // namespace gola
