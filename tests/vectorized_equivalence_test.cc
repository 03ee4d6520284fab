// Kernel ↔ oracle bit-identity at the fold. The chunk-at-a-time kernels the
// engine runs must leave every group's row in the GroupArena — row count,
// main slots, B replicate sums and counts, generic states — bit-identical to
// the row-at-a-time oracle (tests/support/row_fold.h) folding the same rows
// into per-group ReplicatedAggs, in three pairings:
//
//   - the online fold: FoldTileOf per morsel (1, 3 and 7 splits), tiles
//     merged in morsel order with MergeTile, against the oracle folding the
//     same morsels and merging them with ReplicatedAgg::Merge in that order;
//   - the overlay fold: AggOverlay::Update over a random selection on a
//     4-thread pool, against the oracle cloning touched groups from its own
//     base; the arena base's checkpoint bytes must not change (copy on
//     write);
//   - the exact aggregate: the same fold without replicates (B = 0), as
//     the exact engine and CDM run it, against the oracle without
//     replicates.
//
// Covered are every aggregate block of the paper queries (over its DimJoin
// output) and randomized group-by shapes: arity 0–3, mixed int/double/
// string/bool keys, NULLs, every SimpleAggKind plus the generic aggregates,
// and COUNT over string columns. End to end, exact answers are
// bit-identical serial vs pool-4 for both; for the randomized shapes online
// answers are too, and the final one equals ExecuteBatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <sstream>

#include "common/random.h"
#include "gola/gola.h"
#include "storage/serde.h"
#include "support/row_fold.h"
#include "workload/conviva_gen.h"
#include "workload/queries.h"
#include "workload/tpch_gen.h"

namespace gola {
namespace {

constexpr int kReplicates = 40;

std::string KeyString(const GroupKey& key) {
  std::string s;
  for (const Value& v : key.values) s += v.ToString() + "|";
  return s;
}

// Bitwise table comparison; NaN cells must be NaN on both sides.
void ExpectBitIdentical(const Table& a, const Table& b, const std::string& what) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  ASSERT_EQ(a.schema()->num_fields(), b.schema()->num_fields()) << what;
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.schema()->num_fields(); ++c) {
      Value va = a.At(r, static_cast<int>(c));
      Value vb = b.At(r, static_cast<int>(c));
      if (va.is_null() || vb.is_null()) {
        EXPECT_TRUE(va.is_null() && vb.is_null()) << what << " row " << r << " col " << c;
        continue;
      }
      if (va.type() == TypeId::kString) {
        EXPECT_TRUE(va == vb) << what << " row " << r << " col " << c;
        continue;
      }
      double da = va.ToDouble().ValueOr(1e100);
      double db = vb.ToDouble().ValueOr(-1e100);
      if (std::isnan(da) && std::isnan(db)) continue;
      EXPECT_EQ(da, db) << what << " row " << r << " col " << c << " ("
                        << a.schema()->field(c).name << ")";
    }
  }
}

/// One AggState's fields as bytes.
std::string StateBytes(const AggState& state) {
  std::vector<Value> vals;
  GOLA_CHECK_OK(state.SaveState(&vals));
  std::ostringstream buf(std::ios::binary);
  BinaryWriter w(&buf);
  for (const Value& v : vals) WriteValue(&w, v);
  return buf.str();
}

std::string Bytes(const double* v, size_t n) {
  return std::string(reinterpret_cast<const char*>(v), n * sizeof(double));
}

/// The deterministic state's checkpoint dump.
std::string CheckpointBytes(const GroupAggregate& agg) {
  std::ostringstream buf(std::ios::binary);
  BinaryWriter w(&buf);
  GOLA_CHECK_OK(agg.SaveTo(&w));
  return buf.str();
}

/// The oracle's group against arena row `id`, bit for bit: the row count,
/// then per aggregate the main slots and B replicate sums and counts (flat)
/// or the main and B replicate states (generic).
void ExpectSameRow(oracle::GroupEntry& expect, const GroupArena& arena, uint32_t id,
                   const std::string& what) {
  const ArenaLayout& layout = *arena.layout();
  EXPECT_EQ(expect.rows, arena.rows(id)) << what;
  ASSERT_EQ(expect.aggs.size(), layout.flat_slot.size()) << what;
  for (size_t a = 0; a < expect.aggs.size(); ++a) {
    ReplicatedAgg& agg = expect.aggs[a];
    const std::string at = what + " aggregate " + std::to_string(a);
    ASSERT_EQ(agg.num_replicates(), layout.b) << at;
    if (layout.flat_slot[a] < 0) {
      ASSERT_FALSE(agg.has_flat_replicates()) << at;
      const std::unique_ptr<AggState>* states =
          arena.generic_states(id, static_cast<size_t>(layout.generic_slot[a]));
      EXPECT_EQ(StateBytes(*agg.main_state()), StateBytes(*states[0])) << at;
      for (size_t j = 0; j < layout.b; ++j) {
        EXPECT_EQ(StateBytes(agg.replicate_state(j)), StateBytes(*states[1 + j]))
            << at << " replicate " << j;
      }
      continue;
    }
    ASSERT_TRUE(agg.has_flat_replicates()) << at;
    const size_t f = static_cast<size_t>(layout.flat_slot[a]);
    const FlatMain& m = arena.flat_main(id, f);
    const AggState::SimpleSlots slots = agg.main_state()->simple_slots();
    if (slots.sum != nullptr) {
      EXPECT_EQ(Bytes(slots.sum, 1), Bytes(&m.sum, 1)) << at << " main sum";
    }
    if (slots.count != nullptr) {
      EXPECT_EQ(Bytes(slots.count, 1), Bytes(&m.count, 1)) << at << " main count";
    }
    if (slots.any != nullptr) {
      EXPECT_EQ(*slots.any, m.any) << at << " main any";
    }
    EXPECT_EQ(Bytes(agg.flat_sum_data(), layout.b), Bytes(arena.rep_sums(id, f), layout.b))
        << at << " replicate sums";
    EXPECT_EQ(Bytes(agg.flat_count_data(), layout.b),
              Bytes(arena.rep_counts(id, f), layout.b))
        << at << " replicate counts";
  }
}

void ExpectSameGroups(oracle::GroupMap& expect, const GroupArena& got,
                      const std::string& what) {
  ASSERT_EQ(expect.size(), got.size()) << what;
  for (auto& [key, entry] : expect) {
    const uint32_t id =
        got.Find(key.values.data(), GroupKeyValuesHash(key.values.data(), key.values.size()));
    ASSERT_NE(id, GroupArena::kNone) << what << ": no group " << KeyString(key);
    ExpectSameRow(entry, got, id, what + " group " + KeyString(key));
  }
}

/// `input` cut into `k` contiguous morsels (the last ones may be empty).
std::vector<Chunk> Morsels(const Chunk& input, size_t k) {
  std::vector<Chunk> out;
  const size_t n = input.num_rows();
  const size_t step = (n + k - 1) / k;
  for (size_t m = 0; m < k; ++m) {
    const size_t begin = std::min(n, m * step);
    out.push_back(input.Slice(begin, std::min(n, begin + step) - begin));
  }
  return out;
}

/// The three kernel ↔ oracle pairings over one aggregate block's fold input
/// (which carries serials).
void CheckBlock(const BlockDef& block, const Chunk& input, const std::string& name) {
  SCOPED_TRACE(name);
  const PoissonWeights weights(kReplicates, 99);
  for (size_t k : {1, 3, 7}) {
    const std::string what = name + " / " + std::to_string(k) + " morsels";
    const std::vector<Chunk> morsels = Morsels(input, k);

    // The online fold: every morsel's tile first, then the in-order merge.
    GroupAggregate kernel(&block, &weights);
    std::vector<GroupArena> tiles(k);
    for (size_t m = 0; m < k; ++m) {
      ASSERT_TRUE(kernel.FoldTileOf(morsels[m], nullptr, &tiles[m]).ok()) << what;
    }
    for (GroupArena& tile : tiles) {
      if (tile.size() > 0) kernel.MergeTile(tile);
    }
    oracle::GroupMap oracle;
    for (const Chunk& morsel : morsels) {
      oracle::GroupMap partial;
      ASSERT_TRUE(
          oracle::UpdateGroupMap(block, &weights, morsel, nullptr, &partial).ok())
          << what;
      oracle::MergeGroupMap(std::move(partial), &oracle);
    }
    ExpectSameGroups(oracle, kernel.arena(), what + " [fold]");

    // The exact aggregate: the same fold at B = 0, over morsels without
    // serials (the exact engine's and CDM's chunks carry none).
    GroupAggregate exact(&block, /*weights=*/nullptr);
    oracle::GroupMap exact_oracle;
    for (Chunk morsel : morsels) {
      morsel.set_serials({});
      GroupArena tile;
      ASSERT_TRUE(exact.FoldTileOf(morsel, nullptr, &tile).ok()) << what;
      if (tile.size() > 0) exact.MergeTile(tile);
      oracle::GroupMap oracle_partial;
      ASSERT_TRUE(
          oracle::UpdateGroupMap(block, nullptr, morsel, nullptr, &oracle_partial).ok())
          << what;
      oracle::MergeGroupMap(std::move(oracle_partial), &exact_oracle);
    }
    ExpectSameGroups(exact_oracle, exact.arena(), what + " [exact]");
  }

  // The overlay fold: the first half is the deterministic base, and a random
  // selection of all rows folds onto it on a pool, in small pieces.
  const std::string what = name + " [overlay]";
  const Chunk first_half = input.Slice(0, input.num_rows() / 2);
  GroupAggregate base(&block, &weights);
  GroupArena tile;
  ASSERT_TRUE(base.FoldTileOf(first_half, nullptr, &tile).ok());
  base.MergeTile(tile);
  oracle::GroupMap oracle_base;
  ASSERT_TRUE(
      oracle::UpdateGroupMap(block, &weights, first_half, nullptr, &oracle_base).ok());
  ExpectSameGroups(oracle_base, base.arena(), what + " base");
  const std::string base_bytes = CheckpointBytes(base);

  Rng rng(5);
  SelectionVector selected;
  for (size_t i = 0; i < input.num_rows(); ++i) {
    if (rng.UniformInt(0, 1) == 1) selected.push_back(static_cast<uint32_t>(i));
  }
  ThreadPool four(4);
  ExecContext ctx;
  ctx.pool = &four;
  ctx.min_morsel_rows = 64;
  AggOverlay overlay(&base);
  ASSERT_TRUE(overlay.Update(input, selected, ctx).ok()) << what;
  auto post = overlay.Finalize(1.0, /*with_replicates=*/false, ctx);
  ASSERT_TRUE(post.ok()) << what << ": " << post.status().ToString();
  // Copy on write: folding and finalizing the overlay left its base as it was.
  EXPECT_TRUE(CheckpointBytes(base) == base_bytes) << what << ": the overlay wrote its base";

  oracle::GroupMap delta;
  ASSERT_TRUE(oracle::UpdateGroupMap(block, &weights, input.Gather(selected), nullptr,
                                     &delta, &oracle_base)
                  .ok())
      << what;
  // The merged view the overlay finalizes, in key order.
  std::map<GroupKey, oracle::GroupEntry*> view;
  for (auto& [key, entry] : oracle_base) view[key] = &entry;
  for (auto& [key, entry] : delta) view[key] = &entry;
  ASSERT_EQ(post->ids.size(), view.size()) << what;
  size_t row = 0;
  for (const auto& [key, entry] : view) {
    for (size_t c = 0; c < key.values.size(); ++c) {
      EXPECT_TRUE(post->point.column(c).GetValue(row) == key.values[c])
          << what << " row " << row;
    }
    uint32_t id;
    const GroupArena& arena = post->states->Resolve(post->ids[row], &id);
    ExpectSameRow(*entry, arena, id, what + " group " + KeyString(key));
    ++row;
  }
}

/// The table's rows in one chunk with serials 0..n-1 — the mini-batch
/// stream's positions key the replicate weights.
Chunk WithSerials(Chunk chunk) {
  std::vector<int64_t> serials(chunk.num_rows());
  for (size_t i = 0; i < serials.size(); ++i) serials[i] = static_cast<int64_t>(i);
  chunk.set_serials(std::move(serials));
  return chunk;
}

/// A block's scan columns of the whole table (BlockDef::scan_columns), the
/// layout the pipeline's morsels hand the block's operators.
Chunk ScanRows(const BlockDef& block, const Table& table) {
  const Chunk all = table.Combined();
  return all.Slice(0, all.num_rows(), block.scan_columns, block.ScanSchema());
}

Engine* PaperEngine() {
  static Engine* instance = [] {
    auto* e = new Engine();
    ConvivaGenOptions conviva;
    conviva.num_rows = 5000;
    conviva.num_ads = 12;
    conviva.num_contents = 150;
    GOLA_CHECK_OK(e->RegisterTable("conviva", GenerateConviva(conviva)));
    TpchGenOptions tpch;
    tpch.num_rows = 5000;
    tpch.num_parts = 50;
    tpch.num_suppliers = 12;
    GOLA_CHECK_OK(e->RegisterTable("tpch", GenerateTpch(tpch)));
    return e;
  }();
  return instance;
}

class PaperQueryFoldTest : public ::testing::TestWithParam<NamedQuery> {};

TEST_P(PaperQueryFoldTest, EveryAggregateBlockMatchesTheOracle) {
  const NamedQuery& q = GetParam();
  Engine* engine = PaperEngine();
  auto query = engine->Compile(q.sql);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  for (const BlockDef& block : query->blocks) {
    ASSERT_TRUE(block.is_aggregate);
    auto table = engine->GetTable(block.table);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    auto dims = DimJoinSet::Build(block, engine->catalog());
    ASSERT_TRUE(dims.ok()) << dims.status().ToString();
    auto joined = dims->Apply(block, WithSerials(ScanRows(block, **table)));
    ASSERT_TRUE(joined.ok()) << joined.status().ToString();
    CheckBlock(block, *joined, q.name + " block " + std::to_string(block.id));
  }
}

TEST_P(PaperQueryFoldTest, ExactAnswerIsPoolInvariant) {
  const NamedQuery& q = GetParam();
  auto serial = PaperEngine()->ExecuteBatch(q.sql);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ThreadPool four(4);
  BatchExecOptions opts;
  opts.pool = &four;
  auto pooled = PaperEngine()->ExecuteBatch(q.sql, opts);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  ExpectBitIdentical(*serial, *pooled, q.name + " pool=4");
}

INSTANTIATE_TEST_SUITE_P(AllPaperQueries, PaperQueryFoldTest,
                         ::testing::ValuesIn(AllQueries()),
                         [](const ::testing::TestParamInfo<NamedQuery>& info) {
                           return info.param.name;
                         });

// ------------------------------------------------------ randomized shapes --

/// A table exercising every key-column type the group-id kernel specializes:
/// int, double, string and bool keys (all nullable) plus nullable numeric
/// and string measure columns and a string column without NULLs.
Table RandomizedTable(uint64_t seed, int64_t rows) {
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"ki", TypeId::kInt64},
      {"kf", TypeId::kFloat64},
      {"ks", TypeId::kString},
      {"kb", TypeId::kBool},
      {"v", TypeId::kFloat64},
      {"w", TypeId::kInt64},
      {"name", TypeId::kString},
      {"tag", TypeId::kString},
  });
  TableBuilder builder(schema, 512);
  Rng rng(seed);
  for (int64_t i = 0; i < rows; ++i) {
    std::vector<Value> row;
    row.push_back(rng.UniformInt(0, 12) == 0 ? Value::Null()
                                             : Value::Int(rng.UniformInt(-3, 3)));
    row.push_back(rng.UniformInt(0, 12) == 0
                      ? Value::Null()
                      : Value::Float(static_cast<double>(rng.UniformInt(-4, 4)) / 2.0));
    row.push_back(rng.UniformInt(0, 12) == 0
                      ? Value::Null()
                      : Value::String(std::string(1, static_cast<char>('a' + rng.UniformInt(0, 3)))));
    row.push_back(rng.UniformInt(0, 12) == 0 ? Value::Null()
                                             : Value::Bool(rng.UniformInt(0, 1) == 1));
    row.push_back(rng.UniformInt(0, 15) == 0 ? Value::Null()
                                             : Value::Float(rng.Normal(50, 20)));
    row.push_back(rng.UniformInt(0, 15) == 0 ? Value::Null()
                                             : Value::Int(rng.UniformInt(0, 1000)));
    row.push_back(rng.UniformInt(0, 9) == 0
                      ? Value::Null()
                      : Value::String(std::string(1, static_cast<char>('p' + rng.UniformInt(0, 2)))));
    row.push_back(Value::String(i % 3 == 0 ? "x" : "y"));
    builder.AppendRow(row);
  }
  return builder.Finish();
}

/// Group-by arity 0–3 over mixed key types; every SimpleAggKind fast path
/// (COUNT(*)/COUNT/SUM/AVG) plus the generic per-state aggregates
/// (MIN/MAX/VAR/STDDEV) and COUNT over string columns with and without
/// NULLs. The key columns lead each select list.
struct Shape {
  const char* sql;
  size_t num_keys;
};
const Shape kShapes[] = {
    {"SELECT COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM t", 0},
    {"SELECT ki, COUNT(*), SUM(v), AVG(w) FROM t GROUP BY ki", 1},
    {"SELECT kf, COUNT(v), SUM(w), VAR(v) FROM t GROUP BY kf", 1},
    {"SELECT ks, kb, AVG(v), COUNT(*), STDDEV(v) FROM t GROUP BY ks, kb", 2},
    {"SELECT ki, kf, ks, SUM(v), COUNT(w), MIN(w), MAX(v) FROM t GROUP BY ki, kf, ks", 3},
    {"SELECT kb, COUNT(name), COUNT(*) FROM t GROUP BY kb", 1},
    {"SELECT ki, COUNT(tag), AVG(v) FROM t GROUP BY ki", 1},
};

class RandomizedShapeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    engine_ = new Engine();
    GOLA_CHECK_OK(engine_->RegisterTable("t", RandomizedTable(11, 3000)));
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }

  static Table DrainOnline(const std::string& sql, ThreadPool* pool) {
    GolaOptions opts;
    opts.num_batches = 5;
    opts.bootstrap_replicates = kReplicates;
    opts.seed = 23;
    opts.pool = pool;
    auto online = engine_->ExecuteOnline(sql, opts);
    GOLA_CHECK_OK(online.status());
    auto last = (*online)->Run();
    GOLA_CHECK_OK(last.status());
    return last->result;
  }

  static Engine* engine_;
};
Engine* RandomizedShapeTest::engine_ = nullptr;

TEST_F(RandomizedShapeTest, KernelsMatchTheOracle) {
  auto table = engine_->GetTable("t");
  ASSERT_TRUE(table.ok());
  for (const Shape& shape : kShapes) {
    auto query = engine_->Compile(shape.sql);
    ASSERT_TRUE(query.ok()) << shape.sql << ": " << query.status().ToString();
    CheckBlock(query->root(), WithSerials(ScanRows(query->root(), **table)), shape.sql);
  }
}

/// Rows of `t` keyed by their first `num_keys` columns.
std::map<std::string, int64_t> RowsByKey(const Table& t, size_t num_keys) {
  std::map<std::string, int64_t> rows;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    std::string key;
    for (size_t c = 0; c < num_keys; ++c) key += t.At(r, static_cast<int>(c)).ToString() + "|";
    rows[key] = r;
  }
  return rows;
}

TEST_F(RandomizedShapeTest, OnlineAnswersArePoolInvariantAndExact) {
  ThreadPool four(4);
  for (const Shape& shape : kShapes) {
    SCOPED_TRACE(shape.sql);
    Table serial = DrainOnline(shape.sql, nullptr);
    ExpectBitIdentical(serial, DrainOnline(shape.sql, &four), "pool=4");

    auto exact = engine_->ExecuteBatch(shape.sql);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    BatchExecOptions pooled_opts;
    pooled_opts.pool = &four;
    auto pooled = engine_->ExecuteBatch(shape.sql, pooled_opts);
    ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
    ExpectBitIdentical(*exact, *pooled, "exact pool=4");
    const auto exact_rows = RowsByKey(*exact, shape.num_keys);
    const auto online_rows = RowsByKey(serial, shape.num_keys);
    ASSERT_EQ(exact_rows.size(), static_cast<size_t>(exact->num_rows()));
    ASSERT_EQ(online_rows.size(), exact_rows.size());
    for (const auto& [key, er] : exact_rows) {
      auto it = online_rows.find(key);
      ASSERT_TRUE(it != online_rows.end()) << "no online group " << key;
      for (size_t c = shape.num_keys; c < exact->schema()->num_fields(); ++c) {
        Value e = exact->At(er, static_cast<int>(c));
        Value o = serial.At(it->second, static_cast<int>(c));
        ASSERT_EQ(e.is_null(), o.is_null()) << key << " col " << c;
        if (e.is_null()) continue;
        const double ev = e.ToDouble().ValueOr(0);
        EXPECT_NEAR(o.ToDouble().ValueOr(1e100), ev, 1e-9 * std::max(1.0, std::fabs(ev)))
            << key << " col " << c;
      }
    }
  }
}

}  // namespace
}  // namespace gola
