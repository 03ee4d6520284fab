// Bit-level fingerprints of the eight library queries (workload/queries.h).
// Per query, one 64-bit FNV-1a hash covers every OnlineUpdate of a full
// online run — every result cell (doubles as raw bits), `max_rsd` and
// `uncertain_tuples` — followed by the exact ExecuteBatch answer. The
// constants pin both engines' output bit for bit, serial and on a pool.
//
// The online-versus-exact checks elsewhere compare two engines that read
// the same bound plan, so a slip in the plan (a wrong column position, a
// dropped row) that both engines share passes them; a hash of the whole
// update stream against recorded values does not. A change meant to move
// no bit (layouts, scheduling, I/O) must leave every constant as it is. A
// change meant to move results re-records them from the values this test
// prints on mismatch, and says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>

#include "common/logging.h"
#include "common/string_util.h"
#include "gola/gola.h"
#include "storage/serde.h"
#include "workload/conviva_gen.h"
#include "workload/queries.h"
#include "workload/tpch_gen.h"

namespace gola {
namespace {

// 20 000 rows per table, 20 mini-batches, B = 20 replicates, seed 21.
const std::map<std::string, uint64_t>& ExpectedFingerprints() {
  static const std::map<std::string, uint64_t> kExpected = {
      {"SBI", 0xe6877bc82554857bULL}, {"C1", 0x06cf81f18ad7282dULL},
      {"C2", 0x5514576313fc3703ULL},  {"C3", 0x04cd93d8376a17d3ULL},
      {"Q11", 0xc889c65478627189ULL}, {"Q17", 0x8ede2d55bad56ec9ULL},
      {"Q18", 0xa24c2278384cd85aULL}, {"Q20", 0x75256297f2c05075ULL},
  };
  return kExpected;
}

Engine* LibraryEngine() {
  static Engine* instance = [] {
    auto* e = new Engine();
    ConvivaGenOptions conviva;
    conviva.num_rows = 20000;
    GOLA_CHECK_OK(e->RegisterTable("conviva", GenerateConviva(conviva)));
    TpchGenOptions tpch;
    tpch.num_rows = 20000;
    GOLA_CHECK_OK(e->RegisterTable("tpch", GenerateTpch(tpch)));
    return e;
  }();
  return instance;
}

template <typename T>
void HashPod(Fnv1a* h, T v) {
  h->Update(&v, sizeof v);
}

void HashString(Fnv1a* h, const std::string& s) {
  HashPod<uint64_t>(h, s.size());
  h->Update(s.data(), s.size());
}

/// Column names and types, then every cell row-major: a type tag and the
/// payload (doubles by their bit pattern, so -0.0 and NaN payloads count).
void HashTable(Fnv1a* h, const Table& t) {
  const Schema& schema = *t.schema();
  HashPod<uint64_t>(h, schema.num_fields());
  for (const Field& f : schema.fields()) {
    HashString(h, f.name);
    HashPod<uint8_t>(h, static_cast<uint8_t>(f.type));
  }
  HashPod<int64_t>(h, t.num_rows());
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      const Value v = t.At(r, static_cast<int>(c));
      if (v.is_null()) {
        HashPod<uint8_t>(h, 0xFF);
        continue;
      }
      HashPod<uint8_t>(h, static_cast<uint8_t>(v.type()));
      switch (v.type()) {
        case TypeId::kBool: HashPod<uint8_t>(h, v.AsBool() ? 1 : 0); break;
        case TypeId::kInt64: HashPod<int64_t>(h, v.AsInt()); break;
        case TypeId::kFloat64: {
          uint64_t bits = 0;
          const double d = v.AsFloat();
          std::memcpy(&bits, &d, sizeof bits);
          HashPod<uint64_t>(h, bits);
          break;
        }
        case TypeId::kString: HashString(h, v.AsString()); break;
        case TypeId::kNull: break;
      }
    }
  }
}

uint64_t Fingerprint(const NamedQuery& q, ThreadPool* pool) {
  GolaOptions opts;
  opts.num_batches = 20;
  opts.bootstrap_replicates = 20;
  opts.seed = 21;
  opts.pool = pool;
  Fnv1a h;
  auto online = LibraryEngine()->ExecuteOnline(q.sql, opts);
  GOLA_CHECK_OK(online.status());
  while (!(*online)->done()) {
    auto update = (*online)->Step();
    GOLA_CHECK_OK(update.status());
    HashTable(&h, update->result);
    uint64_t rsd_bits = 0;
    std::memcpy(&rsd_bits, &update->max_rsd, sizeof rsd_bits);
    HashPod<uint64_t>(&h, rsd_bits);
    HashPod<int64_t>(&h, update->uncertain_tuples);
  }
  BatchExecOptions batch;
  batch.pool = pool;
  auto exact = LibraryEngine()->ExecuteBatch(q.sql, batch);
  GOLA_CHECK_OK(exact.status());
  HashTable(&h, *exact);
  return h.value();
}

class UpdateFingerprintTest : public ::testing::TestWithParam<NamedQuery> {};

TEST_P(UpdateFingerprintTest, SerialAndPooledRunsMatchTheRecordedHash) {
  const NamedQuery& q = GetParam();
  const uint64_t want = ExpectedFingerprints().at(q.name);
  ThreadPool four(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
    const uint64_t got = Fingerprint(q, pool);
    EXPECT_EQ(got, want) << q.name << (pool ? " pool=4" : " serial")
                         << ": fingerprint "
                         << Format("0x%016llx", static_cast<unsigned long long>(got));
  }
}

INSTANTIATE_TEST_SUITE_P(AllPaperQueries, UpdateFingerprintTest,
                         ::testing::ValuesIn(AllQueries()),
                         [](const ::testing::TestParamInfo<NamedQuery>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace gola
