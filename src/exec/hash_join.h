// Equi-join of a streamed (probe) chunk against a fully-materialized
// dimension table (build side). Inner-join semantics: probe rows without a
// match are dropped; multiple build matches fan the probe row out.
//
// This is the execution vehicle for the paper's §2 capability of streaming
// only a subset of the input relations: dimension tables are read entirely
// up front, so every mini-batch of the fact table can be joined without
// affecting the uniform-sample property of the stream.
#ifndef GOLA_EXEC_HASH_JOIN_H_
#define GOLA_EXEC_HASH_JOIN_H_

#include <vector>

#include "common/status.h"
#include "exec/kernels/key_index.h"
#include "expr/expr.h"
#include "storage/chunk.h"
#include "storage/table.h"

namespace gola {

class DimHashTable {
 public:
  /// Builds the hash table over `dim` keyed by `build_key` (bound over the
  /// dimension schema). NULL and NaN keys never match.
  static Result<DimHashTable> Build(const Table& dim, const Expr& build_key);

  /// Joins `probe` against the table: output columns are the probe columns
  /// followed by all dimension columns; serials follow the probe rows.
  Result<Chunk> Probe(const Chunk& probe, const Expr& probe_key,
                      const SchemaPtr& output_schema) const;

  size_t num_keys() const { return index_.size(); }

 private:
  Chunk build_rows_;  // all dimension rows, combined
  KeyIndex index_;
  /// CSR: the dimension rows of key id k are
  /// key_rows_[key_offsets_[k] .. key_offsets_[k + 1]), ascending.
  std::vector<uint32_t> key_offsets_;
  std::vector<int64_t> key_rows_;
};

}  // namespace gola

#endif  // GOLA_EXEC_HASH_JOIN_H_
