// Versioned binary checkpoint of a running G-OLA query ("golackp" format),
// written by OnlineQueryExecutor::Checkpoint and read by ResumeFrom (both
// defined in checkpoint.cc). A killed process resumes at the next mini-batch
// and produces a bit-identical final answer: every source of randomness is a
// pure function of the seed (mini-batch shuffle, poissonized bootstrap
// weights), so only the accumulated state needs persisting — aggregate and
// replicate states, uncertain sets U_i with their serials, classification
// envelopes and the batch cursor.
//
// Layout (little-endian, one running FNV-1a checksum over everything):
//   magic "GOLACKP1" (8 bytes)
//   u32 format version (kCheckpointVersion; readers reject mismatches)
//   u32 fingerprint length + fingerprint bytes — a serialized digest of
//     every determinism-affecting knob (seed, batching, replicates, ε, CI
//     level, shuffle flag, streamed table, row count, block shapes and
//     scan columns). Resume
//     recomputes the digest locally and requires byte equality, so a
//     checkpoint can never be restored into a different query or options.
//   controller state: u32 next_batch, i64 rows_through, u32 recomputes,
//     f64 elapsed_seconds, u8 degradation rung, u8 stopped_early
//   u32 block count, then per block (dependency order): the block's
//     SaveState payload — its GroupArena as a column dump (layout header,
//     group count, key values, row counts, flat main sums/counts/any flags,
//     B replicate sums and counts per flat aggregate, then every generic
//     main and replicate AggState field by field), envelopes, uncertain set
//     (the block's input layout: its scan columns, then any dim columns)
//   u64 FNV-1a checksum of everything above
//
// Version policy: any layout change bumps kCheckpointVersion; there is no
// cross-version migration (checkpoints are short-lived recovery artifacts,
// not archives). Files are written to "<path>.tmp" and renamed into place,
// so a crash mid-write never clobbers the previous good checkpoint.
#ifndef GOLA_GOLA_CHECKPOINT_H_
#define GOLA_GOLA_CHECKPOINT_H_

#include <cstdint>

namespace gola {

inline constexpr char kCheckpointMagic[8] = {'G', 'O', 'L', 'A',
                                             'C', 'K', 'P', '1'};
inline constexpr uint32_t kCheckpointVersion = 3;

}  // namespace gola

#endif  // GOLA_GOLA_CHECKPOINT_H_
