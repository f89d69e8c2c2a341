/// \file cache_checkpoint.h
/// \brief Binary codec for solve-cache checkpoints.
///
/// File layout (all integers little-endian, fixed width):
///
///   offset  size  field
///   0       4     magic "MRSC"
///   4       4     format version (kCacheCheckpointVersion)
///   8       8     entry count N
///   16      ...   N entries, each:
///                   u32 key length, key bytes,
///                   u32 row count R, u32 column count K,
///                   R*K residence doubles (row-major),
///                   R response doubles,
///                   i32 solver iterations
///   end-4   4     CRC-32 (IEEE 802.3) of every preceding byte
///
/// Entries are ordered least-recently-used first (per shard), so a
/// reader that replays them in file order and evicts LRU-on-overflow
/// keeps exactly the most-recently-used suffix. Every field is length-
/// prefixed and the trailing CRC covers header and payload, so a
/// truncated, bit-flipped or foreign file is detected and rejected as a
/// Status error — never undefined behavior, never a crash.
///
/// Checkpoints are machine-local warm-restart state, not an interchange
/// format: the doubles are raw host bytes (predictd writes on drain and
/// reads on the next boot of the same host). A version bump is required
/// for any layout change; readers reject unknown versions.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "queueing/mva_overlap.h"

namespace mrperf {

inline constexpr uint32_t kCacheCheckpointVersion = 1;
inline constexpr char kCacheCheckpointMagic[4] = {'M', 'R', 'S', 'C'};

/// \brief One serialized cache entry: the exact lookup key and the
/// cached (class-granularity, for grouped keys) solution.
struct CacheCheckpointEntry {
  std::string key;
  OverlapMvaSolution solution;
};

/// \brief Serializes `entries` to `path` atomically: the file is
/// written to `path + ".tmp"` and renamed over `path`, so a crash
/// mid-write never leaves a half-written checkpoint at `path`.
Status WriteCacheCheckpoint(const std::string& path,
                            const std::vector<CacheCheckpointEntry>& entries);

/// \brief Reads and verifies a checkpoint, returning its entries in
/// file order (least-recently-used first). Missing files return
/// kNotFound; truncated, corrupt, mis-sized or version-mismatched files
/// return kInvalidArgument with a message naming the defect.
Result<std::vector<CacheCheckpointEntry>> ReadCacheCheckpoint(
    const std::string& path);

/// \brief CRC-32 (IEEE 802.3, reflected 0xEDB88320) of `data`; exposed
/// for the corruption tests.
uint32_t CacheCheckpointCrc32(const std::string& data);

}  // namespace mrperf
