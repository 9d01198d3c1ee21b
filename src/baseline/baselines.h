#ifndef UNIKV_BASELINE_BASELINES_H_
#define UNIKV_BASELINE_BASELINES_H_

#include <string>

#include "core/db.h"

namespace unikv {
namespace baseline {

/// Opens a LevelDB-style LSM-tree: leveled compaction (L0..L6), per-table
/// bloom filters, values inline. Stands in for LevelDB/RocksDB in the
/// paper's comparisons. Like every LSM baseline here, it honours
/// ReadOptions::snapshot (clamped as the engine clamps it; obtain one
/// from GetProperty("db.visible-sequence")) and ReadOptions::fill_cache.
Status OpenLeveledDB(const Options& options, const std::string& name,
                     DB** dbptr);

/// Opens a tiered/universal-compaction LSM-tree: up to
/// `options.tiered_runs_per_level` overlapping sorted runs per level,
/// merged wholesale into the next level. Stands in for the
/// write-optimized HyperLevelDB/PebblesDB end of the design space.
Status OpenTieredDB(const Options& options, const std::string& name,
                    DB** dbptr);

/// Opens a SkimpyStash-style hash store: an in-memory bucket directory
/// over an append-only on-disk log with per-bucket chains. O(1)-ish point
/// ops, no range scans, memory fixed by the bucket count — used by the
/// motivation experiment (paper Fig. 1). It keeps one version per key and
/// has no block cache, so it honours neither ReadOptions::snapshot nor
/// ReadOptions::fill_cache.
Status OpenHashLogDB(const Options& options, const std::string& name,
                     DB** dbptr);

/// Bucket-count knob for OpenHashLogDB (kept out of Options to avoid
/// polluting the main configuration surface).
struct HashLogConfig {
  size_t num_buckets = 1 << 16;
};
Status OpenHashLogDB(const Options& options, const HashLogConfig& config,
                     const std::string& name, DB** dbptr);

}  // namespace baseline
}  // namespace unikv

#endif  // UNIKV_BASELINE_BASELINES_H_
