#ifndef UNIKV_CORE_OPTIONS_H_
#define UNIKV_CORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "table/table_builder.h"

namespace unikv {

class Cache;
class Env;

/// Options controlling a DB instance (UniKV or one of the baselines).
struct Options {
  /// Environment used for all file access. Defaults to Env::Default().
  Env* env = nullptr;

  bool create_if_missing = true;
  bool error_if_exists = false;

  /// Memtable size that triggers a flush.
  size_t write_buffer_size = 4 * 1024 * 1024;

  /// Block cache capacity in bytes (0 disables the shared cache).
  size_t block_cache_size = 8 * 1024 * 1024;

  /// SSTable layout knobs.
  TableOptions table_options;

  // --- UniKV-specific knobs (ignored by baselines) ---

  /// UnsortedStore size that triggers a merge into the SortedStore
  /// (paper: UnsortedLimit, configured by available memory). A merge
  /// needs at least one unsorted table, so 0 merges every flush.
  size_t unsorted_limit = 16 * 1024 * 1024;

  /// Partition size (sorted keys + live log data) that triggers a range
  /// split (paper: partitionSizeLimit).
  size_t partition_size_limit = 256 * 1024 * 1024;

  /// Number of UnsortedStore tables that triggers the size-based merge
  /// scan optimization (paper: scanMergeLimit). With the in-memory sorted
  /// anchor view (enable_anchor_view) scans no longer pay a per-Next()
  /// merge-heap pop per overlapping table, so the default was raised from
  /// 8 to 16. The rewrite now pays off on point reads instead: it drops
  /// the shadowed versions of hot keys, keeping the hash-index candidate
  /// chain short (turning it off cost mixed_zipf 18% of its throughput;
  /// see EXPERIMENTS.md). A scan-merge needs at least two tables, so
  /// values below 2 act as 2.
  int scan_merge_limit = 16;

  /// Stale value-log bytes in a partition that trigger GC. GC needs some
  /// garbage, so 0 collects a partition once any of its values is stale.
  size_t gc_garbage_threshold = 16 * 1024 * 1024;

  /// Target size of each SortedStore SSTable produced by merges/GC.
  size_t sorted_table_size = 2 * 1024 * 1024;

  /// Data-block size for SortedStore tables (merge and GC outputs).
  /// 0 inherits table_options.block_size. Once values separate, a
  /// SortedStore entry is just a key plus a value pointer (~40 bytes), so
  /// a 4KiB block holds only ~100 entries: every point probe lands in a
  /// different block and pays a full block-cache lookup, and batched
  /// sorted probes almost never reuse the previously pinned block.
  /// Larger blocks amortize both (binary search only grows
  /// logarithmically with entries per block); the cost is coarser reads
  /// on a cold block-cache miss. 16KiB keeps that cold read moderate.
  size_t sorted_block_size = 16 * 1024;

  /// Restart interval for SortedStore data blocks (merge and GC outputs).
  /// SortedStore entries are short — a key plus a value pointer once
  /// values separate — so prefix compression saves almost nothing, while
  /// every point probe pays a linear prefix-decode scan between restart
  /// points. 1 makes every entry a restart: the in-block search becomes a
  /// pure binary search over full keys and the scan disappears.
  /// UnsortedStore tables keep table_options.block_restart_interval
  /// (default 16): their blocks carry full values, where the prefix bytes
  /// saved are cheap relative to the payload.
  int sorted_block_restart_interval = 1;

  /// Values shorter than this stay inline in SortedStore tables instead
  /// of being separated into the value logs (the paper's suggested
  /// mitigation for small-KV workloads, where pointer overhead and
  /// scan-time dereferences outweigh the merge savings). 0 separates
  /// everything.
  size_t value_separation_threshold = 64;

  /// Hash functions used for cuckoo-style candidate buckets (paper: n).
  int index_num_hashes = 2;

  /// Average KV size estimate used to size each partition's hash index.
  size_t index_expected_entry_size = 1024;

  /// Has no effect: every value-log read (Get, MultiGet, Scan and GC) runs
  /// on its caller's thread through one ValueFetcher (DESIGN.md §11). Kept
  /// only until the benchmark harness stops assigning it.
  int value_fetch_threads = 8;

  /// Background maintenance workers. Each worker picks one job at a time
  /// (memtable flush, merge, scan merge, GC, or split); jobs touching the
  /// same partition are mutually exclusive, jobs in different partitions
  /// run in parallel, and at most one flush is in flight. 1 restores the
  /// single-threaded scheduler (the crash harness pins this for
  /// deterministic Env-call traces). Clamped to [1, 16] at Open.
  int background_threads = 3;

  /// Foreground write shards. Keys are striped across shards by user-key
  /// hash; each shard owns its own memtable, WAL (.swal), writer queue and
  /// group commit, so concurrent writers to different shards never
  /// contend. Sequence numbers stay globally ordered and sync writes are
  /// durable across all shards, so crash recovery (which merges all shard
  /// WALs by sequence number) keeps the same prefix-cut guarantee as the
  /// single-queue path. 1 (the default) restores the single-queue write
  /// path. Not persisted: the shard count may change across restarts.
  /// Clamped to [1, 64] at Open.
  int write_shards = 1;

  /// Persist a hash-index checkpoint every this many UnsortedStore
  /// flushes (paper: every UnsortedLimit/2 of flushed tables). 0 disables
  /// checkpointing (recovery then rebuilds the index by scanning tables).
  int index_checkpoint_interval = 2;

  // --- Observability knobs ---

  /// Interval, in milliseconds, at which a background StatsSampler thread
  /// snapshots the metrics registry, appends a `stats_sample` line (with
  /// interval deltas) to the EVENTS log, and records the snapshot in the
  /// bounded ring served by the `db.stats.history` property. 0 (the
  /// default) starts no sampler thread at all.
  int stats_sample_interval_ms = 0;

  /// Capacity of the in-memory `db.stats.history` ring (oldest samples
  /// are dropped once it is full). Ignored when the sampler is off.
  size_t stats_history_size = 128;

  /// Size cap for the `<dbname>/EVENTS` structured log. When appending
  /// would exceed it, EVENTS is rotated to EVENTS.old (replacing any
  /// previous rotation), bounding event history to ~2x this value.
  /// 0 disables rotation (unbounded growth, the pre-cap behavior).
  uint64_t max_event_log_bytes = 64 * 1024 * 1024;

  // --- Ablation switches (F12 experiment). All default on. ---

  /// Off: point lookups in the UnsortedStore probe every table whose key
  /// range covers the key, newest (largest table id) first, instead of
  /// consulting the hash index.
  bool enable_hash_index = true;
  /// Off: merges write values inline into SortedStore tables (no value
  /// logs, no GC).
  bool enable_kv_separation = true;
  /// Off: never split; a single partition grows without bound.
  bool enable_partitioning = true;
  /// Off: no size-based merge, and Scan is the plain iterator loop.
  bool enable_scan_optimization = true;
  /// Off: scans always k-way-merge the overlapping unsorted tables. On:
  /// iterators over a partition with >= 2 unsorted tables use a sorted
  /// anchor view (DESIGN.md §12), built on first use and cached in memory
  /// (never persisted), that they binary-search once and then stream with
  /// one lockstep cursor per table.
  bool enable_anchor_view = true;

  // --- Baseline LSM knobs ---

  /// L0 file count that triggers an L0->L1 compaction.
  int l0_compaction_trigger = 4;
  /// Target size of L1; each deeper level is 10x larger.
  size_t max_bytes_for_level_base = 10 * 1024 * 1024;
  /// Max sorted runs per level for the tiered baseline.
  int tiered_runs_per_level = 4;
  /// Bloom bits per key for baseline tables (UniKV stores none).
  int baseline_bloom_bits_per_key = 10;
  /// Bucket-directory size for the HashLogDB baseline (its fixed memory
  /// budget; chains lengthen as data outgrows it — motivation Fig. 1).
  size_t hashlog_buckets = 1 << 16;
};

struct ReadOptions {
  /// Insert data blocks read by this operation into the block cache.
  /// Honoured by Get, MultiGet, iterators and scans. Turn off for bulk
  /// reads that should not evict the hot working set; blocks already
  /// cached are still served from the cache.
  bool fill_cache = true;

  /// Snapshot sequence for Get, MultiGet, iterators and scans: entries
  /// written with a sequence number greater than this are invisible,
  /// giving a point-in-time read. 0 (the default) reads at the latest
  /// visible sequence, and a snapshot above it is clamped to it. Obtain
  /// the current visible sequence from GetProperty("db.visible-sequence").
  /// Snapshots are not registered: the memtable and UnsortedStore keep
  /// every version, but a merge into the SortedStore drops shadowed
  /// ones, so a snapshot read after a merge may miss the value it would
  /// have seen. An iterator opened before the merge pins its version and
  /// is unaffected.
  uint64_t snapshot = 0;
};

struct WriteOptions {
  /// fsync the WAL before acknowledging the write.
  bool sync = false;
};

}  // namespace unikv

#endif  // UNIKV_CORE_OPTIONS_H_
