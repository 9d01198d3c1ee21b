#ifndef UNIKV_CORE_UNIKV_DB_H_
#define UNIKV_CORE_UNIKV_DB_H_

#include <atomic>
#include <deque>
#include <initializer_list>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/anchor_view.h"
#include "core/db.h"
#include "core/dbformat.h"
#include "core/table_cache.h"
#include "core/version.h"
#include "index/hash_index.h"
#include "mem/memtable.h"
#include "util/event_logger.h"
#include "util/metrics.h"
#include "util/perf_context.h"
#include "util/sync.h"
#include "vlog/value_log.h"
#include "wal/log_writer.h"

namespace unikv {

class Cache;

/// The engine's one metrics registry (DESIGN.md §8) plus cached pointers
/// to the series hot paths bump directly, so instrumented paths never pay
/// a map lookup. Everything else reaches the registry one of two ways:
/// threads fold their PerfContext deltas in (FoldPerf), and background
/// job installs add their job and byte counts by name (CountJob).
struct EngineMetrics {
  EngineMetrics();

  /// Adds a PerfContext delta into the engine-wide series of the same
  /// names. Fields counted at their source are skipped: value-log reads
  /// (ValueLogCache::SetCounters sees every thread), write_stall_micros
  /// (counted at the stall site as stall_micros) and the per-op timers
  /// (the latency histograms carry them).
  void FoldPerf(const PerfContext& d);

  /// Registers every per-partition series of partition `pid`, so each
  /// partition reports the same keys from birth; returns its heat_reads.
  Counter* RegisterPartition(uint32_t pid);

  /// Adds each (series, n) to the engine-wide series and to partition
  /// `pid`'s series of the same name.
  void CountJob(uint32_t pid,
                std::initializer_list<std::pair<const char*, uint64_t>> counts);

  MetricsRegistry registry;

  // Counted at their source, outside any PerfContext.
  Counter* write_bytes;
  Counter* write_stalls;
  Counter* stall_micros;
  Counter* scan_entries;

  // Sorted anchor view (DESIGN.md §12).
  Counter* anchor_view_builds;  // Views built or extended by iterators.
  Counter* anchor_view_merges;  // Of those, extended by one merge pass.
  Counter* scan_anchor_hits;    // Partition children built on a view.
  Gauge* anchor_view_bytes;     // Current total view bytes across partitions.

  // Work done by user iterators, which open partitions and tables lazily.
  Counter* iterator_partitions_opened;  // Partition children built.
  Counter* iterator_tables_opened;  // Sorted-run, unsorted, anchor cursors.

  // Operation and background-job latencies (microseconds).
  ConcurrentHistogram* get_latency;
  ConcurrentHistogram* write_latency;
  ConcurrentHistogram* scan_latency;
  ConcurrentHistogram* multiget_latency;
  ConcurrentHistogram* multiget_keys_per_batch;
  ConcurrentHistogram* flush_latency;
  ConcurrentHistogram* merge_latency;
  ConcurrentHistogram* scan_merge_latency;
  ConcurrentHistogram* gc_latency;
  ConcurrentHistogram* split_latency;

 private:
  /// PerfContext field -> registry series, for FoldPerf.
  std::vector<std::pair<uint64_t PerfContext::*, Counter*>> folded_;
};

/// The UniKV store: differentiated indexing (hash-indexed UnsortedStore +
/// fully-sorted SortedStore with partial KV separation), dynamic range
/// partitioning, and scan/GC machinery. See DESIGN.md.
class UniKVDB : public DB {
 public:
  UniKVDB(const Options& options, const std::string& dbname);
  ~UniKVDB() override;

  static Status Open(const Options& options, const std::string& name,
                     DB** dbptr);

  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
  Status MultiGet(const ReadOptions& options, const std::vector<Slice>& keys,
                  std::vector<std::string>* values,
                  std::vector<Status>* statuses) override;
  Iterator* NewIterator(const ReadOptions& options) override;
  Status Scan(const ReadOptions& options, const Slice& start, int count,
              std::vector<std::pair<std::string, std::string>>* out) override;
  Status CompactAll() override;
  Status FlushMemTable() override;
  Status GetBackgroundError() override;
  bool GetProperty(const Slice& property, std::string* value) override;

  /// The registry every report renders from, for tests that check each
  /// report against it.
  const MetricsRegistry& TEST_metrics() const { return metrics_.registry; }

  /// Test-only: reintroduces the historical unsafe GC ordering (old value
  /// logs deleted before the manifest install is durable), so the crash
  /// harness can prove it catches ordering bugs. Never set in production.
  static std::atomic<bool> TEST_gc_unsafe_delete_before_install_;

 private:
  friend class DB;
  struct Writer;

  /// One foreground write shard (DESIGN.md §10). Keys are striped across
  /// shards by user-key hash; each shard owns a memtable pair, a WAL
  /// (.swal) and a writer deque with LevelDB-style group commit — so
  /// concurrent writers to different shards never contend. Lock order:
  /// mu_ (DB) -> mu (shard) -> log_mu (shard); err_mu_ is a leaf taken
  /// after any of them.
  struct WriteShard {
    WriteShard() : cv(&mu) {}

    /// Guards the writer queue, memtable pointers, rotation, and the
    /// stall wait. Writers take this, never mu_.
    Mutex mu;
    CondVar cv;  // Queue-front handoff + stall wakeup.

    MemTable* mem GUARDED_BY(mu) = nullptr;
    /// Non-null while a rotation awaits flush. Guarded by mu; the flush
    /// worker additionally pins it (Ref under mu) before reading outside.
    MemTable* imm GUARDED_BY(mu) = nullptr;
    std::unique_ptr<WritableFile> wal_file GUARDED_BY(log_mu);
    std::unique_ptr<log::Writer> wal GUARDED_BY(log_mu);
    /// Numbers of the active WAL and (while imm != nullptr) the retired
    /// WAL the imm's contents live in; 0 = no retired WAL. Atomics so the
    /// flush installer can compute the manifest log-number floor.
    std::atomic<uint64_t> wal_number{0};
    std::atomic<uint64_t> imm_wal_number{0};

    std::deque<Writer*> writers GUARDED_BY(mu);
    WriteBatch scratch;  // Group-commit scratch; only the group leader's.

    /// Serializes {sequence allocation, WAL append, own sync} as one
    /// critical section, and cross-shard syncs against rotation. Held by
    /// the group leader (inside mu) and, alone, by sync writers and the
    /// flush installer syncing peer shards. Lock order: mu before log_mu.
    Mutex log_mu;
    /// Lowest sequence the active WAL may hold unsynced: 0 = fully
    /// synced, kSeqAllocating = a group is mid-allocation (transient,
    /// nanoseconds). Published (seq_cst) BEFORE the group allocates its
    /// sequences and reset to 0 only by a Sync covering the append — so
    /// a reader holding sequence C who then sees 0 or a value > C has a
    /// lock-free proof that every sequence <= C on this shard is
    /// durable. Mutated only under log_mu; read lock-free by the
    /// sync-all fast path (see SyncAllShardWals).
    std::atomic<uint64_t> first_unsynced_seq{0};

    /// Scheduler-visible flush signal (set by rotation, cleared by the
    /// flush install). flush_in_progress is scheduler claim state and is
    /// guarded by mu_, not by this shard's mu.
    std::atomic<bool> has_imm{false};
    bool flush_in_progress = false;
  };

  Status Recover() EXCLUDES(mu_);
  /// One WAL record (one group-committed batch) read back at recovery.
  struct WalBatch {
    SequenceNumber seq = 0;
    uint32_t count = 0;
    std::string contents;
  };
  /// Reads every batch from one WAL into *out (torn tails are silently
  /// ignored, mid-file corruption is an error). Recovery merges batches
  /// from all shard WALs by sequence number before replaying.
  Status CollectWalBatches(const std::string& fname,
                           std::vector<WalBatch>* out);
  /// Partition `p`'s hash index as of recovery: its checkpoint image,
  /// if any loads, plus every unsorted table the image does not cover.
  Status LoadHashIndex(const PartitionState& p,
                       std::unique_ptr<HashIndex>* index);
  Status InsertTableIntoIndex(HashIndex* index, const FileMeta& f);
  std::unique_ptr<HashIndex> NewHashIndex() const;

  /// The shard responsible for `user_key` (stable hash stripe; not
  /// persisted, so write_shards may change across restarts).
  uint32_t ShardOf(const Slice& user_key) const;
  /// Publishes `seq` as visible to readers (CAS-max); called after the
  /// memtable insert, before the writers are acked.
  void AdvanceVisibleSeq(uint64_t seq);

  /// Ensures s->mem has room (rotating memtable+WAL when full). With
  /// `force`, rotates a non-empty memtable unconditionally — the manual
  /// FlushMemTable path. Only the shard's front writer calls this, so the
  /// WAL is never rotated under a concurrent same-shard AddRecord (the
  /// swap itself happens under log_mu against cross-shard syncs). Called
  /// with s->mu held; stall waits block on the shard cv, which is bound
  /// to s->mu, so the lock is released and re-taken inside the wait.
  Status MakeRoomForWrite(WriteShard* s, bool force) REQUIRES(s->mu);
  WriteBatch* BuildBatchGroup(WriteShard* s, Writer** last_writer)
      REQUIRES(s->mu);
  /// Rotates to a fresh WAL; takes s->log_mu itself for the swap. Must
  /// run as the queue-front writer, hence REQUIRES(s->mu).
  Status SwitchWal(WriteShard* s) REQUIRES(s->mu);
  /// The whole write path of one shard: queue, group commit, WAL append +
  /// sync, memtable insert, visibility publish.
  Status WriteToShard(WriteShard* s, const WriteOptions& options,
                      WriteBatch* updates) EXCLUDES(mu_);
  /// Sentinel for WriteShard::first_unsynced_seq: a group has claimed
  /// the shard but not yet allocated its sequences, so its eventual
  /// sequences are unknown and must be assumed low.
  static constexpr uint64_t kSeqAllocating = ~0ull;

  /// Makes every sequence number <= `ceiling` durable — required before
  /// a sync write (ceiling = its last sequence) is acked and before a
  /// flush advances the manifest floor. Fast path: a lock-free scan of
  /// the shards' first_unsynced_seq watermarks proves the prefix durable
  /// without touching any lock (the common case when every writer
  /// syncs). Slow path: a coordinated round — concurrent callers whose
  /// ceiling is covered by an in-flight or completed round wait on it
  /// instead of issuing their own fsync storm, and the round only locks
  /// and fsyncs shards whose watermark says they matter. With `force`
  /// (the flush path) every short-circuit is disabled and every live
  /// WAL is synced: flushes are rare, and an unconditional round keeps
  /// the env call sequence deterministic for twin-run crash tests
  /// (whether a skip fires would otherwise depend on how background
  /// flushes race foreground writers).
  Status SyncAllShardWals(uint64_t ceiling, bool force = false)
      EXCLUDES(sync_mu_);
  /// One shard's share of a sync-all round: re-checks the watermark
  /// under the lock, fsyncs, and clears the watermark on success.
  Status SyncShardWalLocked(WriteShard* t, bool force, uint64_t target)
      REQUIRES(t->log_mu);

  /// Uninstrumented bodies of Write/Scan; the public entry points wrap
  /// them with PerfContext accounting (one fold per op regardless of
  /// which internal return path fires).
  Status WriteImpl(const WriteOptions& options, WriteBatch* updates);
  Status ScanImpl(const ReadOptions& options, const Slice& start, int count,
                  std::vector<std::pair<std::string, std::string>>* out);

  /// Batched PerfContext -> MetricsRegistry folding. Folding the delta on
  /// every op costs ~25 atomic RMWs, which roughly doubles the latency of
  /// a negative point lookup; instead each foreground op calls PerfEndOp
  /// on completion and the accumulated delta is pushed into the registry
  /// once per kPerfFoldBatch ops (plus whenever the calling thread reads
  /// the metrics properties, via FlushPerfPending). Pending deltas are
  /// abandoned — never folded — when the thread switches to a different
  /// DB (the old registry may already be destroyed) or when the user
  /// Reset() the context, so the registry can momentarily lag the
  /// thread-local context by at most one batch.
  void PerfEndOp(PerfContext* perf);
  void FlushPerfPending();

  enum class WorkKind {
    kNone,
    kFlush,
    kMerge,
    kScanMerge,
    kGc,
    kSplit,
  };
  struct WorkItem {
    WorkKind kind = WorkKind::kNone;
    std::shared_ptr<const PartitionState> partition;
    /// For kFlush: index of the shard whose imm is to be flushed.
    int shard = -1;
  };

  void MaybeScheduleWork() REQUIRES(mu_);

  /// Body of one background worker thread. `options_.background_threads`
  /// of these run concurrently; each picks one schedulable job at a time
  /// (PickWork skips busy partitions), marks its target busy, and executes
  /// it with mu_ released. Jobs in different partitions proceed in
  /// parallel; jobs on the same partition — and concurrent flushes — are
  /// mutually exclusive.
  void BackgroundWorker() EXCLUDES(mu_);

  /// The one trigger rule (DESIGN.md §5): the job partition `p` wants,
  /// with its rank (lower runs first) and, within a rank, its weight
  /// (larger runs first). kNone when it wants nothing. Every kind it
  /// returns has input to consume, so a job always makes progress.
  struct Wanted {
    WorkKind kind = WorkKind::kNone;
    int rank = 0;
    uint64_t weight = 0;
  };
  Wanted WantedWork(const PartitionState& p) REQUIRES(mu_);

  /// Next schedulable job: a pending flush whose shard has none in flight,
  /// else the best job WantedWork names in a partition that is not busy.
  WorkItem PickWork() REQUIRES(mu_);

  /// Whether any work remains: some shard has an imm, or WantedWork wants
  /// a job in some partition, busy or not. CompactAll drains on this.
  bool HasWorkPending() REQUIRES(mu_);
  /// Runs one job start to finish; all I/O, so never under mu_.
  Status DispatchWork(const WorkItem& item) EXCLUDES(mu_);

  /// Table output of every background job (core/table_output_writer.h).
  class TableOutputWriter;

  struct FlushOutput {
    uint32_t pid = 0;
    /// Wrote the table and holds it (and the partition's index checkpoint,
    /// if this flush writes one) as a pending output until destroyed.
    std::unique_ptr<TableOutputWriter> writer;
    FileMeta meta;
    std::vector<std::string> keys;  // Deduplicated user keys, table order.
  };

  /// Flushes `mem` contents to per-partition UnsortedStore tables routed
  /// by `base`'s partition boundaries and fills *outputs, also on failure
  /// (their writers release the files). Called without holding mu_
  /// (writers take it briefly for file numbers). Does not assign
  /// table_ids, build an edit, or touch the hash indexes — the caller
  /// does that under mu_ after re-validating the routing against
  /// the then-current version (a concurrent split may have moved
  /// boundaries while the tables were being built).
  Status FlushMemTableToUnsorted(MemTable* mem, const VersionPtr& base,
                                 std::vector<FlushOutput>* outputs)
      EXCLUDES(mu_);

  /// True iff every output's [smallest, largest] still maps to the
  /// partition it was built for in `ver`.
  bool RoutingStillValid(const VersionData& ver,
                         const std::vector<FlushOutput>& outputs)
      REQUIRES(mu_);
  Status CompactMemTable(size_t shard_idx) EXCLUDES(mu_);

  /// Installs `edit`, a merge or scan-merge that consumed every unsorted
  /// table of `snap` (partition `snap.id` as the job saw it). Tables
  /// flushed into the partition while the job ran survive the edit
  /// (removals are by number): their keys are added to `index`, which the
  /// caller seeds with the keys of the job's own unsorted output, and
  /// `index` becomes the partition's hash index once the edit is applied.
  /// Also drops the partition's cached anchor view and restarts its
  /// checkpoint count. Call it as soon as mu_ is taken: the EVENTS
  /// install_micros it reports runs from its entry to LogAndApply's return.
  struct UnsortedInstall {
    size_t survivors = 0;  // Tables flushed in while the job ran.
    uint64_t micros = 0;   // EVENTS install_micros.
  };
  Status InstallUnsortedReplacement(const PartitionState& snap,
                                    VersionEdit* edit,
                                    std::unique_ptr<HashIndex> index,
                                    UnsortedInstall* result) REQUIRES(mu_);

  Status MergePartition(std::shared_ptr<const PartitionState> p)
      EXCLUDES(mu_);
  Status ScanMergePartition(std::shared_ptr<const PartitionState> p)
      EXCLUDES(mu_);
  Status GcPartition(std::shared_ptr<const PartitionState> p) EXCLUDES(mu_);
  Status SplitPartition(std::shared_ptr<const PartitionState> p)
      EXCLUDES(mu_);

  void RemoveObsoleteFiles() EXCLUDES(mu_);
  void RecordBackgroundError(const Status& s) EXCLUDES(mu_, err_mu_);

  /// Renders `db.metrics` / `db.metrics.json`.
  std::string MetricsTextLocked(const VersionData& ver) REQUIRES(mu_);
  std::string MetricsJsonLocked(const VersionData& ver) REQUIRES(mu_);

  // ---- StatsSampler (stats_sampler.cc) ----

  /// One sampler snapshot: every registry counter at ts_micros. Deltas
  /// between consecutive samples are what the EVENTS `stats_sample`
  /// lines report.
  struct Sample {
    uint64_t ts_micros = 0;
    CounterSnapshot counters;
  };

  /// Body of the sampler thread: every stats_sample_interval_ms, takes a
  /// snapshot under mu_, pushes it into the bounded history ring, and
  /// appends a `stats_sample` delta line to the EVENTS log.
  void StatsSamplerThread() EXCLUDES(mu_);
  /// Emits one `stats_sample` EVENTS line carrying, for every counter
  /// series, the interval delta (d_*) and the cumulative value (cum_*).
  void LogStatsSample(const Sample& prev, const Sample& cur);
  /// Renders the history ring as a JSON array (db.stats.history).
  std::string StatsHistoryJsonLocked() const REQUIRES(mu_);

  /// The sequence a read runs at: the published visible sequence, or
  /// ReadOptions::snapshot when that is older. Clamping to the visible
  /// ceiling means a stale or garbage snapshot can never surface unacked
  /// writes.
  SequenceNumber ReadSequence(const ReadOptions& options) const;

  /// The one point-read path (DESIGN.md §11): Get is the n == 1 case,
  /// MultiGet the batch. Reads keys[0..n) at one snapshot and fills
  /// values[i]/statuses[i] for every i (absent keys: NotFound). One
  /// shard-pin and mu_ capture per call, memtable probes, store probes
  /// one partition at a time, then one ValueFetcher step for every
  /// separated value found.
  void MultiGetImpl(const ReadOptions& options, const Slice* keys, size_t n,
                    std::string* values, Status* statuses) EXCLUDES(mu_);
  /// Looks `lkey` up in one partition's stores: the UnsortedStore tables
  /// named by the hash-index `candidates` (owned by the caller; sorted and
  /// deduplicated in place), newest first, then the one SortedStore table
  /// a binary search over boundary keys picks. Tables are read through
  /// `pin`; `probe` carries the last SortedStore data block and scratch
  /// strings across the partition's keys. Returns OK with the value, or
  /// OK with *separated set and the value's log pointer in *ptr (the
  /// caller fetches it); NotFound when absent or deleted; else the error.
  Status GetFromStores(const PartitionState& p,
                       std::vector<uint16_t>* candidates,
                       const LookupKey& lkey, bool fill_cache,
                       TableCache::BatchPin* pin, Table::Probe* probe,
                       std::string* value, ValuePointer* ptr,
                       bool* separated);

  /// Builds the internal iterator: the memtables merged with one lazy
  /// concatenation over the version's partitions (DESIGN.md §12);
  /// *latest_seq receives the read sequence (ReadSequence). The version is
  /// captured under a short mu_ hold; a partition's child is built, by
  /// NewPartitionIterator, only when the cursor enters its key range.
  Iterator* NewInternalIterator(const ReadOptions& options,
                                SequenceNumber* latest_seq) EXCLUDES(mu_);

  /// One partition's child of an iterator: its anchor-view child (or one
  /// child per unsorted table) merged with its lazy sorted run. Runs
  /// without mu_; the caller pins the version that owns `p`.
  Iterator* NewPartitionIterator(const PartitionState& p, bool fill_cache)
      EXCLUDES(mu_);

  /// On-demand anchor view of one partition (DESIGN.md §12), run without
  /// mu_ for a partition with >= 2 unsorted tables. Returns a view covering
  /// exactly p.unsorted: the cached view when it already does, the cached
  /// one extended by MergeAnchorView when it covers a prefix of them
  /// (flushes appended the rest), else a fresh BuildAnchorView; null when
  /// the build fails (the caller falls back to per-table children). A new
  /// view is published to the partition's record under a short mu_ hold.
  AnchorViewPtr RefreshAnchorView(const PartitionState& p) EXCLUDES(mu_);

  /// Replaces (or retires, view == nullptr) a partition's cached anchor
  /// view and keeps the anchor_view_bytes gauge in sync.
  void InstallAnchorViewLocked(uint32_t pid, AnchorViewPtr view)
      REQUIRES(mu_);

  // ---- Immutable after Open ----
  Options options_;
  const std::string dbname_;
  Env* env_;
  /// Exclusive claim on dbname_ (the LOCK file), held from Recover until
  /// destruction so a second instance cannot sweep this one's files.
  FileLock* db_lock_ = nullptr;
  InternalKeyComparator icmp_;
  EngineMetrics metrics_;  // Before the caches that hold counter pointers.
  std::unique_ptr<EventLogger> event_log_;
  std::unique_ptr<Cache> block_cache_;
  std::unique_ptr<TableCache> table_cache_;
  std::unique_ptr<ValueLogCache> vlog_cache_;

  // ---- Sharded foreground write path (DESIGN.md §10) ----

  /// Fixed at Open from options_.write_shards (clamped to [1, 64]).
  /// Writers touch only their shard; the DB mutex below guards background
  /// scheduling and version state, never the hot write path.
  std::vector<std::unique_ptr<WriteShard>> shards_;

  /// Global sequence allocator: the last allocated sequence number. A
  /// group leader allocates [n+1, n+count] via fetch_add *inside* its
  /// shard's log_mu critical section, which is what makes gap-cut
  /// recovery sound (see DESIGN.md §10).
  std::atomic<uint64_t> seq_alloc_{0};
  /// Highest sequence published to readers: advanced (CAS-max) after each
  /// group's memtable insert, before its writers are acked. Get and
  /// iterators snapshot this, so acked writes are always visible; a
  /// cross-shard snapshot is best-effort (a lagging group on another
  /// shard may surface later under an older snapshot).
  std::atomic<uint64_t> visible_seq_{0};

  /// Cross-shard sync coordinator (DESIGN.md §10). A sync-all round
  /// promises "every sequence allocated before the round began is
  /// durable"; synced_seq_floor_ records the highest such promise kept.
  /// Callers whose ceiling is already under the floor return instantly;
  /// callers arriving while a round is in flight wait for it and
  /// re-check — so N concurrent sync writers trigger O(1) rounds, not N
  /// fsync storms. sync_mu_ guards only the flags; it is never held
  /// across an fsync or while acquiring any other lock.
  Mutex sync_mu_;
  CondVar sync_cv_;
  bool sync_all_in_flight_ GUARDED_BY(sync_mu_) = false;
  uint64_t synced_seq_floor_ GUARDED_BY(sync_mu_) = 0;

  /// Leaf lock for the sticky background error. Writers check
  /// has_bg_error_ lock-free and only take err_mu_ to read the Status;
  /// nothing else is ever acquired while holding err_mu_.
  Mutex err_mu_;
  Status bg_error_ GUARDED_BY(err_mu_);
  std::atomic<bool> has_bg_error_{false};

  // ---- State guarded by mu_ ----
  Mutex mu_;
  CondVar bg_cv_;       // Signalled when bg work finishes.
  CondVar bg_work_cv_;  // Wakes the background thread.

  /// Not GUARDED_BY(mu_) on purpose: current()/NewFileNumber()/
  /// LastSequence() are internally synchronized and intentionally called
  /// without mu_ (read paths pin a version snapshot); the *mutating*
  /// VersionSet methods (LogAndApply, SetLastSequence, ...) must be
  /// called with mu_ held — a contract the install paths keep by
  /// construction (every LogAndApply site sits in a REQUIRES(mu_) region).
  std::unique_ptr<VersionSet> versions_;

  /// A partition's mutable side state (not versioned). Created with the
  /// partition, at the end of Recover or at split install, in the mu_
  /// hold that makes it visible, so every partition a reader or job can
  /// route to has one; never erased (nothing removes partitions).
  struct PartitionRuntime {
    /// Maps the keys of the partition's unsorted tables to table ids;
    /// replaced wholesale by merge and scan-merge installs.
    std::unique_ptr<HashIndex> index;
    /// Stale value-log bytes (GC trigger); counted from open, not stored.
    uint64_t vlog_garbage = 0;
    int flushes_since_checkpoint = 0;
    /// The partition's heat_reads series, cached so the per-key heat bump
    /// in Get/MultiGet costs no registry lock or name building.
    Counter* heat_reads = nullptr;
    /// A merge/scan-merge/GC/split is in flight; PickWork skips the
    /// partition so same-partition jobs never overlap.
    bool busy = false;
    /// Cached anchor view over the unsorted tables (DESIGN.md §12), set
    /// by iterators and retired by merge and scan-merge installs. The
    /// view is immutable: readers copy the pointer under mu_ and use it
    /// lock-free.
    AnchorViewPtr anchor_view;
  };
  std::unordered_map<uint32_t, PartitionRuntime> runtime_ GUARDED_BY(mu_);

  std::set<uint64_t> pending_outputs_ GUARDED_BY(mu_);

  /// Background jobs currently executing across all workers. CompactAll,
  /// FlushMemTable, and the destructor drain on this reaching zero.
  int bg_jobs_running_ GUARDED_BY(mu_) = 0;

  bool shutting_down_ GUARDED_BY(mu_) = false;
  /// Count of CompactAll callers currently draining; while nonzero the
  /// scheduler compacts below the usual thresholds.
  int compact_all_ GUARDED_BY(mu_) = 0;

  /// Bounded ring of sampler snapshots (newest at the back), capped at
  /// options_.stats_history_size. Empty when the sampler is off.
  std::deque<Sample> stats_history_ GUARDED_BY(mu_);
  /// Wakes the sampler thread early on shutdown (waits on mu_).
  CondVar sampler_cv_;

  std::vector<std::thread> bg_threads_;
  /// Running only when options_.stats_sample_interval_ms > 0.
  std::thread sampler_thread_;
};

}  // namespace unikv

#endif  // UNIKV_CORE_UNIKV_DB_H_
