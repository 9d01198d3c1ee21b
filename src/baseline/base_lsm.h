#ifndef UNIKV_BASELINE_BASE_LSM_H_
#define UNIKV_BASELINE_BASE_LSM_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/db.h"
#include "core/dbformat.h"
#include "core/table_cache.h"
#include "core/version.h"
#include "mem/memtable.h"
#include "util/sync.h"
#include "wal/log_writer.h"

namespace unikv {
namespace baseline {

/// A compact LSM-tree engine supporting the two classic compaction
/// disciplines the paper compares against. State is levels of sorted
/// runs; a run is an ordered list of disjoint tables:
///  * kLeveled: every level holds one run (level 0 holds one single-table
///    run per flush). A level exceeding its size target is merge-sorted
///    wholesale into the next — LevelDB/RocksDB-shaped read/write
///    amplification.
///  * kTiered: every level holds up to `tiered_runs_per_level` runs;
///    a full level is merged into a single new run appended to the next
///    level — PebblesDB/HyperLevelDB-shaped (low write amp, more runs to
///    search).
///
/// Compaction runs inline on the write path (deterministic, single
/// threaded), which keeps throughput accounting simple for benchmarks.
class BaseLsmDB : public DB {
 public:
  enum class CompactionStyle { kLeveled, kTiered };

  BaseLsmDB(const Options& options, const std::string& dbname,
            CompactionStyle style);
  ~BaseLsmDB() override;

  static Status Open(const Options& options, const std::string& name,
                     CompactionStyle style, DB** dbptr);

  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
  Iterator* NewIterator(const ReadOptions& options) override;
  Status CompactAll() override;
  Status FlushMemTable() override;
  bool GetProperty(const Slice& property, std::string* value) override;

 private:
  static constexpr int kNumLevels = 7;

  using Run = std::vector<FileMeta>;  // Key-ordered, disjoint tables.

  // Open-time recovery runs under mu_ too (Open holds it across Recover):
  // there is no concurrency yet, but one capability story for every field
  // keeps the analysis exact.
  Status Recover() REQUIRES(mu_);
  Status ReplayWal(uint64_t number, SequenceNumber* max_seq) REQUIRES(mu_);
  // Appends a full-state snapshot record.
  Status PersistManifest() REQUIRES(mu_);
  Status SwitchWal() REQUIRES(mu_);

  /// Flushes the memtable into a new single-table run at level 0 and runs
  /// any due compactions.
  Status FlushLocked() REQUIRES(mu_);
  bool NeedsCompaction(int* level) const REQUIRES(mu_);
  Status CompactLevel(int level) REQUIRES(mu_);

  /// Merges `runs` into a new run whose tables respect
  /// options_.sorted_table_size; newest runs must come first for correct
  /// shadowing. `to_last_level` enables tombstone dropping.
  Status MergeRuns(const std::vector<const Run*>& runs, bool to_last_level,
                   Run* result) REQUIRES(mu_);

  uint64_t LevelBytes(int level) const REQUIRES(mu_);
  uint64_t LevelTarget(int level) const;

  Status SearchRun(const Run& run, const LookupKey& lkey, std::string* value,
                   bool* found, Status* result) REQUIRES(mu_);

  void RemoveObsoleteFiles() REQUIRES(mu_);

  Options options_;
  const std::string dbname_;
  Env* env_;
  InternalKeyComparator icmp_;
  std::unique_ptr<Cache> block_cache_;
  std::unique_ptr<TableCache> table_cache_;
  const CompactionStyle style_;

  // One big lock: the baselines run compaction inline on the write path,
  // so every mutable field below is mu_-guarded.
  Mutex mu_;
  MemTable* mem_ GUARDED_BY(mu_) = nullptr;
  std::unique_ptr<WritableFile> wal_file_ GUARDED_BY(mu_);
  std::unique_ptr<log::Writer> wal_ GUARDED_BY(mu_);
  uint64_t wal_number_ GUARDED_BY(mu_) = 0;
  uint64_t next_file_number_ GUARDED_BY(mu_) = 2;
  SequenceNumber last_sequence_ GUARDED_BY(mu_) = 0;

  // levels_[i] = runs at level i, newest first.
  std::vector<std::vector<Run>> levels_ GUARDED_BY(mu_);
  /// Table files of the runs live iterators walk, with pin counts. An
  /// iterator opens its tables lazily, so RemoveObsoleteFiles keeps these.
  std::map<uint64_t, int> iterator_pins_ GUARDED_BY(mu_);

  std::unique_ptr<WritableFile> manifest_file_ GUARDED_BY(mu_);
  std::unique_ptr<log::Writer> manifest_log_ GUARDED_BY(mu_);

  uint64_t compactions_ GUARDED_BY(mu_) = 0;
  uint64_t compact_bytes_written_ GUARDED_BY(mu_) = 0;
  uint64_t compact_bytes_read_ GUARDED_BY(mu_) = 0;
};

}  // namespace baseline
}  // namespace unikv

#endif  // UNIKV_BASELINE_BASE_LSM_H_
