#ifndef UNIKV_CORE_DB_H_
#define UNIKV_CORE_DB_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/iterator.h"
#include "core/options.h"
#include "mem/write_batch.h"
#include "util/slice.h"
#include "util/status.h"

namespace unikv {

/// The key-value store interface implemented by UniKV and by the baseline
/// engines (LeveledDB, TieredDB, HashLogDB). All methods are thread-safe
/// unless noted.
class DB {
 public:
  DB() = default;
  virtual ~DB();

  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;

  /// Opens the UniKV store rooted at `name`. On success stores a heap-
  /// allocated DB in *dbptr.
  static Status Open(const Options& options, const std::string& name,
                     DB** dbptr);

  virtual Status Put(const WriteOptions& options, const Slice& key,
                     const Slice& value) = 0;
  virtual Status Delete(const WriteOptions& options, const Slice& key) = 0;
  virtual Status Write(const WriteOptions& options, WriteBatch* updates) = 0;
  virtual Status Get(const ReadOptions& options, const Slice& key,
                     std::string* value) = 0;

  /// Batched point lookup: fetches `keys[i]` into `(*values)[i]` with its
  /// outcome in `(*statuses)[i]` (NotFound for absent keys). Both output
  /// vectors are resized to keys.size(); a value slot whose status is not
  /// OK is left in an unspecified state (reusing the vectors across
  /// batches keeps each slot's allocation). Returns OK when every per-key
  /// status is OK or NotFound, else the first real error. The default
  /// loops Get (per-key snapshots); UniKV overrides it with a real
  /// batched path — one snapshot + version pin per batch (a concurrent
  /// write batch is visible to all of the MultiGet or none of it), bulk
  /// hash-index probes, table-handle reuse, coalesced value-log I/O —
  /// see DESIGN.md §11.
  virtual Status MultiGet(const ReadOptions& options,
                          const std::vector<Slice>& keys,
                          std::vector<std::string>* values,
                          std::vector<Status>* statuses);

  /// Heap-allocated iterator over user keys (newest version, tombstones
  /// hidden). Delete it before the DB.
  virtual Iterator* NewIterator(const ReadOptions& options) = 0;

  /// Range scan convenience: up to `count` pairs with key >= start.
  /// `*out` is resized to the rows returned, and each row is written in
  /// place, so reusing one vector across scans keeps its rows' string
  /// allocations (as MultiGet's slots do). On error `*out` is empty.
  /// UniKV's implementation collects the rows first and then fetches
  /// their separated values in one batched step, as MultiGet does; the
  /// default wraps NewIterator.
  virtual Status Scan(const ReadOptions& options, const Slice& start,
                      int count,
                      std::vector<std::pair<std::string, std::string>>* out);

  /// Forces the memtable out and waits for all background work (merges,
  /// GC, splits, compactions) to settle. Benchmarks call this to measure
  /// total I/O fairly.
  virtual Status CompactAll() = 0;

  /// Flushes the memtable to level-0 / UnsortedStore and waits for it.
  virtual Status FlushMemTable() = 0;

  /// The sticky background error, if any. Once a WAL write, flush, merge,
  /// GC or split fails (e.g. a failed manifest sync), the engine stops
  /// accepting writes and every later write returns this error; reads
  /// keep working. Engines without background work return OK.
  virtual Status GetBackgroundError() { return Status::OK(); }

  /// DB introspection; returns false for unknown properties. Common:
  ///   "db.num-partitions", "db.hash-index-bytes", "db.hash-index-entries",
  ///   "db.stats", "db.sstables", "db.table-accesses", "db.num-files"
  virtual bool GetProperty(const Slice& property, std::string* value) = 0;
};

/// Destroys the contents of the DB directory (all files). Must not be
/// called while the DB is open.
Status DestroyDB(const Options& options, const std::string& name);

}  // namespace unikv

#endif  // UNIKV_CORE_DB_H_
