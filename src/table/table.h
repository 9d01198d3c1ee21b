#ifndef UNIKV_TABLE_TABLE_H_
#define UNIKV_TABLE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/iterator.h"
#include "table/cache.h"
#include "table/table_builder.h"
#include "util/status.h"

namespace unikv {

class Block;
class BlockHandle;
class RandomAccessFile;

/// An immutable, sorted map from internal keys to values backed by an
/// SSTable file. Safe for concurrent reads without external locking.
class Table {
 public:
  /// Opens the table stored in file[0..file_size). On success *table is
  /// set and owns `file`. `block_cache` (optional) caches data blocks
  /// across tables; it must outlive the table.
  static Status Open(const TableOptions& options,
                     std::unique_ptr<RandomAccessFile> file,
                     uint64_t file_size, Cache* block_cache, Table** table);

  ~Table();

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  /// Returns a new iterator over the table contents. `fill_cache` false
  /// keeps data blocks read by this iterator out of the block cache
  /// (bulk scans that should not evict the hot working set).
  Iterator* NewIterator(bool fill_cache = true) const;

  /// Returns an iterator over the index block: keys are the last internal
  /// key of each data block, values decode to BlockHandles (feed them to
  /// NewBlockIterator). Used by the anchor-view builder to walk data blocks
  /// with their handles in hand.
  Iterator* NewIndexIterator() const;

  /// Batch-local reuse state for a run of Get() calls with ascending keys
  /// (a point read probes each partition's keys in sorted order, so
  /// consecutive keys usually land in the same data block). Holds the last
  /// resolved block — pinned in the block cache or owned — plus reusable
  /// output buffers, so repeat hits skip the cache lookup and the per-call
  /// string allocations. Release() (or destruction) drops the pin; a Probe
  /// must not outlive the table handle (BatchPin) or block cache it
  /// borrows from.
  struct Probe {
    ~Probe() { Release(); }
    void Release();

    const Table* table = nullptr;
    uint64_t block_offset = ~0ull;
    Block* block = nullptr;
    Cache::Handle* cache_handle = nullptr;
    Cache* cache = nullptr;
    std::string key_scratch;    // Callers' reusable found-key buffer.
    std::string value_scratch;  // Callers' reusable found-value buffer.
  };

  /// Seeks to the first entry with internal key >= `internal_key`. If such
  /// an entry exists in this table, stores its key/value and sets *found.
  /// `probe` (optional) carries the last resolved data block between calls.
  /// `fill_cache` false keeps a data block read from disk out of the block
  /// cache (ReadOptions::fill_cache).
  Status Get(const Slice& internal_key, bool* found, std::string* key_out,
             std::string* value_out, Probe* probe = nullptr,
             bool fill_cache = true) const;

  /// Reads the key-hash block (one hash per distinct user key, key order;
  /// see TableBuilder::Finish) into *hashes. No data block is read.
  /// Corruption when the table has no such block or it fails its checksum.
  Status ReadKeyHashes(std::vector<uint64_t>* hashes) const;

  /// Bloom-filter check on a user key. Always true when the table was
  /// built without a filter.
  bool KeyMayMatch(const Slice& user_key) const;

  /// Number of Get/Seek probes served by this table (Fig. 2 motivation
  /// experiment instrumentation).
  uint64_t AccessCount() const {
    return access_count_.load(std::memory_order_relaxed);
  }
  void RecordAccess() const {
    access_count_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Decodes a BlockHandle from `index_value` and returns an iterator over
  /// that data block. `arg` is the Table*. (Used by the two-level iterator.)
  static Iterator* BlockReader(void* arg, const Slice& index_value);

  /// Returns an iterator over the data block `handle` names, resolved
  /// through the block cache (see FindBlock for `fill_cache`). A handle
  /// that names no block of this table fails its checksum: the iterator
  /// carries that Corruption.
  Iterator* NewBlockIterator(const BlockHandle& handle,
                             bool fill_cache = true) const;

 private:
  struct Rep;

  explicit Table(Rep* rep) : rep_(rep) {}

  /// Resolves a data block through the block cache (or a direct read).
  /// On success the caller must Release(*cache_handle) when it is non-null,
  /// else delete *block. `fill_cache` false skips inserting a freshly read
  /// block into the cache.
  Status FindBlock(const BlockHandle& handle, bool fill_cache, Block** block,
                   Cache::Handle** cache_handle) const;

  Rep* const rep_;
  mutable std::atomic<uint64_t> access_count_{0};
};

}  // namespace unikv

#endif  // UNIKV_TABLE_TABLE_H_
