#ifndef UNIKV_CORE_TABLE_CACHE_H_
#define UNIKV_CORE_TABLE_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/iterator.h"
#include "core/options.h"
#include "table/table.h"
#include "util/status.h"

namespace unikv {

class Cache;
class Env;

/// Caches open Table readers keyed by file number. Thread-safe.
class TableCache {
 public:
  /// `block_cache` may be null. Both must outlive the cache.
  TableCache(Env* env, std::string dbname, const TableOptions& table_options,
             Cache* block_cache, int max_open_tables = 500);
  ~TableCache();

  TableCache(const TableCache&) = delete;
  TableCache& operator=(const TableCache&) = delete;

  /// Returns an iterator over the named table. If `tableptr` is non-null,
  /// also stores the Table* backing the iterator (valid while the iterator
  /// lives). `fill_cache` false keeps blocks this iterator reads out of
  /// the block cache (ReadOptions::fill_cache).
  Iterator* NewIterator(uint64_t file_number, uint64_t file_size,
                        const Table** tableptr = nullptr,
                        bool fill_cache = true);

  /// Seeks `internal_key` in the named table; see Table::Get for
  /// `fill_cache`.
  Status Get(uint64_t file_number, uint64_t file_size,
             const Slice& internal_key, bool* found, std::string* key_out,
             std::string* value_out, bool fill_cache = true);

  /// Keeps the LRU handles of the tables a point read touches in one
  /// partition pinned until destruction, so N lookups of the same table
  /// inside one MultiGet cost one cache Lookup/Release pair instead of N
  /// (per-key handle churn is pure shared-LRU contention). Single-caller;
  /// must not outlive the TableCache.
  class BatchPin {
   public:
    explicit BatchPin(TableCache* cache) : cache_(cache) {}
    ~BatchPin();

    BatchPin(const BatchPin&) = delete;
    BatchPin& operator=(const BatchPin&) = delete;

   private:
    friend class TableCache;
    using Entry = std::pair<uint64_t, void*>;  // (file_number, handle)
    /// Returns the pinned handle of `file_number`, or null.
    void* Find(uint64_t file_number) const;
    void Add(uint64_t file_number, void* handle);

    TableCache* const cache_;
    /// Pinned handles, released in ~BatchPin. A pin serves one partition's
    /// tables, so the list stays short; its first kInline entries live in
    /// the object, so a Get (one or a few tables) allocates nothing.
    static constexpr size_t kInline = 4;
    Entry inline_[kInline];
    size_t num_inline_ = 0;
    std::vector<Entry> overflow_;
  };

  /// Seeks `internal_key` in the named table through `pin`: the table
  /// handle is resolved via the pin's list first and stays pinned for the
  /// pin's lifetime. `probe` (optional) additionally carries the last
  /// resolved data block between calls; it must be released before `pin`
  /// is destroyed. See Table::Get for `fill_cache`.
  Status GetPinned(BatchPin* pin, uint64_t file_number, uint64_t file_size,
                   const Slice& internal_key, bool fill_cache, bool* found,
                   std::string* key_out, std::string* value_out,
                   Table::Probe* probe = nullptr);

  /// Reads the named table's key-hash block; see Table::ReadKeyHashes.
  Status ReadKeyHashes(uint64_t file_number, uint64_t file_size,
                       std::vector<uint64_t>* hashes);

  /// Bloom pre-check for a user key (always true if no filter).
  bool KeyMayMatch(uint64_t file_number, uint64_t file_size,
                   const Slice& user_key);

  /// Per-table access count (Fig. 2 instrumentation); 0 if not open.
  uint64_t AccessCount(uint64_t file_number, uint64_t file_size);

  /// Drops the cached reader for a deleted file.
  void Evict(uint64_t file_number);

 private:
  Status FindTable(uint64_t file_number, uint64_t file_size,
                   void** handle_out);

  Env* const env_;
  const std::string dbname_;
  const TableOptions table_options_;
  Cache* const block_cache_;
  std::unique_ptr<Cache> cache_;
};

}  // namespace unikv

#endif  // UNIKV_CORE_TABLE_CACHE_H_
