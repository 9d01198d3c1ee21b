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

class Env;

/// One table held open through the cache: the Table stays open, and
/// counts against the cache's `max_open_tables` budget, until the pin is
/// destroyed (an LRU entry in use is never evicted, so pins may hold the
/// cache above its budget). Move-only; must not outlive the TableCache.
class TablePin {
 public:
  TablePin() = default;
  ~TablePin() { Release(); }
  TablePin(TablePin&& other) noexcept { *this = std::move(other); }
  TablePin& operator=(TablePin&& other) noexcept;

  /// The pinned table; null for an empty pin.
  const Table* table() const { return table_; }

 private:
  friend class TableCache;
  void Release();

  Cache* cache_ = nullptr;
  Cache::Handle* handle_ = nullptr;
  const Table* table_ = nullptr;
};

/// Caches open Table readers keyed by file number. Thread-safe.
class TableCache {
 public:
  /// `block_cache` may be null. Both must outlive the cache.
  TableCache(Env* env, std::string dbname, const TableOptions& table_options,
             Cache* block_cache, int max_open_tables = 500);
  ~TableCache();

  TableCache(const TableCache&) = delete;
  TableCache& operator=(const TableCache&) = delete;

  /// Returns an iterator over the named table. `fill_cache` false keeps
  /// blocks this iterator reads out of the block cache
  /// (ReadOptions::fill_cache).
  Iterator* NewIterator(uint64_t file_number, uint64_t file_size,
                        bool fill_cache = true);

  /// Seeks `internal_key` in the named table; see Table::Get for
  /// `fill_cache`.
  Status Get(uint64_t file_number, uint64_t file_size,
             const Slice& internal_key, bool* found, std::string* key_out,
             std::string* value_out, bool fill_cache = true);

  /// Opens (or finds) the named table and pins it in *pin, replacing
  /// whatever *pin held.
  Status Pin(uint64_t file_number, uint64_t file_size, TablePin* pin);

  /// Keeps the tables a point read touches in one partition pinned until
  /// destruction, so N lookups of the same table inside one MultiGet cost
  /// one cache Lookup/Release pair instead of N (per-key handle churn is
  /// pure shared-LRU contention). Single-caller; must not outlive the
  /// TableCache.
  class BatchPin {
   public:
    BatchPin() = default;

    BatchPin(const BatchPin&) = delete;
    BatchPin& operator=(const BatchPin&) = delete;

   private:
    friend class TableCache;
    using Entry = std::pair<uint64_t, TablePin>;  // (file_number, pin)
    /// Returns the pinned table of `file_number`, or null.
    const Table* Find(uint64_t file_number) const;
    void Add(uint64_t file_number, TablePin pin);

    /// A pin serves one partition's tables, so the list stays short; its
    /// first kInline entries live in the object, so a Get (one or a few
    /// tables) allocates nothing.
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
