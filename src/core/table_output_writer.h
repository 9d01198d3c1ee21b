#ifndef UNIKV_CORE_TABLE_OUTPUT_WRITER_H_
#define UNIKV_CORE_TABLE_OUTPUT_WRITER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/unikv_db.h"
#include "core/version.h"
#include "table/table_builder.h"
#include "util/env.h"

namespace unikv {

/// Writes every table a background job produces (DESIGN.md §5), in the
/// layout of the store it writes for:
///  - kUnsorted (flush, scan-merge): table_options and exactly one table
///    per writer; anchor views rely on that layout's restart interval.
///    The writer hashes each distinct user key as it is added and writes
///    the list as the table's key-hash block (DESIGN.md §2).
///  - kSorted (merge, GC): the sorted layout, a table rotated once it
///    reaches `sorted_table_size` on disk or max(sorted_table_size,
///    partition_size_limit / 8) governed logical bytes, so a partition
///    that is large in separated values still yields several tables
///    (split points).
///
/// Every file number the writer hands out (its tables, plus any value log
/// the job allocates through NewFileNumber) stays in
/// the DB's pending outputs, safe from the obsolete-file sweep, until the
/// writer is destroyed; destroy it only after the job's edit has been
/// applied or abandoned, and never while holding the DB mutex.
class UniKVDB::TableOutputWriter {
 public:
  enum class Store { kUnsorted, kSorted };

  TableOutputWriter(UniKVDB* db, Store store);
  ~TableOutputWriter();

  TableOutputWriter(const TableOutputWriter&) = delete;
  TableOutputWriter& operator=(const TableOutputWriter&) = delete;

  /// Allocates a file number and registers it as a pending output.
  uint64_t NewFileNumber();

  /// Appends one entry, opening a table first if none is open; a sorted
  /// table is rotated after it when full. `governed` is the entry's
  /// logical size: its user key plus its value or pointed-to record.
  Status Add(const Slice& internal_key, const Slice& value,
             uint64_t governed);

  /// Finishes, syncs and closes the open table, if any.
  Status Finish();

  /// The tables written so far; the last one is incomplete while open.
  const std::vector<FileMeta>& outputs() const { return outputs_; }
  /// Bytes of the finished tables.
  uint64_t bytes_written() const { return bytes_written_; }
  /// kUnsorted: HashIndex::KeyHash of each distinct user key added, in
  /// key order (the table's key-hash block once finished). Empty for
  /// kSorted.
  const std::vector<uint64_t>& key_hashes() const { return key_hashes_; }

 private:
  UniKVDB* const db_;
  const bool unsorted_;
  const TableOptions table_options_;
  // Rotation thresholds; never reached for the UnsortedStore.
  const uint64_t rotation_size_;
  const uint64_t rotation_logical_;
  std::vector<uint64_t> numbers_;  // Every pending output handed out.
  std::vector<FileMeta> outputs_;
  std::unique_ptr<WritableFile> file_;
  std::unique_ptr<TableBuilder> builder_;
  uint64_t bytes_written_ = 0;
  std::vector<uint64_t> key_hashes_;
};

}  // namespace unikv

#endif  // UNIKV_CORE_TABLE_OUTPUT_WRITER_H_
