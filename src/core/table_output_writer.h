#ifndef UNIKV_CORE_TABLE_OUTPUT_WRITER_H_
#define UNIKV_CORE_TABLE_OUTPUT_WRITER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/unikv_db.h"
#include "core/version.h"
#include "table/table_builder.h"
#include "util/env.h"
#include "vlog/value_log.h"

namespace unikv {

/// Writes every table a background job produces (DESIGN.md §5), in the
/// layout of the store it writes for:
///  - kUnsorted (flush, scan-merge): table_options and exactly one table
///    per writer; anchor views rely on that layout's restart interval. A
///    flush's table may span several partitions, each referencing its
///    share (DESIGN.md §2).
///    The writer hashes each distinct user key as it is added and writes
///    the list as the table's key-hash block (DESIGN.md §2).
///  - kSorted (a terminal rewrite job: merge, GC): the sorted layout, a
///    table rotated once it reaches `sorted_table_size` on disk or
///    max(sorted_table_size, partition_size_limit / 8) governed logical
///    bytes, so a partition that is large in separated values still
///    yields several tables (split points). The writer also owns the
///    job's one value log, opened on the first separated value.
///
/// Every file number the writer hands out (its tables and its value log)
/// stays in the DB's pending outputs, safe from the obsolete-file sweep,
/// until the writer is destroyed; destroy it only after the job's edit
/// has been applied or abandoned, and never while holding the DB mutex.
class UniKVDB::TableOutputWriter {
 public:
  enum class Store { kUnsorted, kSorted };

  /// `partition` is the partition the kSorted outputs are for; value
  /// pointers into the writer's value log carry it.
  TableOutputWriter(UniKVDB* db, Store store, uint32_t partition);
  ~TableOutputWriter();

  TableOutputWriter(const TableOutputWriter&) = delete;
  TableOutputWriter& operator=(const TableOutputWriter&) = delete;

  /// Appends one entry as it is, opening a table first if none is open; a
  /// sorted table is rotated after it when full. The entry's logical size
  /// is its user key plus its value, or the record its pointer names.
  Status Add(const Slice& internal_key, const Slice& value);

  /// kSorted: appends the entry (user_key, seq) holding `value`, by the
  /// one separation rule: with KV separation on, a value of at least
  /// value_separation_threshold bytes is appended to the value log and
  /// the entry holds its pointer; a smaller one stays inline.
  Status AddValue(const Slice& user_key, SequenceNumber seq,
                  const Slice& value);

  /// Finishes, syncs and closes the open table, if any, then syncs and
  /// closes the value log, if one was opened.
  Status Finish();

  /// The tables written so far; the last one is incomplete while open.
  const std::vector<FileMeta>& outputs() const { return outputs_; }
  /// The value log once Finish has closed it; number 0 if the writer
  /// separated no value.
  const VlogMeta& vlog() const { return vlog_; }
  /// Bytes of the finished tables and the closed value log.
  uint64_t bytes_written() const { return bytes_written_; }
  /// kUnsorted: HashIndex::KeyHash of each distinct user key added, in
  /// key order (the table's key-hash block once finished). Empty for
  /// kSorted.
  const std::vector<uint64_t>& key_hashes() const { return key_hashes_; }

 private:
  /// Allocates a file number and registers it as a pending output.
  uint64_t NewFileNumber();
  /// Finishes, syncs and closes the open table, if any.
  Status FinishTable();

  UniKVDB* const db_;
  const bool unsorted_;
  const uint32_t partition_;
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
  std::unique_ptr<ValueLogWriter> vlog_writer_;  // Open until Finish.
  VlogMeta vlog_;
  std::string key_, pointer_;  // AddValue's output entry.
};

}  // namespace unikv

#endif  // UNIKV_CORE_TABLE_OUTPUT_WRITER_H_
