#ifndef UNIKV_TABLE_TABLE_BUILDER_H_
#define UNIKV_TABLE_TABLE_BUILDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/dbformat.h"
#include "util/slice.h"
#include "util/status.h"

namespace unikv {

class WritableFile;

/// Knobs shared by the table writer and reader.
struct TableOptions {
  /// Approximate uncompressed size of each data block.
  size_t block_size = 4096;
  /// Keys between restart points within a block.
  int block_restart_interval = 16;
  /// Bloom filter bits per key; 0 disables the filter block entirely
  /// (UniKV removes bloom filters; the LSM baselines keep them).
  int bloom_bits_per_key = 0;
};

/// Builds an SSTable from internal keys added in sorted order.
///
/// File layout:
///   [data block]*
///   [filter block]   (optional whole-table bloom over user keys)
///   [key-hash block] (optional fixed64 per distinct user key, key order;
///                     UnsortedStore tables carry it, DESIGN.md §2)
///   [index block]    (last key of each data block -> BlockHandle)
///   [footer]
class TableBuilder {
 public:
  /// Writes to *file (caller retains ownership; must outlive the builder).
  TableBuilder(const TableOptions& options, WritableFile* file);
  ~TableBuilder();

  TableBuilder(const TableBuilder&) = delete;
  TableBuilder& operator=(const TableBuilder&) = delete;

  /// Adds an (internal key, value) pair. REQUIRES: key > all previous keys.
  void Add(const Slice& key, const Slice& value);

  /// Flushes any buffered key/value pairs to file (advanced; Add calls it
  /// automatically at block boundaries).
  void Flush();

  Status status() const { return status_; }

  /// Finishes building the table; stops using the file afterwards.
  /// `key_hashes`, when given, is written as the key-hash block.
  Status Finish(const std::vector<uint64_t>* key_hashes = nullptr);

  /// Abandons the buffered content (call instead of Finish on error paths).
  void Abandon();

  uint64_t NumEntries() const { return num_entries_; }

  /// Size of the file generated so far; after Finish(), the final size.
  uint64_t FileSize() const { return offset_; }

 private:
  void WriteBlock(class BlockBuilder* block, class BlockHandle* handle);
  /// Appends `contents` and its type/crc trailer at offset_.
  void WriteRawBlock(const Slice& contents, class BlockHandle* handle);
  bool ok() const { return status_.ok(); }

  struct Rep;
  Rep* rep_;
  Status status_;
  uint64_t num_entries_ = 0;
  uint64_t offset_ = 0;
};

}  // namespace unikv

#endif  // UNIKV_TABLE_TABLE_BUILDER_H_
