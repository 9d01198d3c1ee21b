#ifndef UNIKV_VLOG_VALUE_LOG_H_
#define UNIKV_VLOG_VALUE_LOG_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "util/env.h"
#include "util/metrics.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/sync.h"

namespace unikv {

/// Location of a value stored in an append-only value log after partial KV
/// separation (paper: <partition, logNumber, offset, length>).
struct ValuePointer {
  uint32_t partition = 0;
  uint64_t log_number = 0;
  uint64_t offset = 0;
  uint32_t size = 0;  // Full record length, so one pread fetches it.

  void EncodeTo(std::string* dst) const;
  bool DecodeFrom(Slice* input);

  bool operator==(const ValuePointer& o) const {
    return partition == o.partition && log_number == o.log_number &&
           offset == o.offset && size == o.size;
  }
};

/// Appends value records to a log file. Record format:
///   crc32c(4B, masked, over the rest) key_len(varint) val_len(varint)
///   key value
/// The key is stored alongside the value (as in WiscKey) so GC and
/// recovery can validate records independently of the SortedStore.
class ValueLogWriter {
 public:
  /// Takes ownership of `file`; `log_number` is recorded in the pointers.
  ValueLogWriter(std::unique_ptr<WritableFile> file, uint32_t partition,
                 uint64_t log_number);

  ValueLogWriter(const ValueLogWriter&) = delete;
  ValueLogWriter& operator=(const ValueLogWriter&) = delete;

  /// Appends a record; on success fills *ptr with its location.
  Status Add(const Slice& key, const Slice& value, ValuePointer* ptr);

  Status Flush() { return file_->Flush(); }
  Status Sync() { return file_->Sync(); }
  Status Close() { return file_->Close(); }

  uint64_t CurrentOffset() const { return offset_; }

 private:
  std::unique_ptr<WritableFile> file_;
  uint32_t partition_;
  uint64_t log_number_;
  uint64_t offset_ = 0;
  std::string scratch_;
};

/// Parses one value-log record out of `record` bytes (as read from a file
/// through a pointer found under user key `key`) and points *value at its
/// value. Verifies the checksum and that the record stores `key`: a
/// checksum-valid record of another key (a misdirected pointer, or records
/// moved within the file) is Corruption, never the other key's value.
Status DecodeValueRecord(const Slice& record, const Slice& key, Slice* value);

/// Grow-only buffer for span reads that are copied rather than mapped. It
/// allocates on the first copy, so a caller whose spans are all served
/// from the mapping never allocates; a long-lived owner (GC's fetcher)
/// reuses one buffer across calls.
class SpanScratch {
 public:
  /// A buffer of at least n bytes; earlier contents are not kept.
  char* Reserve(size_t n) {
    if (n > cap_) {
      cap_ = std::max(n, cap_ * 2);
      buf_.reset(new char[cap_]);
    }
    return buf_.get();
  }

 private:
  std::unique_ptr<char[]> buf_;
  size_t cap_ = 0;
};

/// Caches open read handles for value log files (one directory, keyed by
/// log number) and serves point fetches by ValuePointer. Thread-safe.
class ValueLogCache {
 public:
  ValueLogCache(Env* env, std::string dbname);

  /// Wires engine-wide read counters (owned by the DB's MetricsRegistry).
  /// The thread-local PerfContext of a background worker is never folded
  /// into the registry, so these are the only count of GC's fetches. Any
  /// of the four may be null (not counted).
  void SetCounters(Counter* reads, Counter* span_reads, Counter* read_bytes,
                   Counter* mmap_reads = nullptr) {
    reads_counter_ = reads;
    span_reads_counter_ = span_reads;
    read_bytes_counter_ = read_bytes;
    mmap_reads_counter_ = mmap_reads;
  }

  /// Point fetch: preads the record at `ptr` into a private buffer,
  /// verifies its checksum and that it stores user key `key`, and copies
  /// the value into *value. Never touches the log's mapping, so point
  /// reads do not grow the process's resident mapped pages.
  Status Get(const ValuePointer& ptr, const Slice& key, std::string* value);

  /// Pins the shared read handle of one log (opening the file if needed)
  /// so a batched caller can issue several span reads against it without
  /// re-taking the cache mutex per read. The handle stays valid even if
  /// the log is Evicted while pinned.
  Status PinLog(uint64_t log_number,
                std::shared_ptr<RandomAccessFile>* file);

  /// Reads the byte span [offset, offset+size) of a pinned log in one I/O
  /// and points *result at it: at the file's own mapping when `zero_copy`
  /// is set and the Env offers one, else at caller-owned `scratch`, grown
  /// only then. No cache-mutex acquisition.
  Status GetSpanPinned(RandomAccessFile* file, uint64_t offset, size_t size,
                       bool zero_copy, Slice* result, SpanScratch* scratch);

  /// Drops the cached handle for a deleted log file.
  void Evict(uint64_t log_number);

 private:
  Env* env_;
  std::string dbname_;
  Counter* reads_counter_ = nullptr;
  Counter* span_reads_counter_ = nullptr;
  Counter* mmap_reads_counter_ = nullptr;
  Counter* read_bytes_counter_ = nullptr;
  // mu_ guards the handle map. Held across the open syscall in PinLog
  // (first access to a log serializes openers); reads through a handle
  // never take it.
  Mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<RandomAccessFile>> files_
      GUARDED_BY(mu_);
};

/// Sequentially scans a value log file, invoking `fn(offset, record_size,
/// key, value)` for each valid record; stops at the first corrupt/torn
/// record (the tail after a crash).
Status ScanValueLog(
    Env* env, const std::string& fname,
    const std::function<void(uint64_t, uint32_t, const Slice&, const Slice&)>&
        fn);

}  // namespace unikv

#endif  // UNIKV_VLOG_VALUE_LOG_H_
