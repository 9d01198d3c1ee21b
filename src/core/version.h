#ifndef UNIKV_CORE_VERSION_H_
#define UNIKV_CORE_VERSION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/dbformat.h"
#include "core/options.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/sync.h"

namespace unikv {

class Env;
namespace log {
class Writer;
}

/// Metadata for one SSTable (UnsortedStore or SortedStore). An
/// UnsortedStore entry is a *reference* (DESIGN.md §2): a table file, of
/// which several partitions may each own the keys inside their own range.
struct FileMeta {
  /// No upper end: a reference's hash slice runs to the table's last hash.
  static constexpr uint32_t kAllHashes = 0xFFFFFFFFu;

  uint64_t number = 0;
  /// Physical file size, used to open the table.
  uint64_t size = 0;
  /// Logical bytes the table is responsible for: keys plus the values
  /// they reference (pointed-to log records included). With partial KV
  /// separation the .sst file itself holds only keys and pointers, so
  /// `size` wildly understates the data a SortedStore table governs;
  /// split decisions and table rotation use `logical` instead.
  uint64_t logical = 0;
  /// Age key of an unsorted table (meaningless for sorted files): larger
  /// is newer. A flush takes the partition's newest key + 1 (0 on an
  /// empty UnsortedStore); a scan-merge output keeps its run's largest.
  uint32_t table_id = 0;
  /// Bounds of the user keys the entry owns (inclusive). A flush records
  /// its partition's share exactly; a split may leave them loose, never
  /// narrower than the share. Readers clamp to the partition's range.
  std::string smallest;
  std::string largest;
  /// Unsorted references only: the bytes of the partition's share, which
  /// every size rule counts (the whole file for a table one partition
  /// owns), and [hash_begin, hash_end), the slice of the table's key-hash
  /// block (one hash per distinct key, key order) the partition's hash
  /// index holds for it.
  uint64_t share = 0;
  uint32_t hash_begin = 0;
  uint32_t hash_end = kAllHashes;
};

/// Metadata for one value log file.
struct VlogMeta {
  uint64_t number = 0;
  uint64_t size = 0;
};

/// Immutable snapshot of one partition's on-disk structure.
struct PartitionState {
  uint32_t id = 0;
  /// Inclusive lower boundary user key; empty for the first partition.
  std::string lower_bound;
  /// Exclusive upper boundary user key (the next partition's lower
  /// bound); empty for the last partition. Derived, never logged.
  std::string upper_bound;
  /// UnsortedStore references, oldest first: VersionSet keeps them
  /// sorted by table_id. The hash index names a reference by its position
  /// here. A table file may be referenced by several partitions.
  std::vector<FileMeta> unsorted;
  /// SortedStore tables: one sorted run, disjoint, key order.
  std::vector<FileMeta> sorted;
  /// Value logs referenced by this partition's pointers (a log may be
  /// shared with a sibling partition after a split, until lazy GC).
  std::vector<VlogMeta> vlogs;

  /// The table_id a flush into this partition takes: one above the
  /// newest table's, or 0 when the UnsortedStore is empty.
  uint32_t NextTableId() const {
    return unsorted.empty() ? 0 : unsorted.back().table_id + 1;
  }

  /// Whether `user_key` lies in [lower_bound, upper_bound).
  bool Contains(const Slice& user_key) const {
    return user_key.compare(Slice(lower_bound)) >= 0 &&
           (upper_bound.empty() || user_key.compare(Slice(upper_bound)) < 0);
  }

  /// The shares of the partition's unsorted references, not their files.
  uint64_t UnsortedBytes() const {
    uint64_t n = 0;
    for (const auto& f : unsorted) n += f.share;
    return n;
  }
  uint64_t SortedBytes() const {
    uint64_t n = 0;
    for (const auto& f : sorted) n += f.size;
    return n;
  }
  /// Logical data (keys + referenced values) governed by this partition:
  /// the quantity dynamic range partitioning bounds. Counts each value
  /// once, so vlogs shared with a sibling partition after a split are
  /// not double counted.
  uint64_t LogicalBytes() const {
    uint64_t n = UnsortedBytes();
    for (const auto& f : sorted) n += f.logical;
    return n;
  }
  uint64_t VlogBytes() const {
    uint64_t n = 0;
    for (const auto& f : vlogs) n += f.size;
    return n;
  }
  uint64_t TotalBytes() const {
    return UnsortedBytes() + SortedBytes() + VlogBytes();
  }
};

/// Immutable snapshot of the whole DB structure; pinned by readers via
/// shared_ptr while the DB installs newer versions.
struct VersionData {
  /// Partitions ordered by lower_bound ascending (first has "").
  std::vector<std::shared_ptr<const PartitionState>> partitions;

  /// Index of the partition responsible for `user_key`.
  int FindPartition(const Slice& user_key) const;

  /// The partition with id `pid`, or nullptr if no such partition exists
  /// in this version. Background jobs use this to re-validate a
  /// PartitionState snapshot against the current version before
  /// installing their edit.
  std::shared_ptr<const PartitionState> FindById(uint32_t pid) const;

  /// Every file number any partition references: a table shared by
  /// several partitions stays live until the last reference goes.
  void AddLiveFiles(std::set<uint64_t>* live) const;
};

using VersionPtr = std::shared_ptr<const VersionData>;

/// A tagged, serializable delta applied to the version state and logged
/// to the MANIFEST. A single edit is applied atomically on recovery.
class VersionEdit {
 public:
  void Clear() { *this = VersionEdit(); }

  void SetLogNumber(uint64_t n) {
    has_log_number_ = true;
    log_number_ = n;
  }
  void SetNextFileNumber(uint64_t n) {
    has_next_file_number_ = true;
    next_file_number_ = n;
  }
  void SetLastSequence(SequenceNumber s) {
    has_last_sequence_ = true;
    last_sequence_ = s;
  }
  void AddPartition(uint32_t pid, const std::string& lower_bound) {
    new_partitions_.emplace_back(pid, lower_bound);
  }
  void AddUnsortedFile(uint32_t pid, const FileMeta& f) {
    new_unsorted_.emplace_back(pid, f);
  }
  void RemoveUnsortedFile(uint32_t pid, uint64_t number) {
    removed_unsorted_.emplace_back(pid, number);
  }
  void AddSortedFile(uint32_t pid, const FileMeta& f) {
    new_sorted_.emplace_back(pid, f);
  }
  void RemoveSortedFile(uint32_t pid, uint64_t number) {
    removed_sorted_.emplace_back(pid, number);
  }
  void AddValueLog(uint32_t pid, const VlogMeta& v) {
    new_vlogs_.emplace_back(pid, v);
  }
  void RemoveValueLog(uint32_t pid, uint64_t number) {
    removed_vlogs_.emplace_back(pid, number);
  }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(const Slice& src);

 private:
  friend class VersionSet;

  bool has_log_number_ = false;
  uint64_t log_number_ = 0;
  bool has_next_file_number_ = false;
  uint64_t next_file_number_ = 0;
  bool has_last_sequence_ = false;
  SequenceNumber last_sequence_ = 0;

  std::vector<std::pair<uint32_t, std::string>> new_partitions_;
  std::vector<std::pair<uint32_t, FileMeta>> new_unsorted_;
  std::vector<std::pair<uint32_t, uint64_t>> removed_unsorted_;
  std::vector<std::pair<uint32_t, FileMeta>> new_sorted_;
  std::vector<std::pair<uint32_t, uint64_t>> removed_sorted_;
  std::vector<std::pair<uint32_t, VlogMeta>> new_vlogs_;
  std::vector<std::pair<uint32_t, uint64_t>> removed_vlogs_;
};

/// Owns the MANIFEST and the chain of immutable versions. Mutating
/// methods (Recover, LogAndApply, SetLastSequence, NewPartitionId,
/// AddLiveFiles) must be called with the owning DB's mutex held.
/// current(), NewFileNumber(), LogNumber() and LastSequence() are safe
/// without it: readers pin a version snapshot via the shared_ptr returned
/// by current() (guarded by a small internal mutex against concurrent
/// LogAndApply installs) and can then do I/O against that immutable
/// snapshot without holding any DB lock.
class VersionSet {
 public:
  VersionSet(Env* env, std::string dbname);
  ~VersionSet();

  VersionSet(const VersionSet&) = delete;
  VersionSet& operator=(const VersionSet&) = delete;

  /// Recovers state from CURRENT/MANIFEST. Creates a fresh DB (with one
  /// empty partition) if none exists and `create_if_missing`.
  Status Recover(bool create_if_missing, bool error_if_exists);

  /// Applies *edit to the current state, logs it to the MANIFEST
  /// (synced), and installs the result as the new current version.
  Status LogAndApply(VersionEdit* edit);

  VersionPtr current() const EXCLUDES(current_mu_) {
    MutexLock l(&current_mu_);
    return current_;
  }

  uint64_t NewFileNumber() {
    return next_file_number_.fetch_add(1, std::memory_order_relaxed);
  }
  uint32_t NewPartitionId() { return next_partition_id_++; }
  uint64_t LogNumber() const { return log_number_; }
  SequenceNumber LastSequence() const { return last_sequence_; }
  void SetLastSequence(SequenceNumber s) { last_sequence_ = s; }
  uint64_t ManifestFileNumber() const { return manifest_file_number_; }

  /// Collects every file number referenced by the current version and by
  /// versions still pinned by live iterators.
  void AddLiveFiles(std::set<uint64_t>* live);

 private:
  Status Apply(const VersionEdit& edit, VersionPtr base, VersionPtr* result);
  Status WriteSnapshot(log::Writer* log);
  Status CreateNew();

  Env* const env_;
  const std::string dbname_;

  std::atomic<uint64_t> next_file_number_{2};
  uint32_t next_partition_id_ = 1;
  uint64_t manifest_file_number_ = 0;
  uint64_t log_number_ = 0;
  SequenceNumber last_sequence_ = 0;

  /// Guards current_ against a racing LogAndApply install; held only for
  /// the shared_ptr load/store, never across I/O.
  mutable Mutex current_mu_;
  VersionPtr current_ GUARDED_BY(current_mu_);
  std::vector<std::weak_ptr<const VersionData>> pinned_;

  std::unique_ptr<class WritableFile> manifest_file_;
  std::unique_ptr<log::Writer> manifest_log_;
};

}  // namespace unikv

#endif  // UNIKV_CORE_VERSION_H_
