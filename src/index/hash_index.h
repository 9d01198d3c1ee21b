#ifndef UNIKV_INDEX_HASH_INDEX_H_
#define UNIKV_INDEX_HASH_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/slice.h"
#include "util/status.h"

namespace unikv {

/// The UniKV lightweight two-level hash index over the UnsortedStore.
///
/// Placement combines cuckoo-style multi-bucket candidates with chained
/// overflow (paper §Hash indexing):
///  * `num_hashes` hash functions h_1..h_n give each key n candidate
///    buckets; insertion fills the first empty inline slot probing
///    h_1 .. h_n.
///  * If all candidates are occupied, an overflow entry is prepended to
///    the chain of bucket h_n(key) % N (newest first).
///  * Every entry is 8 bytes: <keyTag(2B), tableId(2B), next(4B)>, where
///    keyTag is the top 16 bits of an independent hash h_{n+1}(key) used
///    to filter entries during lookup, and tableId identifies the
///    UnsortedStore table holding the key.
///
/// Lookup scans buckets h_n .. h_1, each bucket's overflow chain (newest
/// first) before its inline slot, returning candidate table ids in
/// newest-to-oldest order. keyTag collisions make candidates a superset;
/// the caller disambiguates by reading the actual key from the table.
///
/// Entries are never removed individually: the whole index is Clear()ed
/// when the UnsortedStore is merged into the SortedStore. Thread safety:
/// single writer; concurrent readers must be excluded externally (the DB
/// holds its mutex around index access — operations are in-memory and
/// cheap).
class HashIndex {
 public:
  /// Sizes the bucket array for `expected_entries` at ~80 % inline
  /// utilization, per the paper's memory analysis.
  explicit HashIndex(size_t expected_entries, int num_hashes = 2);

  HashIndex(const HashIndex&) = delete;
  HashIndex& operator=(const HashIndex&) = delete;

  /// Records that `user_key`'s newest version lives in table `table_id`.
  void Insert(const Slice& user_key, uint16_t table_id);

  /// Appends candidate table ids (newest first) that may hold `user_key`.
  void Lookup(const Slice& user_key, std::vector<uint16_t>* candidates) const;

  /// Drops all entries (after an UnsortedStore -> SortedStore merge).
  void Clear();

  uint64_t NumEntries() const { return num_entries_; }
  size_t NumBuckets() const { return buckets_.size(); }
  /// Bytes consumed by buckets plus overflow entries.
  size_t MemoryUsage() const;
  /// Fraction of inline bucket slots occupied.
  double InlineUtilization() const;
  uint64_t NumOverflowEntries() const { return overflow_.size(); }

  // --- Checkpointing (crash consistency, paper §Crash Consistency) ---

  /// A copy of the whole index, so a caller holding the lock that guards
  /// this one can encode the copy after releasing it.
  std::unique_ptr<HashIndex> Clone() const;

  /// Serializes the whole index (buckets + overflow pool) to *dst,
  /// followed by a crc32c of the image.
  void EncodeTo(std::string* dst) const;
  /// Restores the index from an EncodeTo() image. Corruption, with the
  /// index left as it was, when the checksum does not match or the image
  /// would make Insert or Lookup index out of range or loop.
  Status DecodeFrom(Slice input);

 private:
  static constexpr uint32_t kNoOverflow = 0xFFFFFFFFu;
  static constexpr uint16_t kEmptyTable = 0xFFFFu;

  struct Bucket {
    uint16_t key_tag = 0;
    uint16_t table_id = kEmptyTable;  // kEmptyTable means inline slot empty.
    uint32_t overflow_head = kNoOverflow;
  };

  struct OverflowEntry {
    uint16_t key_tag = 0;
    uint16_t table_id = 0;
    uint32_t next = kNoOverflow;
  };

  size_t BucketFor(const Slice& key, int hash_idx) const;
  uint16_t KeyTag(const Slice& key) const;

  int num_hashes_;
  uint64_t num_entries_ = 0;
  std::vector<Bucket> buckets_;
  std::vector<OverflowEntry> overflow_;
};

}  // namespace unikv

#endif  // UNIKV_INDEX_HASH_INDEX_H_
