#ifndef UNIKV_INDEX_HASH_INDEX_H_
#define UNIKV_INDEX_HASH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/slice.h"

namespace unikv {

/// The UniKV lightweight two-level hash index over the UnsortedStore.
///
/// Placement combines cuckoo-style multi-bucket candidates with chained
/// overflow (paper §Hash indexing):
///  * Every key is hashed once (KeyHash); the index derives everything
///    from that 64-bit value, so a table can store it and recovery can
///    rebuild the index without reading any key (DESIGN.md §2).
///  * `num_hashes` bucket functions h_1..h_n are derived by double
///    hashing, h_i = (lo + (i-1)·hi) mod N over the hash's two 32-bit
///    halves; insertion fills the first empty inline slot probing
///    h_1 .. h_n.
///  * If all candidates are occupied, an overflow entry is prepended to
///    the chain of bucket h_n(key) (newest first).
///  * Every entry is 8 bytes: <keyTag(2B), tableId(2B), next(4B)>, where
///    keyTag is 16 bits of a remix of the key hash, used to filter
///    entries during lookup, and tableId is the position of the
///    UnsortedStore table holding the key in its partition's table list
///    (oldest first, PartitionState::unsorted).
///
/// Lookup scans buckets h_n .. h_1, each bucket's overflow chain (newest
/// first) before its inline slot, returning candidate positions.
/// keyTag collisions make candidates a superset; the caller probes them
/// newest (largest) first and disambiguates by reading the actual key
/// from the table.
///
/// Entries are never removed: merges and scan-merges, which move tables
/// to new positions, install a new index built over the tables they
/// leave; a split starts both children from a Clone of the parent's.
/// Thread safety: single writer;
/// concurrent readers must be excluded externally (the DB holds its mutex
/// around index access — operations are in-memory and cheap).
class HashIndex {
 public:
  /// Sizes the bucket array for `expected_entries` at ~80 % inline
  /// utilization, per the paper's memory analysis.
  explicit HashIndex(size_t expected_entries, int num_hashes = 2);

  HashIndex(const HashIndex&) = delete;
  HashIndex& operator=(const HashIndex&) = delete;

  /// The one hash of a user key that Insert and Lookup take. Unsorted
  /// tables store it per key (their key-hash block), so its value is part
  /// of the on-disk format.
  static uint64_t KeyHash(const Slice& user_key);

  /// Positions an entry can name: every one below the empty-slot marker.
  static constexpr size_t kMaxPositions = 0xFFFF;

  /// An identical copy: same entries in the same slots, so it answers
  /// every Lookup as this index does.
  std::unique_ptr<HashIndex> Clone() const;

  /// Records that the key hashing to `key_hash` has a version in the
  /// table at `position` (< kMaxPositions).
  void Insert(uint64_t key_hash, size_t position);

  /// Appends the positions of the tables that may hold the key hashing
  /// to `key_hash`.
  void Lookup(uint64_t key_hash, std::vector<uint16_t>* candidates) const;

  uint64_t NumEntries() const { return num_entries_; }
  size_t NumBuckets() const { return buckets_.size(); }
  /// Bytes consumed by buckets plus overflow entries.
  size_t MemoryUsage() const;
  /// Fraction of inline bucket slots occupied.
  double InlineUtilization() const;
  uint64_t NumOverflowEntries() const { return overflow_.size(); }

 private:
  static constexpr uint32_t kNoOverflow = 0xFFFFFFFFu;
  static constexpr uint16_t kEmpty = kMaxPositions;

  struct Bucket {
    uint16_t key_tag = 0;
    uint16_t position = kEmpty;  // kEmpty means inline slot empty.
    uint32_t overflow_head = kNoOverflow;
  };

  struct OverflowEntry {
    uint16_t key_tag = 0;
    uint16_t position = 0;
    uint32_t next = kNoOverflow;
  };

  size_t BucketFor(uint64_t key_hash, int hash_idx) const;
  static uint16_t KeyTag(uint64_t key_hash);

  int num_hashes_;
  uint64_t num_entries_ = 0;
  std::vector<Bucket> buckets_;
  std::vector<OverflowEntry> overflow_;
};

}  // namespace unikv

#endif  // UNIKV_INDEX_HASH_INDEX_H_
