#ifndef UNIKV_CORE_DB_ITER_H_
#define UNIKV_CORE_DB_ITER_H_

#include "core/dbformat.h"
#include "core/iterator.h"

namespace unikv {

class ValueLogCache;

/// An iterator over user keys layered on an internal-key iterator: hides
/// sequence numbers and tombstones, exposes only the newest visible
/// version of each key, and transparently resolves SortedStore value
/// pointers through the value-log cache.
class DBIter : public Iterator {
 public:
  /// Takes ownership of `internal`. `vlog` may be null when KV separation
  /// is disabled.
  DBIter(const InternalKeyComparator& icmp, Iterator* internal,
         SequenceNumber sequence, ValueLogCache* vlog);
  ~DBIter() override;

  bool Valid() const override { return valid_; }
  void Seek(const Slice& target) override;
  void SeekToFirst() override;
  void SeekToLast() override;
  void Next() override;
  void Prev() override;

  Slice key() const override;
  /// The user value; pointer entries are fetched from the value log on
  /// first access and memoized for the current position.
  Slice value() const override;
  Status status() const override;

  // --- Raw access used by the optimized Scan() path ---

  /// Type of the current raw entry (kTypeValue or kTypeValuePointer).
  ValueType raw_type() const;
  /// The unresolved value bytes (inline value or encoded ValuePointer).
  Slice raw_value() const;

 private:
  enum Direction { kForward, kReverse };

  void FindNextUserEntry(bool skipping, std::string* skip);
  void FindPrevUserEntry();
  bool ParseKey(ParsedInternalKey* key);

  void SaveKey(const Slice& k, std::string* dst) {
    dst->assign(k.data(), k.size());
  }
  void ClearSavedValue() {
    if (saved_value_.capacity() > 1048576) {
      std::string empty;
      std::swap(empty, saved_value_);
    } else {
      saved_value_.clear();
    }
  }

  const InternalKeyComparator icmp_;
  Iterator* const iter_;
  const SequenceNumber sequence_;
  ValueLogCache* const vlog_;

  Status status_;
  std::string saved_key_;    // == current key when direction_ == kReverse
  std::string saved_value_;  // == current raw value when kReverse
  ValueType saved_type_ = kTypeValue;
  Direction direction_ = kForward;
  bool valid_ = false;

  mutable bool value_resolved_ = false;
  mutable std::string resolved_value_;
  mutable Status resolve_status_;
};

}  // namespace unikv

#endif  // UNIKV_CORE_DB_ITER_H_
