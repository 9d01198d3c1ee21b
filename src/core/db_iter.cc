#include "core/db_iter.h"

#include "vlog/value_log.h"

namespace unikv {

DBIter::DBIter(const InternalKeyComparator& icmp, Iterator* internal,
               SequenceNumber sequence, ValueLogCache* vlog)
    : icmp_(icmp), iter_(internal), sequence_(sequence), vlog_(vlog) {}

DBIter::~DBIter() { delete iter_; }

bool DBIter::ParseKey(ParsedInternalKey* ikey) {
  if (!ParseInternalKey(iter_->key(), ikey)) {
    status_ = Status::Corruption("corrupted internal key in DBIter");
    return false;
  }
  return true;
}

Slice DBIter::key() const {
  assert(valid_);
  return (direction_ == kForward) ? ExtractUserKey(iter_->key())
                                  : Slice(saved_key_);
}

ValueType DBIter::raw_type() const {
  assert(valid_);
  if (direction_ == kForward) {
    return ExtractValueType(iter_->key());
  }
  return saved_type_;
}

Slice DBIter::raw_value() const {
  assert(valid_);
  return (direction_ == kForward) ? iter_->value() : Slice(saved_value_);
}

Slice DBIter::value() const {
  assert(valid_);
  if (raw_type() != kTypeValuePointer) {
    return raw_value();
  }
  if (!value_resolved_) {
    ValuePointer ptr;
    Slice encoded = raw_value();
    if (!ptr.DecodeFrom(&encoded)) {
      resolve_status_ = Status::Corruption("bad value pointer");
    } else if (vlog_ == nullptr) {
      resolve_status_ = Status::Corruption("value pointer without value log");
    } else {
      resolve_status_ = vlog_->Get(ptr, key(), &resolved_value_);
    }
    // A failed fetch must not surface the previous entry's value.
    if (!resolve_status_.ok()) resolved_value_.clear();
    value_resolved_ = true;
  }
  return Slice(resolved_value_);
}

Status DBIter::status() const {
  if (!status_.ok()) return status_;
  if (!resolve_status_.ok()) return resolve_status_;
  return iter_->status();
}

void DBIter::Next() {
  assert(valid_);
  value_resolved_ = false;

  if (direction_ == kReverse) {  // Switch directions?
    direction_ = kForward;
    // iter_ is pointing just before the entries for this->key(), so
    // advance into the range of entries and then use the normal skipping
    // code below.
    if (!iter_->Valid()) {
      iter_->SeekToFirst();
    } else {
      iter_->Next();
    }
    if (!iter_->Valid()) {
      valid_ = false;
      saved_key_.clear();
      return;
    }
    // saved_key_ already contains the key to skip past.
  } else {
    // Store current key in saved_key_ so we can skip its older versions.
    SaveKey(ExtractUserKey(iter_->key()), &saved_key_);
    iter_->Next();
    if (!iter_->Valid()) {
      valid_ = false;
      saved_key_.clear();
      return;
    }
  }

  FindNextUserEntry(true, &saved_key_);
}

void DBIter::FindNextUserEntry(bool skipping, std::string* skip) {
  // Loop until a visible, non-deleted user entry is found.
  assert(iter_->Valid());
  assert(direction_ == kForward);
  do {
    ParsedInternalKey ikey;
    if (ParseKey(&ikey) && ikey.sequence <= sequence_) {
      switch (ikey.type) {
        case kTypeDeletion:
          // Arrange to skip all upcoming entries for this key since they
          // are hidden by this deletion.
          SaveKey(ikey.user_key, skip);
          skipping = true;
          break;
        case kTypeValue:
        case kTypeValuePointer:
          if (skipping && ikey.user_key.compare(Slice(*skip)) <= 0) {
            // Entry hidden: an older version of a skipped key.
          } else {
            valid_ = true;
            saved_key_.clear();
            return;
          }
          break;
      }
    }
    iter_->Next();
  } while (iter_->Valid());
  saved_key_.clear();
  valid_ = false;
}

void DBIter::Prev() {
  assert(valid_);
  value_resolved_ = false;

  if (direction_ == kForward) {  // Switch directions?
    // iter_ is pointing at the current entry. Scan backwards until the
    // key changes so we can use the normal reverse scanning code.
    assert(iter_->Valid());
    SaveKey(ExtractUserKey(iter_->key()), &saved_key_);
    while (true) {
      iter_->Prev();
      if (!iter_->Valid()) {
        valid_ = false;
        saved_key_.clear();
        ClearSavedValue();
        return;
      }
      if (ExtractUserKey(iter_->key()).compare(Slice(saved_key_)) < 0) {
        break;
      }
    }
    direction_ = kReverse;
  }

  FindPrevUserEntry();
}

void DBIter::FindPrevUserEntry() {
  assert(direction_ == kReverse);

  ValueType value_type = kTypeDeletion;
  if (iter_->Valid()) {
    do {
      ParsedInternalKey ikey;
      if (ParseKey(&ikey) && ikey.sequence <= sequence_) {
        if ((value_type != kTypeDeletion) &&
            ikey.user_key.compare(Slice(saved_key_)) < 0) {
          // We encountered a non-deleted value in entries for prior keys.
          break;
        }
        value_type = ikey.type;
        if (value_type == kTypeDeletion) {
          saved_key_.clear();
          ClearSavedValue();
        } else {
          Slice raw = iter_->value();
          if (saved_value_.capacity() > raw.size() + 1048576) {
            std::string empty;
            std::swap(empty, saved_value_);
          }
          SaveKey(ExtractUserKey(iter_->key()), &saved_key_);
          saved_value_.assign(raw.data(), raw.size());
          saved_type_ = value_type;
        }
      }
      iter_->Prev();
    } while (iter_->Valid());
  }

  if (value_type == kTypeDeletion) {
    // End of iteration.
    valid_ = false;
    saved_key_.clear();
    ClearSavedValue();
    direction_ = kForward;
  } else {
    valid_ = true;
  }
}

void DBIter::Seek(const Slice& target) {
  direction_ = kForward;
  value_resolved_ = false;
  ClearSavedValue();
  saved_key_.clear();
  AppendInternalKey(&saved_key_,
                    ParsedInternalKey(target, sequence_, kValueTypeForSeek));
  iter_->Seek(saved_key_);
  if (iter_->Valid()) {
    FindNextUserEntry(false, &saved_key_ /* temporary storage */);
  } else {
    valid_ = false;
  }
}

void DBIter::SeekToFirst() {
  direction_ = kForward;
  value_resolved_ = false;
  ClearSavedValue();
  iter_->SeekToFirst();
  if (iter_->Valid()) {
    FindNextUserEntry(false, &saved_key_ /* temporary storage */);
  } else {
    valid_ = false;
  }
}

void DBIter::SeekToLast() {
  direction_ = kReverse;
  value_resolved_ = false;
  ClearSavedValue();
  saved_key_.clear();
  iter_->SeekToLast();
  FindPrevUserEntry();
}

}  // namespace unikv
