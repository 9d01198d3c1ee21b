#include "core/merging_iterator.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "core/table_cache.h"
#include "util/metrics.h"

namespace unikv {

namespace {

class MergingIterator : public Iterator {
 public:
  MergingIterator(const InternalKeyComparator& comparator,
                  std::vector<Iterator*> children)
      : comparator_(comparator),
        children_(std::move(children)),
        current_(nullptr),
        direction_(kForward) {}

  ~MergingIterator() override {
    for (Iterator* child : children_) {
      delete child;
    }
  }

  bool Valid() const override { return current_ != nullptr; }

  void SeekToFirst() override {
    for (Iterator* child : children_) {
      child->SeekToFirst();
    }
    FindSmallest();
    direction_ = kForward;
  }

  void SeekToLast() override {
    for (Iterator* child : children_) {
      child->SeekToLast();
    }
    FindLargest();
    direction_ = kReverse;
  }

  void Seek(const Slice& target) override {
    for (Iterator* child : children_) {
      child->Seek(target);
    }
    FindSmallest();
    direction_ = kForward;
  }

  void Next() override {
    assert(Valid());

    // Ensure all children are positioned after key(): if we were moving
    // backwards, children other than current_ sit at entries < key().
    if (direction_ != kForward) {
      for (Iterator* child : children_) {
        if (child != current_) {
          child->Seek(key());
          if (child->Valid() &&
              comparator_.Compare(key(), child->key()) == 0) {
            child->Next();
          }
        }
      }
      direction_ = kForward;
    }

    current_->Next();
    FindSmallest();
  }

  void Prev() override {
    assert(Valid());

    if (direction_ != kReverse) {
      for (Iterator* child : children_) {
        if (child != current_) {
          child->Seek(key());
          if (child->Valid()) {
            // Child is at the first entry >= key(); step back one.
            child->Prev();
          } else {
            // Child has no entries >= key(); position at last.
            child->SeekToLast();
          }
        }
      }
      direction_ = kReverse;
    }

    current_->Prev();
    FindLargest();
  }

  Slice key() const override {
    assert(Valid());
    return current_->key();
  }

  Slice value() const override {
    assert(Valid());
    return current_->value();
  }

  Status status() const override {
    for (Iterator* child : children_) {
      Status s = child->status();
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

 private:
  enum Direction { kForward, kReverse };

  void FindSmallest() {
    Iterator* smallest = nullptr;
    for (Iterator* child : children_) {
      if (child->Valid()) {
        if (smallest == nullptr ||
            comparator_.Compare(child->key(), smallest->key()) < 0) {
          smallest = child;
        }
      }
    }
    current_ = smallest;
  }

  void FindLargest() {
    Iterator* largest = nullptr;
    // Iterate in reverse so earlier children win ties.
    for (auto it = children_.rbegin(); it != children_.rend(); ++it) {
      Iterator* child = *it;
      if (child->Valid()) {
        if (largest == nullptr ||
            comparator_.Compare(child->key(), largest->key()) >= 0) {
          largest = child;
        }
      }
    }
    current_ = largest;
  }

  const InternalKeyComparator comparator_;
  std::vector<Iterator*> children_;
  Iterator* current_;
  Direction direction_;
};

class LazyConcatIterator : public Iterator {
 public:
  LazyConcatIterator(size_t n, SourceLocator locate, SourceOpener open)
      : n_(n), locate_(std::move(locate)), open_(std::move(open)) {}

  bool Valid() const override { return cur_ != nullptr && cur_->Valid(); }

  void SeekToFirst() override {
    OpenSource(0);
    if (cur_ != nullptr) cur_->SeekToFirst();
    SkipEmptyForward();
  }

  void SeekToLast() override {
    OpenSource(n_ == 0 ? 0 : n_ - 1);
    if (cur_ != nullptr) cur_->SeekToLast();
    SkipEmptyBackward();
  }

  void Seek(const Slice& target) override {
    OpenSource(locate_(target));
    if (cur_ != nullptr) cur_->Seek(target);
    SkipEmptyForward();
  }

  void Next() override {
    assert(Valid());
    cur_->Next();
    SkipEmptyForward();
  }

  void Prev() override {
    assert(Valid());
    cur_->Prev();
    SkipEmptyBackward();
  }

  Slice key() const override {
    assert(Valid());
    return cur_->key();
  }

  Slice value() const override {
    assert(Valid());
    return cur_->value();
  }

  Status status() const override {
    if (!status_.ok()) return status_;
    return cur_ != nullptr ? cur_->status() : Status::OK();
  }

 private:
  /// Makes source i the open one (kept if it already is); i >= n_ leaves
  /// none open.
  void OpenSource(size_t i) {
    if (cur_ != nullptr && i == index_) return;
    CloseSource();
    index_ = i;
    if (i < n_) cur_.reset(open_(i));
  }

  /// Closes the open source, keeping the first error any source showed.
  void CloseSource() {
    if (cur_ == nullptr) return;
    if (status_.ok()) status_ = cur_->status();
    cur_.reset();
  }

  void SkipEmptyForward() {
    while (cur_ != nullptr && !cur_->Valid()) {
      if (!cur_->status().ok()) {
        CloseSource();
        return;
      }
      OpenSource(index_ + 1);
      if (cur_ != nullptr) cur_->SeekToFirst();
    }
  }

  void SkipEmptyBackward() {
    while (cur_ != nullptr && !cur_->Valid()) {
      if (!cur_->status().ok() || index_ == 0) {
        CloseSource();
        return;
      }
      OpenSource(index_ - 1);
      cur_->SeekToLast();
    }
  }

  const size_t n_;
  const SourceLocator locate_;
  const SourceOpener open_;
  std::unique_ptr<Iterator> cur_;
  size_t index_ = 0;  // Source cur_ belongs to.
  Status status_;
};

class ClampedIterator : public Iterator {
 public:
  ClampedIterator(Iterator* base, std::string lower, std::string upper)
      : base_(base),
        lower_(std::move(lower)),
        upper_(std::move(upper)),
        lower_seek_(SeekKey(lower_)),
        upper_seek_(SeekKey(upper_)) {}

  bool Valid() const override { return valid_; }
  void SeekToFirst() override {
    if (lower_.empty()) {
      base_->SeekToFirst();
    } else {
      base_->Seek(lower_seek_);
    }
    Clamp();
  }
  void SeekToLast() override {
    if (upper_.empty()) {
      base_->SeekToLast();
    } else {
      // The last entry before the first one at or past `upper`.
      base_->Seek(upper_seek_);
      if (base_->Valid()) {
        base_->Prev();
      } else if (base_->status().ok()) {
        base_->SeekToLast();
      }
    }
    Clamp();
  }
  void Seek(const Slice& target) override {
    if (ExtractUserKey(target).compare(Slice(lower_)) < 0) {
      base_->Seek(lower_seek_);
    } else {
      base_->Seek(target);
    }
    Clamp();
  }
  void Next() override {
    base_->Next();
    Clamp();
  }
  void Prev() override {
    base_->Prev();
    Clamp();
  }
  Slice key() const override { return base_->key(); }
  Slice value() const override { return base_->value(); }
  Status status() const override { return base_->status(); }

 private:
  // The smallest internal key of `user_key`.
  static std::string SeekKey(const std::string& user_key) {
    std::string key;
    AppendInternalKey(&key, ParsedInternalKey(user_key, kMaxSequenceNumber,
                                              kValueTypeForSeek));
    return key;
  }

  void Clamp() {
    valid_ = false;
    if (!base_->Valid()) return;
    const Slice user_key = ExtractUserKey(base_->key());
    valid_ = user_key.compare(Slice(lower_)) >= 0 &&
             (upper_.empty() || user_key.compare(Slice(upper_)) < 0);
  }

  const std::unique_ptr<Iterator> base_;
  const std::string lower_;
  const std::string upper_;
  const std::string lower_seek_, upper_seek_;  // Their SeekKeys.
  bool valid_ = false;
};

}  // namespace

Iterator* NewClampedIterator(Iterator* base, std::string lower,
                             std::string upper) {
  return new ClampedIterator(base, std::move(lower), std::move(upper));
}

Iterator* NewMergingIterator(const InternalKeyComparator& comparator,
                             std::vector<Iterator*> children) {
  if (children.empty()) {
    return NewEmptyIterator();
  }
  if (children.size() == 1) {
    return children[0];
  }
  return new MergingIterator(comparator, std::move(children));
}

Iterator* NewLazyConcatIterator(size_t n, SourceLocator locate,
                                SourceOpener open) {
  return new LazyConcatIterator(n, std::move(locate), std::move(open));
}

Iterator* NewSortedRunIterator(TableCache* cache,
                               std::span<const FileMeta> files,
                               bool fill_cache, Counter* tables_opened) {
  auto locate = [files](const Slice& target) -> size_t {
    // First file whose largest user key is >= the target's user key.
    const Slice user_key = ExtractUserKey(target);
    auto it = std::partition_point(
        files.begin(), files.end(), [&user_key](const FileMeta& f) {
          return Slice(f.largest).compare(user_key) < 0;
        });
    return static_cast<size_t>(it - files.begin());
  };
  auto open = [cache, files, fill_cache, tables_opened](size_t i) {
    if (tables_opened != nullptr) tables_opened->Inc();
    return cache->NewIterator(files[i].number, files[i].size, fill_cache);
  };
  return new LazyConcatIterator(files.size(), std::move(locate),
                                std::move(open));
}

}  // namespace unikv
