// Unit tests for the merging iterator and the lazy concatenation over
// synthetic in-memory children.

#include "core/merging_iterator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "core/dbformat.h"
#include "util/random.h"

namespace unikv {
namespace {

// A simple vector-backed iterator over (internal key, value) pairs.
class VectorIterator : public Iterator {
 public:
  explicit VectorIterator(
      std::vector<std::pair<std::string, std::string>> data)
      : data_(std::move(data)), pos_(data_.size()) {}

  bool Valid() const override { return pos_ < data_.size(); }
  void SeekToFirst() override { pos_ = 0; }
  void SeekToLast() override {
    pos_ = data_.empty() ? 0 : data_.size() - 1;
    if (data_.empty()) pos_ = data_.size();
  }
  void Seek(const Slice& target) override {
    InternalKeyComparator icmp;
    pos_ = 0;
    while (pos_ < data_.size() &&
           icmp.Compare(Slice(data_[pos_].first), target) < 0) {
      pos_++;
    }
  }
  void Next() override { pos_++; }
  void Prev() override {
    if (pos_ == 0) {
      pos_ = data_.size();
    } else {
      pos_--;
    }
  }
  Slice key() const override { return Slice(data_[pos_].first); }
  Slice value() const override { return Slice(data_[pos_].second); }
  Status status() const override { return Status::OK(); }

 private:
  std::vector<std::pair<std::string, std::string>> data_;
  size_t pos_;
};

std::string IKey(const std::string& user_key, SequenceNumber seq) {
  std::string r;
  AppendInternalKey(&r, ParsedInternalKey(user_key, seq, kTypeValue));
  return r;
}

TEST(MergingIterator, EmptyChildren) {
  InternalKeyComparator icmp;
  std::vector<Iterator*> children;
  children.push_back(new VectorIterator({}));
  children.push_back(new VectorIterator({}));
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(icmp, std::move(children)));
  merged->SeekToFirst();
  EXPECT_FALSE(merged->Valid());
  merged->SeekToLast();
  EXPECT_FALSE(merged->Valid());
}

TEST(MergingIterator, InterleavesInOrder) {
  InternalKeyComparator icmp;
  std::vector<Iterator*> children;
  children.push_back(new VectorIterator(
      {{IKey("a", 1), "a1"}, {IKey("c", 1), "c1"}, {IKey("e", 1), "e1"}}));
  children.push_back(new VectorIterator(
      {{IKey("b", 2), "b2"}, {IKey("d", 2), "d2"}}));
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(icmp, std::move(children)));

  std::string forward;
  for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
    forward += ExtractUserKey(merged->key()).ToString();
  }
  EXPECT_EQ("abcde", forward);

  std::string backward;
  for (merged->SeekToLast(); merged->Valid(); merged->Prev()) {
    backward += ExtractUserKey(merged->key()).ToString();
  }
  EXPECT_EQ("edcba", backward);
}

TEST(MergingIterator, SameUserKeyNewestFirst) {
  InternalKeyComparator icmp;
  std::vector<Iterator*> children;
  children.push_back(new VectorIterator({{IKey("k", 5), "new"}}));
  children.push_back(new VectorIterator({{IKey("k", 2), "old"}}));
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(icmp, std::move(children)));
  merged->SeekToFirst();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ("new", merged->value().ToString());
  merged->Next();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ("old", merged->value().ToString());
}

TEST(MergingIterator, DirectionSwitchMidStream) {
  InternalKeyComparator icmp;
  std::vector<Iterator*> children;
  children.push_back(new VectorIterator(
      {{IKey("a", 1), "1"}, {IKey("c", 1), "3"}}));
  children.push_back(new VectorIterator({{IKey("b", 1), "2"}}));
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(icmp, std::move(children)));
  merged->SeekToFirst();
  merged->Next();  // At b.
  EXPECT_EQ("b", ExtractUserKey(merged->key()).ToString());
  merged->Prev();  // Back to a.
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ("a", ExtractUserKey(merged->key()).ToString());
  merged->Next();
  merged->Next();  // At c.
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ("c", ExtractUserKey(merged->key()).ToString());
  merged->Prev();
  EXPECT_EQ("b", ExtractUserKey(merged->key()).ToString());
}

TEST(MergingIterator, RandomizedAgainstModel) {
  InternalKeyComparator icmp;
  Random rnd(77);
  std::map<std::string, std::string> model;  // internal key -> value.
  std::vector<std::vector<std::pair<std::string, std::string>>> shards(5);
  SequenceNumber seq = 1;
  for (int i = 0; i < 500; i++) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%04d", rnd.Uniform(200));
    std::string ikey = IKey(buf, seq++);
    std::string value = "v" + std::to_string(i);
    shards[rnd.Uniform(5)].emplace_back(ikey, value);
    model[ikey] = value;
  }
  // Children need sorted input.
  std::vector<Iterator*> children;
  for (auto& shard : shards) {
    std::sort(shard.begin(), shard.end(),
              [&icmp](const auto& a, const auto& b) {
                return icmp.Compare(Slice(a.first), Slice(b.first)) < 0;
              });
    children.push_back(new VectorIterator(shard));
  }
  // Model must be in internal-key order too.
  std::vector<std::pair<std::string, std::string>> expected(model.begin(),
                                                            model.end());
  std::sort(expected.begin(), expected.end(),
            [&icmp](const auto& a, const auto& b) {
              return icmp.Compare(Slice(a.first), Slice(b.first)) < 0;
            });

  std::unique_ptr<Iterator> merged(
      NewMergingIterator(icmp, std::move(children)));
  size_t i = 0;
  for (merged->SeekToFirst(); merged->Valid(); merged->Next(), i++) {
    ASSERT_LT(i, expected.size());
    EXPECT_EQ(expected[i].first, merged->key().ToString());
    EXPECT_EQ(expected[i].second, merged->value().ToString());
  }
  EXPECT_EQ(expected.size(), i);

  // Seek spot checks.
  for (int t = 0; t < 20; t++) {
    size_t target = rnd.Uniform(expected.size());
    merged->Seek(expected[target].first);
    ASSERT_TRUE(merged->Valid());
    EXPECT_EQ(expected[target].first, merged->key().ToString());
  }
}

// Disjoint, key-ordered sources for a lazy concatenation. Each source is
// built on demand by Open() and counted while it lives, so tests can check
// which sources a walk opened and that at most one is open at a time.
class LazySources {
 public:
  using Entries = std::vector<std::pair<std::string, std::string>>;

  explicit LazySources(std::vector<Entries> sources)
      : sources_(std::move(sources)) {}

  // Source `i` opens as an iterator that reports `status` and holds no
  // entries.
  void FailSource(size_t i, Status status) { errors_[i] = status; }

  Iterator* NewIterator() {
    return NewLazyConcatIterator(
        sources_.size(),
        [this](const Slice& target) {
          // First source whose last key is >= target; empty sources never
          // hold one.
          InternalKeyComparator icmp;
          size_t i = 0;
          while (i < sources_.size() &&
                 (sources_[i].empty() ||
                  icmp.Compare(Slice(sources_[i].back().first), target) <
                      0)) {
            i++;
          }
          return i;
        },
        [this](size_t i) { return Open(i); });
  }

  std::vector<size_t> opened;  // Source indexes, in open order.
  int live = 0;                // Sources open now.
  int max_live = 0;            // Most sources ever open at once.

 private:
  Iterator* Open(size_t i) {
    opened.push_back(i);
    live++;
    max_live = std::max(max_live, live);
    auto err = errors_.find(i);
    Iterator* iter = err != errors_.end() ? NewErrorIterator(err->second)
                                          : new VectorIterator(sources_[i]);
    iter->RegisterCleanup([this] { live--; });
    return iter;
  }

  std::vector<Entries> sources_;
  std::map<size_t, Status> errors_;
};

std::string UserKeys(Iterator* iter, bool forward) {
  std::string keys;
  for (forward ? iter->SeekToFirst() : iter->SeekToLast(); iter->Valid();
       forward ? iter->Next() : iter->Prev()) {
    keys += ExtractUserKey(iter->key()).ToString();
  }
  return keys;
}

TEST(LazyConcatIterator, ZeroSources) {
  LazySources sources({});
  std::unique_ptr<Iterator> concat(sources.NewIterator());
  concat->SeekToFirst();
  EXPECT_FALSE(concat->Valid());
  concat->SeekToLast();
  EXPECT_FALSE(concat->Valid());
  concat->Seek(IKey("a", kMaxSequenceNumber));
  EXPECT_FALSE(concat->Valid());
  EXPECT_TRUE(concat->status().ok());
  EXPECT_TRUE(sources.opened.empty());
}

TEST(LazyConcatIterator, EmptySourcesAreWalkedPast) {
  LazySources sources({{},
                       {{IKey("a", 1), "1"}, {IKey("b", 1), "2"}},
                       {},
                       {},
                       {{IKey("m", 1), "3"}, {IKey("z", 1), "4"}},
                       {}});
  std::unique_ptr<Iterator> concat(sources.NewIterator());
  EXPECT_EQ("abmz", UserKeys(concat.get(), /*forward=*/true));
  EXPECT_EQ("zmba", UserKeys(concat.get(), /*forward=*/false));
  EXPECT_TRUE(concat->status().ok());
  EXPECT_EQ(1, sources.max_live);
  EXPECT_EQ(0, sources.live);

  LazySources all_empty({{}, {}, {}});
  std::unique_ptr<Iterator> none(all_empty.NewIterator());
  EXPECT_EQ("", UserKeys(none.get(), /*forward=*/true));
  EXPECT_EQ("", UserKeys(none.get(), /*forward=*/false));
  EXPECT_TRUE(none->status().ok());
}

TEST(LazyConcatIterator, SeekBeforeIntoGapAndPastEnd) {
  LazySources sources({{{IKey("c", 1), "1"}, {IKey("e", 1), "2"}},
                       {{IKey("m", 1), "3"}, {IKey("p", 1), "4"}},
                       {{IKey("x", 1), "5"}}});
  std::unique_ptr<Iterator> concat(sources.NewIterator());

  concat->Seek(IKey("a", kMaxSequenceNumber));  // Before the first key.
  ASSERT_TRUE(concat->Valid());
  EXPECT_EQ("c", ExtractUserKey(concat->key()).ToString());

  concat->Seek(IKey("g", kMaxSequenceNumber));  // Gap between sources.
  ASSERT_TRUE(concat->Valid());
  EXPECT_EQ("m", ExtractUserKey(concat->key()).ToString());
  EXPECT_EQ("3", concat->value().ToString());

  concat->Seek(IKey("q", kMaxSequenceNumber));  // Gap before the last.
  ASSERT_TRUE(concat->Valid());
  EXPECT_EQ("x", ExtractUserKey(concat->key()).ToString());

  concat->Seek(IKey("y", kMaxSequenceNumber));  // Past the end.
  EXPECT_FALSE(concat->Valid());
  EXPECT_TRUE(concat->status().ok());
  EXPECT_EQ(0, sources.live);
}

TEST(LazyConcatIterator, SeekToLastAndPrevAcrossBoundary) {
  LazySources sources({{{IKey("a", 1), "1"}, {IKey("b", 1), "2"}},
                       {},
                       {{IKey("m", 1), "3"}}});
  std::unique_ptr<Iterator> concat(sources.NewIterator());
  concat->SeekToLast();
  ASSERT_TRUE(concat->Valid());
  EXPECT_EQ("m", ExtractUserKey(concat->key()).ToString());
  EXPECT_EQ(std::vector<size_t>({2}), sources.opened);

  concat->Prev();  // Across the empty source into the first.
  ASSERT_TRUE(concat->Valid());
  EXPECT_EQ("b", ExtractUserKey(concat->key()).ToString());
  EXPECT_EQ(std::vector<size_t>({2, 1, 0}), sources.opened);
  EXPECT_EQ(1, sources.live);

  concat->Next();  // And forward again.
  ASSERT_TRUE(concat->Valid());
  EXPECT_EQ("m", ExtractUserKey(concat->key()).ToString());
  concat->Prev();
  concat->Prev();
  ASSERT_TRUE(concat->Valid());
  EXPECT_EQ("a", ExtractUserKey(concat->key()).ToString());
  concat->Prev();
  EXPECT_FALSE(concat->Valid());
  EXPECT_EQ(0, sources.live);
  EXPECT_EQ(1, sources.max_live);
}

TEST(LazyConcatIterator, SeekOpensExactlyOneSource) {
  std::vector<LazySources::Entries> runs;
  for (char c = 'a'; c <= 'h'; c++) {
    runs.push_back({{IKey(std::string(1, c) + "1", 1), "v"},
                    {IKey(std::string(1, c) + "2", 1), "v"}});
  }
  LazySources sources(std::move(runs));
  std::unique_ptr<Iterator> concat(sources.NewIterator());
  EXPECT_TRUE(sources.opened.empty());  // Building opens nothing.

  concat->Seek(IKey("e2", kMaxSequenceNumber));
  ASSERT_TRUE(concat->Valid());
  EXPECT_EQ("e2", ExtractUserKey(concat->key()).ToString());
  EXPECT_EQ(std::vector<size_t>({4}), sources.opened);

  // A second Seek into the open source reuses it.
  concat->Seek(IKey("e1", kMaxSequenceNumber));
  EXPECT_EQ("e1", ExtractUserKey(concat->key()).ToString());
  EXPECT_EQ(std::vector<size_t>({4}), sources.opened);

  // Walking off the source's end opens the next one only.
  concat->Next();
  concat->Next();
  ASSERT_TRUE(concat->Valid());
  EXPECT_EQ("f1", ExtractUserKey(concat->key()).ToString());
  EXPECT_EQ(std::vector<size_t>({4, 5}), sources.opened);
  EXPECT_EQ(1, sources.max_live);
}

TEST(LazyConcatIterator, ErrorStopsTheWalkAndOutlivesTheSource) {
  LazySources sources({{{IKey("a", 1), "1"}},
                       {{IKey("f", 1), "2"}},
                       {{IKey("m", 1), "3"}}});
  sources.FailSource(1, Status::IOError("source 1 unreadable"));
  std::unique_ptr<Iterator> concat(sources.NewIterator());

  concat->SeekToFirst();
  ASSERT_TRUE(concat->Valid());
  concat->Next();  // Into the failing source: the walk stops there.
  EXPECT_FALSE(concat->Valid());
  EXPECT_TRUE(concat->status().IsIOError()) << concat->status().ToString();
  EXPECT_EQ(std::vector<size_t>({0, 1}), sources.opened);
  EXPECT_EQ(0, sources.live);

  // Moving on to a healthy source keeps the error.
  concat->Seek(IKey("m", kMaxSequenceNumber));
  ASSERT_TRUE(concat->Valid());
  EXPECT_EQ("m", ExtractUserKey(concat->key()).ToString());
  EXPECT_TRUE(concat->status().IsIOError());

  // Backward too: Prev from m stops at the failing source.
  concat->Prev();
  EXPECT_FALSE(concat->Valid());
  EXPECT_TRUE(concat->status().IsIOError());
}

// A lazy concatenation under a MergingIterator, next to two overlapping
// children (as partitions sit next to memtables): random seeks and walks
// with direction switches must match a model, and never hold more than
// one source open.
TEST(LazyConcatIterator, RandomWalkUnderMergingIterator) {
  InternalKeyComparator icmp;
  auto less = [&icmp](const auto& a, const auto& b) {
    return icmp.Compare(Slice(a.first), Slice(b.first)) < 0;
  };
  Random rnd(301);
  std::vector<std::pair<std::string, std::string>> model;
  // Ten sources of 20 keys each (some empty), disjoint by user key.
  std::vector<LazySources::Entries> runs(10);
  LazySources::Entries mem_a, mem_b;
  SequenceNumber seq = 1;
  for (int i = 0; i < 200; i++) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%04d", i);
    const int roll = rnd.Uniform(10);
    if (i / 20 == 3 || i / 20 == 7) continue;  // Sources 3 and 7 stay empty.
    std::pair<std::string, std::string> entry(IKey(buf, seq++),
                                              "v" + std::to_string(i));
    if (roll == 0) {
      mem_a.push_back(entry);
    } else if (roll == 1) {
      mem_b.push_back(entry);
    } else {
      runs[i / 20].push_back(entry);
    }
    model.push_back(entry);
  }
  std::sort(model.begin(), model.end(), less);
  LazySources sources(std::move(runs));
  std::vector<Iterator*> children;
  children.push_back(new VectorIterator(mem_a));
  children.push_back(sources.NewIterator());
  children.push_back(new VectorIterator(mem_b));
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(icmp, std::move(children)));

  size_t pos = model.size();  // model.size() == invalid.
  for (int op = 0; op < 2000; op++) {
    const int roll = rnd.Uniform(20);
    if (roll == 0) {
      merged->SeekToFirst();
      pos = 0;
    } else if (roll == 1) {
      merged->SeekToLast();
      pos = model.size() - 1;
    } else if (roll < 5 || pos == model.size()) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "k%04d", rnd.Uniform(210));
      const std::string target = IKey(buf, kMaxSequenceNumber);
      merged->Seek(target);
      pos = std::lower_bound(model.begin(), model.end(),
                             std::make_pair(target, std::string()), less) -
            model.begin();
    } else if (roll < 13) {
      merged->Next();
      pos++;
    } else {
      merged->Prev();
      pos = pos == 0 ? model.size() : pos - 1;
    }
    ASSERT_EQ(pos < model.size(), merged->Valid()) << "op " << op;
    if (pos < model.size()) {
      ASSERT_EQ(model[pos].first, merged->key().ToString()) << "op " << op;
      ASSERT_EQ(model[pos].second, merged->value().ToString());
    }
  }
  EXPECT_TRUE(merged->status().ok());
  EXPECT_EQ(1, sources.max_live);
}
}  // namespace
}  // namespace unikv
