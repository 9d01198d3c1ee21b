// Randomized differential test for the two-level hash index: ~50k seeded
// insert/overwrite/lookup/clear operations checked against a reference
// unordered_map. The index's contract is one-sided — Lookup returns a
// *superset* of the true locations (keyTag collisions add false
// candidates, never false negatives) — so the invariant checked is that
// the latest table id recorded for a key always appears among its
// candidates. A 20k-key pool over 16-bit tags guarantees plenty of real
// tag collisions. A second fuzzer checks that rebuilding an index from
// per-table hash lists in table-id order (recovery) answers exactly like
// the index the installs built one table at a time.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "index/hash_index.h"
#include "util/random.h"

namespace unikv {
namespace {

std::string FuzzKey(uint32_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "fz%07u", i);
  return buf;
}

uint64_t H(const Slice& key) { return HashIndex::KeyHash(key); }

class HashIndexFuzz {
 public:
  explicit HashIndexFuzz(uint32_t seed, size_t expected, int num_hashes)
      : rnd_(seed), index_(expected, num_hashes) {}

  void Run(int total_ops) {
    for (int op = 0; op < total_ops; op++) {
      const uint32_t dice = rnd_.Uniform(100);
      if (dice < 55) {
        InsertRandom();
      } else if (dice < 70) {
        OverwriteExisting();
      } else if (dice < 98) {
        LookupRandom();
      } else {
        // "Delete": the index has no per-key removal (entries only vanish
        // at Clear), so a delete only shrinks the reference — candidates
        // for the key may legally keep appearing.
        DeleteFromReference();
      }
      if (op > 0 && op % 1000 == 0 && rnd_.Uniform(4) == 0) {
        EndEpoch();
      }
    }
    VerifyAll();
  }

 private:
  void InsertRandom() {
    std::string key = FuzzKey(rnd_.Uniform(20000));
    uint16_t table_id = static_cast<uint16_t>(rnd_.Uniform(0xFFFF));
    index_.Insert(H(key), table_id);
    reference_[key] = table_id;
  }

  void OverwriteExisting() {
    if (reference_.empty()) return InsertRandom();
    // Re-inserting an existing key with a new table id models a newer
    // version landing in a newer UnsortedStore table.
    auto it = reference_.begin();
    std::advance(it, rnd_.Uniform(
                         static_cast<int>(std::min<size_t>(reference_.size(),
                                                           64))));
    uint16_t table_id = static_cast<uint16_t>(rnd_.Uniform(0xFFFF));
    index_.Insert(H(it->first), table_id);
    it->second = table_id;
  }

  void LookupRandom() {
    std::string key = FuzzKey(rnd_.Uniform(20000));
    CheckKey(key);
  }

  void DeleteFromReference() {
    if (reference_.empty()) return;
    auto it = reference_.begin();
    reference_.erase(it);
  }

  void EndEpoch() {
    // The UnsortedStore merged into the SortedStore: everything drops.
    index_.Clear();
    reference_.clear();
    ASSERT_EQ(0u, index_.NumEntries());
    std::vector<uint16_t> candidates;
    index_.Lookup(H(FuzzKey(rnd_.Uniform(20000))), &candidates);
    EXPECT_TRUE(candidates.empty()) << "candidates survived Clear()";
  }

  void CheckKey(const std::string& key) {
    auto it = reference_.find(key);
    if (it == reference_.end()) return;  // Superset contract: nothing to say.
    std::vector<uint16_t> candidates;
    index_.Lookup(H(key), &candidates);
    EXPECT_NE(candidates.end(),
              std::find(candidates.begin(), candidates.end(), it->second))
        << "latest table id missing for " << key;
  }

  void VerifyAll() {
    for (const auto& [key, table_id] : reference_) {
      std::vector<uint16_t> candidates;
      index_.Lookup(H(key), &candidates);
      ASSERT_NE(candidates.end(),
                std::find(candidates.begin(), candidates.end(), table_id))
          << "final sweep: latest table id missing for " << key;
    }
  }

  Random rnd_;
  HashIndex index_;
  std::unordered_map<std::string, uint16_t> reference_;
};

TEST(HashIndexFuzzTest, FiftyThousandOpsSeed1) {
  HashIndexFuzz fuzz(/*seed=*/20260805, /*expected=*/16384, /*num_hashes=*/2);
  fuzz.Run(50000);
}

TEST(HashIndexFuzzTest, UndersizedIndexForcesOverflowChains) {
  // An index sized for 64 entries but fed thousands: nearly every insert
  // lands in an overflow chain, stressing chain order and traversal.
  HashIndexFuzz fuzz(/*seed=*/1234577, /*expected=*/64, /*num_hashes=*/2);
  fuzz.Run(20000);
}

TEST(HashIndexFuzzTest, SingleHashDegeneratesGracefully) {
  HashIndexFuzz fuzz(/*seed=*/42, /*expected=*/4096, /*num_hashes=*/1);
  fuzz.Run(20000);
}

// One partition's UnsortedStore life: flushes install one table's hash
// list each; a scan-merge replaces the tables its snapshot saw with their
// key union under the largest consumed id, then re-adds the tables
// flushed while it ran; a merge keeps only those. The survivors are
// always the newest flushes, while the output is appended after them, so
// list order and id order differ. After each step the live index must
// equal one rebuilt from the surviving lists in table-id order, as
// recovery does: same candidate ids in the same order for every key, or
// a reopen could change which table a read trusts first.
class RebuildFuzz {
 public:
  RebuildFuzz(uint32_t seed, size_t expected, int num_hashes)
      : rnd_(seed), expected_(expected), num_hashes_(num_hashes),
        live_(NewIndex()) {}

  void Run(int steps) {
    for (int step = 0; step < steps; step++) {
      const uint32_t dice = rnd_.Uniform(100);
      // A job's snapshot holds every table but the last `survivors`,
      // which are flushes installed since the previous job's install.
      const size_t survivors = rnd_.Uniform(
          static_cast<int>(std::min(flushes_since_job_ + 1,
                                    tables_.size() > 1 ? tables_.size() - 1
                                                       : 1)));
      if (dice < 80 || tables_.size() < 2) {
        Flush();
      } else if (dice < 95) {
        ScanMerge(tables_.size() - survivors);
      } else {
        Merge(tables_.size() - survivors);
      }
      if (step % 10 == 9) {
        ASSERT_NO_FATAL_FAILURE(VerifyRebuild());
      }
    }
    VerifyRebuild();
  }

  /// Most overflow entries the live index held at any check.
  uint64_t MaxOverflow() const { return max_overflow_; }

 private:
  static constexpr uint32_t kKeys = 5000;

  struct Table {
    uint16_t id = 0;
    std::vector<uint32_t> keys;  // Sorted, distinct: the table's key order.
  };

  std::unique_ptr<HashIndex> NewIndex() const {
    return std::make_unique<HashIndex>(expected_, num_hashes_);
  }

  static void InsertTable(HashIndex* index, const Table& t) {
    for (uint32_t k : t.keys) index->Insert(H(FuzzKey(k)), t.id);
  }

  void Flush() {
    Table t;
    for (const Table& old : tables_) {
      t.id = std::max<uint16_t>(t.id, old.id + 1);
    }
    std::set<uint32_t> keys;
    const uint32_t n = 1 + rnd_.Uniform(200);
    for (uint32_t i = 0; i < n; i++) keys.insert(rnd_.Uniform(kKeys));
    t.keys.assign(keys.begin(), keys.end());
    InsertTable(live_.get(), t);
    tables_.push_back(std::move(t));
    flushes_since_job_++;
  }

  void ScanMerge(size_t consumed) {
    Table out;
    std::set<uint32_t> keys;
    for (size_t i = 0; i < consumed; i++) {
      out.id = std::max(out.id, tables_[i].id);
      keys.insert(tables_[i].keys.begin(), tables_[i].keys.end());
    }
    out.keys.assign(keys.begin(), keys.end());
    live_ = NewIndex();
    InsertTable(live_.get(), out);
    tables_.erase(tables_.begin(), tables_.begin() + consumed);
    for (const Table& t : tables_) InsertTable(live_.get(), t);
    tables_.push_back(std::move(out));  // Appended after the survivors.
    flushes_since_job_ = 0;
  }

  void Merge(size_t consumed) {
    live_ = NewIndex();
    tables_.erase(tables_.begin(), tables_.begin() + consumed);
    for (const Table& t : tables_) InsertTable(live_.get(), t);
    flushes_since_job_ = 0;
  }

  void VerifyRebuild() {
    std::vector<const Table*> by_id;
    for (const Table& t : tables_) by_id.push_back(&t);
    std::sort(by_id.begin(), by_id.end(),
              [](const Table* a, const Table* b) { return a->id < b->id; });
    std::unique_ptr<HashIndex> rebuilt = NewIndex();
    for (const Table* t : by_id) InsertTable(rebuilt.get(), *t);
    max_overflow_ = std::max(max_overflow_, live_->NumOverflowEntries());
    ASSERT_EQ(live_->NumEntries(), rebuilt->NumEntries());
    for (uint32_t k = 0; k < kKeys; k++) {
      std::vector<uint16_t> live, again;
      live_->Lookup(H(FuzzKey(k)), &live);
      rebuilt->Lookup(H(FuzzKey(k)), &again);
      ASSERT_EQ(live, again) << FuzzKey(k);
    }
  }

  Random rnd_;
  const size_t expected_;
  const int num_hashes_;
  std::unique_ptr<HashIndex> live_;
  std::vector<Table> tables_;  // Install order, like PartitionState.
  size_t flushes_since_job_ = 0;
  uint64_t max_overflow_ = 0;
};

TEST(HashIndexFuzzTest, RebuildFromTableHashesEqualsLive) {
  RebuildFuzz fuzz(/*seed=*/771, /*expected=*/16384, /*num_hashes=*/2);
  fuzz.Run(300);
}

TEST(HashIndexFuzzTest, RebuildEqualsLiveThroughOverflowChains) {
  RebuildFuzz fuzz(/*seed=*/772, /*expected=*/64, /*num_hashes=*/3);
  fuzz.Run(300);
  EXPECT_GT(fuzz.MaxOverflow(), 0u);
}

}  // namespace
}  // namespace unikv
