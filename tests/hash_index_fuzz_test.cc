// Randomized differential test for the two-level hash index: ~50k seeded
// insert/overwrite/lookup/clear operations checked against a reference
// unordered_map. The index's contract is one-sided — Lookup returns a
// *superset* of the true locations (keyTag collisions add false
// candidates, never false negatives) — so the invariant checked is that
// the latest table id recorded for a key always appears among its
// candidates. A 20k-key pool over 16-bit tags guarantees plenty of real
// tag collisions. A second fuzzer checks that rebuilding an index from
// per-table hash lists, each table at its list position (recovery),
// answers exactly like the index the installs built one table at a time.

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
      : rnd_(seed), expected_(expected), num_hashes_(num_hashes),
        index_(NewIndex()) {}

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
        // with the whole index), so a delete only shrinks the reference —
        // candidates for the key may legally keep appearing.
        DeleteFromReference();
      }
      if (op > 0 && op % 1000 == 0 && rnd_.Uniform(4) == 0) {
        EndEpoch();
      }
    }
    VerifyAll();
  }

 private:
  std::unique_ptr<HashIndex> NewIndex() const {
    return std::make_unique<HashIndex>(expected_, num_hashes_);
  }

  void InsertRandom() {
    std::string key = FuzzKey(rnd_.Uniform(20000));
    uint16_t table_id = static_cast<uint16_t>(rnd_.Uniform(0xFFFF));
    index_->Insert(H(key), table_id);
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
    index_->Insert(H(it->first), table_id);
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
    // The UnsortedStore merged into the SortedStore: the engine installs
    // a new index, and everything drops.
    index_ = NewIndex();
    reference_.clear();
    ASSERT_EQ(0u, index_->NumEntries());
    std::vector<uint16_t> candidates;
    index_->Lookup(H(FuzzKey(rnd_.Uniform(20000))), &candidates);
    EXPECT_TRUE(candidates.empty()) << "candidates survived the new index";
  }

  void CheckKey(const std::string& key) {
    auto it = reference_.find(key);
    if (it == reference_.end()) return;  // Superset contract: nothing to say.
    std::vector<uint16_t> candidates;
    index_->Lookup(H(key), &candidates);
    EXPECT_NE(candidates.end(),
              std::find(candidates.begin(), candidates.end(), it->second))
        << "latest table id missing for " << key;
  }

  void VerifyAll() {
    for (const auto& [key, table_id] : reference_) {
      std::vector<uint16_t> candidates;
      index_->Lookup(H(key), &candidates);
      ASSERT_NE(candidates.end(),
                std::find(candidates.begin(), candidates.end(), table_id))
          << "final sweep: latest table id missing for " << key;
    }
  }

  Random rnd_;
  const size_t expected_;
  const int num_hashes_;
  std::unique_ptr<HashIndex> index_;
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

// One partition's UnsortedStore life, with the index naming each table by
// its position in the partition's list (oldest first): a flush appends a
// table and inserts its hashes at the next position; a scan-merge
// replaces a run of adjacent tables its snapshot saw with their key union
// at the run's first position; a merge consumes the whole snapshot. A
// scan-merge builds its new index over the list it leaves: the snapshot
// tables before the run at their positions, its output, the snapshot
// tables after the run shifted down by the run's length - 1, and then the
// tables flushed while it ran at the positions after those; a merge
// re-adds only those survivors, from position 0. After each step the
// live index must equal one rebuilt from the list in order, as recovery
// does: same candidate positions in the same order for every key, or a
// reopen could change which table a read trusts first.
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
      } else if (dice < 88) {
        ScanMerge(tables_.size() - survivors, /*interior=*/false);
      } else if (dice < 95) {
        ScanMerge(tables_.size() - survivors, /*interior=*/true);
      } else {
        Merge(tables_.size() - survivors);
      }
      ASSERT_NO_FATAL_FAILURE(VerifyRebuild());
    }
  }

  /// Most overflow entries the live index held at any check.
  uint64_t MaxOverflow() const { return max_overflow_; }
  /// Scan-merges that left snapshot tables on both sides of their run.
  int InteriorScanMerges() const { return interior_scan_merges_; }

 private:
  static constexpr uint32_t kKeys = 5000;

  using Table = std::vector<uint32_t>;  // Sorted, distinct keys.

  std::unique_ptr<HashIndex> NewIndex() const {
    return std::make_unique<HashIndex>(expected_, num_hashes_);
  }

  static void InsertTable(HashIndex* index, const Table& t, size_t pos) {
    for (uint32_t k : t) index->Insert(H(FuzzKey(k)), pos);
  }

  void Flush() {
    std::set<uint32_t> keys;
    const uint32_t n = 1 + rnd_.Uniform(200);
    for (uint32_t i = 0; i < n; i++) keys.insert(rnd_.Uniform(kKeys));
    InsertTable(live_.get(), Table(keys.begin(), keys.end()), tables_.size());
    tables_.emplace_back(keys.begin(), keys.end());
    flushes_since_job_++;
  }

  // Consumes the whole snapshot (the first `snapshot` tables), or with
  // `interior` a run of at least two that is neither its oldest nor its
  // newest table.
  void ScanMerge(size_t snapshot, bool interior) {
    size_t lo = 0, hi = snapshot;  // The run: positions [lo, hi).
    if (interior && snapshot >= 4) {
      lo = 1 + rnd_.Uniform(static_cast<int>(snapshot - 3));
      hi = lo + 2 + rnd_.Uniform(static_cast<int>(snapshot - 2 - lo));
      interior_scan_merges_++;
    }
    std::set<uint32_t> keys;
    for (size_t i = lo; i < hi; i++) {
      keys.insert(tables_[i].begin(), tables_[i].end());
    }
    const Table out(keys.begin(), keys.end());
    const size_t shift = hi - lo - 1;
    live_ = NewIndex();
    for (size_t i = 0; i < lo; i++) InsertTable(live_.get(), tables_[i], i);
    InsertTable(live_.get(), out, lo);
    for (size_t i = hi; i < tables_.size(); i++) {
      InsertTable(live_.get(), tables_[i], i - shift);
    }
    tables_.erase(tables_.begin() + lo, tables_.begin() + hi);
    tables_.insert(tables_.begin() + lo, out);
    flushes_since_job_ = 0;
  }

  void Merge(size_t consumed) {
    live_ = NewIndex();
    tables_.erase(tables_.begin(), tables_.begin() + consumed);
    for (size_t i = 0; i < tables_.size(); i++) {
      InsertTable(live_.get(), tables_[i], i);
    }
    flushes_since_job_ = 0;
  }

  void VerifyRebuild() {
    std::unique_ptr<HashIndex> rebuilt = NewIndex();
    for (size_t i = 0; i < tables_.size(); i++) {
      InsertTable(rebuilt.get(), tables_[i], i);
    }
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
  std::vector<Table> tables_;  // Oldest first, like PartitionState.
  size_t flushes_since_job_ = 0;
  uint64_t max_overflow_ = 0;
  int interior_scan_merges_ = 0;
};

TEST(HashIndexFuzzTest, RebuildFromTableHashesEqualsLive) {
  RebuildFuzz fuzz(/*seed=*/771, /*expected=*/16384, /*num_hashes=*/2);
  fuzz.Run(300);
  EXPECT_GT(fuzz.InteriorScanMerges(), 0);
}

TEST(HashIndexFuzzTest, RebuildEqualsLiveThroughOverflowChains) {
  RebuildFuzz fuzz(/*seed=*/772, /*expected=*/64, /*num_hashes=*/3);
  fuzz.Run(300);
  EXPECT_GT(fuzz.MaxOverflow(), 0u);
  EXPECT_GT(fuzz.InteriorScanMerges(), 0);
}

}  // namespace
}  // namespace unikv
