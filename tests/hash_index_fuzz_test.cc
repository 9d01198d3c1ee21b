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

// One partition's UnsortedStore life: flushes install one table's hash
// list each; a scan-merge replaces a run of the tables its snapshot saw,
// contiguous in id order, with their key union under the run's largest
// id; a merge consumes the whole snapshot. A scan-merge builds its new
// index from the snapshot tables it left in place (older and newer than
// the run) and its output, in id order, then re-adds the tables flushed
// while it ran; a merge re-adds only those. The output is appended after
// the newer tables, so list order and id order differ. After each step
// the live index must
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
      } else if (dice < 88) {
        ScanMerge(tables_.size() - survivors, /*interior=*/false);
      } else if (dice < 95) {
        ScanMerge(tables_.size() - survivors, /*interior=*/true);
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
  /// Scan-merges that left snapshot tables on both sides of their run.
  int InteriorScanMerges() const { return interior_scan_merges_; }

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

  // Consumes the whole snapshot (the first `snapshot` tables), or with
  // `interior` a run of at least two that is neither its oldest nor its
  // newest table.
  void ScanMerge(size_t snapshot, bool interior) {
    std::vector<size_t> by_id(snapshot);
    for (size_t i = 0; i < snapshot; i++) by_id[i] = i;
    std::sort(by_id.begin(), by_id.end(), [this](size_t a, size_t b) {
      return tables_[a].id < tables_[b].id;
    });
    size_t lo = 0, hi = snapshot;  // The run: by_id[lo, hi).
    if (interior && snapshot >= 4) {
      lo = 1 + rnd_.Uniform(static_cast<int>(snapshot - 3));
      hi = lo + 2 + rnd_.Uniform(static_cast<int>(snapshot - 2 - lo));
      interior_scan_merges_++;
    }
    Table out;
    std::set<uint32_t> keys;
    std::vector<bool> in_run(tables_.size(), false);
    for (size_t r = lo; r < hi; r++) {
      const Table& t = tables_[by_id[r]];
      out.id = std::max(out.id, t.id);
      keys.insert(t.keys.begin(), t.keys.end());
      in_run[by_id[r]] = true;
    }
    out.keys.assign(keys.begin(), keys.end());
    live_ = NewIndex();
    for (size_t r = 0; r < snapshot; r++) {
      if (r < lo || r >= hi) InsertTable(live_.get(), tables_[by_id[r]]);
      if (r == hi - 1) InsertTable(live_.get(), out);
    }
    for (size_t i = snapshot; i < tables_.size(); i++) {
      InsertTable(live_.get(), tables_[i]);
    }
    std::vector<Table> left;
    for (size_t i = 0; i < tables_.size(); i++) {
      if (!in_run[i]) left.push_back(std::move(tables_[i]));
    }
    tables_ = std::move(left);
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
