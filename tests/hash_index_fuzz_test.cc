// Randomized differential test for the two-level hash index: ~50k seeded
// insert/overwrite/lookup/clear operations checked against a reference
// unordered_map. The index's contract is one-sided — Lookup returns a
// *superset* of the true locations (keyTag collisions add false
// candidates, never false negatives) — so the invariant checked is that
// the latest table id recorded for a key always appears among its
// candidates. A 20k-key pool over 16-bit tags guarantees plenty of real
// tag collisions. A second fuzzer checks that rebuilding an index from
// the references' slices of per-table hash lists, each at its list
// position (recovery), answers exactly like the live indexes that
// flushes, merges, scan-merges and splits built.

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

// The UnsortedStores of a range-partitioned key space, with each index
// naming a reference by its position in its partition's list (oldest
// first). A table's key-hash block lists its distinct keys in key order,
// and a reference holds a slice of it:
//  - a flush writes one table and appends one reference per partition it
//    covers, whose slice is the partition's keys, inserted at the next
//    position;
//  - a scan-merge replaces a run of adjacent references its snapshot saw
//    with a table of their keys inside the partition's range (no table
//    when there are none) at the run's first position;
//  - a merge consumes the whole snapshot;
//  - a split divides a partition's range; both children keep every
//    reference with its slice, and each child's index is a clone of the
//    parent's.
// A scan-merge builds its new index over the list it leaves: the
// snapshot references before the run at their positions, its output, the
// references after the run shifted down, and then the references flushed
// while it ran at the positions after those; a merge re-adds only those
// survivors, from position 0. After each step every partition's live
// index must equal one rebuilt from its references' slices in order, as
// recovery does: as many entries, and the same candidate positions in the
// same order for every key in its range, or a reopen could change which
// table a read trusts first.
class RebuildFuzz {
 public:
  RebuildFuzz(uint32_t seed, size_t expected, int num_hashes)
      : rnd_(seed), expected_(expected), num_hashes_(num_hashes) {
    parts_.push_back(Partition{0, kKeys, {}, NewIndex(), 0});
  }

  void Run(int steps) {
    for (int step = 0; step < steps; step++) {
      const uint32_t dice = rnd_.Uniform(100);
      Partition& p = parts_[rnd_.Uniform(static_cast<int>(parts_.size()))];
      // A job's snapshot holds every reference but the last `survivors`,
      // which are flushes installed since the previous job's install.
      const size_t n = p.refs.size();
      const size_t survivors = rnd_.Uniform(static_cast<int>(
          std::min(p.flushes_since_job + 1, n > 1 ? n - 1 : 1)));
      if (dice < 75 || n < 2) {
        Flush();
      } else if (dice < 83) {
        ScanMerge(&p, n - survivors, /*interior=*/false);
      } else if (dice < 90) {
        ScanMerge(&p, n - survivors, /*interior=*/true);
      } else if (dice < 95) {
        Merge(&p, n - survivors);
      } else {
        Split(&p);
      }
      ASSERT_NO_FATAL_FAILURE(VerifyRebuild());
    }
  }

  /// Most overflow entries a live index held at any check.
  uint64_t MaxOverflow() const { return max_overflow_; }
  /// Scan-merges that left snapshot references on both sides of their run.
  int InteriorScanMerges() const { return interior_scan_merges_; }
  /// References both children of a split kept with keys on both sides.
  int SharedAtSplit() const { return shared_at_split_; }

 private:
  static constexpr uint32_t kKeys = 5000;

  using Table = std::vector<uint32_t>;  // Sorted, distinct keys.
  struct Ref {
    size_t table = 0;
    size_t begin = 0, end = 0;  // The slice of the table's keys.
  };
  struct Partition {
    uint32_t lo = 0, hi = 0;  // The key range [lo, hi).
    std::vector<Ref> refs;    // Oldest first, like PartitionState.
    std::unique_ptr<HashIndex> live;
    size_t flushes_since_job = 0;
  };

  std::unique_ptr<HashIndex> NewIndex() const {
    return std::make_unique<HashIndex>(expected_, num_hashes_);
  }

  void Insert(HashIndex* index, const Ref& r, size_t pos) const {
    for (size_t i = r.begin; i < r.end; i++) {
      index->Insert(H(FuzzKey(tables_[r.table][i])), pos);
    }
  }

  // The new table `keys` and a reference to all of it.
  Ref AddTable(const std::set<uint32_t>& keys) {
    tables_.emplace_back(keys.begin(), keys.end());
    return Ref{tables_.size() - 1, 0, keys.size()};
  }

  void Flush() {
    std::set<uint32_t> keys;
    const uint32_t n = 1 + rnd_.Uniform(400);
    for (uint32_t i = 0; i < n; i++) keys.insert(rnd_.Uniform(kKeys));
    const Ref whole = AddTable(keys);
    const Table& t = tables_[whole.table];
    for (Partition& p : parts_) {
      Ref r = whole;
      r.begin = std::lower_bound(t.begin(), t.end(), p.lo) - t.begin();
      r.end = std::lower_bound(t.begin(), t.end(), p.hi) - t.begin();
      if (r.begin == r.end) continue;  // The table misses the partition.
      Insert(p.live.get(), r, p.refs.size());
      p.refs.push_back(r);
      p.flushes_since_job++;
    }
  }

  // Consumes the whole snapshot (the first `snapshot` references), or
  // with `interior` a run of at least two that is neither its oldest nor
  // its newest reference.
  void ScanMerge(Partition* p, size_t snapshot, bool interior) {
    size_t lo = 0, hi = snapshot;  // The run: positions [lo, hi).
    if (interior && snapshot >= 4) {
      lo = 1 + rnd_.Uniform(static_cast<int>(snapshot - 3));
      hi = lo + 2 + rnd_.Uniform(static_cast<int>(snapshot - 2 - lo));
      interior_scan_merges_++;
    }
    // The run's keys, read clamped to the partition's range.
    std::set<uint32_t> keys;
    for (size_t i = lo; i < hi; i++) {
      const Ref& r = p->refs[i];
      for (size_t k = r.begin; k < r.end; k++) {
        const uint32_t key = tables_[r.table][k];
        if (key >= p->lo && key < p->hi) keys.insert(key);
      }
    }
    std::vector<Ref> out;
    if (!keys.empty()) out.push_back(AddTable(keys));
    const size_t shift = hi - lo - out.size();
    p->live = NewIndex();
    for (size_t i = 0; i < lo; i++) Insert(p->live.get(), p->refs[i], i);
    for (const Ref& r : out) Insert(p->live.get(), r, lo);
    for (size_t i = hi; i < p->refs.size(); i++) {
      Insert(p->live.get(), p->refs[i], i - shift);
    }
    p->refs.erase(p->refs.begin() + lo, p->refs.begin() + hi);
    p->refs.insert(p->refs.begin() + lo, out.begin(), out.end());
    p->flushes_since_job = 0;
  }

  void Merge(Partition* p, size_t consumed) {
    p->live = NewIndex();
    p->refs.erase(p->refs.begin(), p->refs.begin() + consumed);
    for (size_t i = 0; i < p->refs.size(); i++) {
      Insert(p->live.get(), p->refs[i], i);
    }
    p->flushes_since_job = 0;
  }

  void Split(Partition* p) {
    if (p->hi - p->lo < 2 || parts_.size() >= 8) return;
    const uint32_t boundary = p->lo + 1 + rnd_.Uniform(p->hi - p->lo - 1);
    for (const Ref& r : p->refs) {
      const Table& t = tables_[r.table];
      if (t[r.begin] < boundary && t[r.end - 1] >= boundary) {
        shared_at_split_++;
      }
    }
    Partition right{boundary, p->hi, p->refs, p->live->Clone(),
                    p->flushes_since_job};
    p->hi = boundary;
    parts_.push_back(std::move(right));  // May move *p: used no further.
  }

  void VerifyRebuild() {
    for (const Partition& p : parts_) {
      std::unique_ptr<HashIndex> rebuilt = NewIndex();
      for (size_t i = 0; i < p.refs.size(); i++) {
        Insert(rebuilt.get(), p.refs[i], i);
      }
      max_overflow_ = std::max(max_overflow_, p.live->NumOverflowEntries());
      ASSERT_EQ(p.live->NumEntries(), rebuilt->NumEntries());
      // A read probes the index of the partition whose range holds its
      // key.
      for (uint32_t k = p.lo; k < p.hi; k++) {
        std::vector<uint16_t> live, again;
        p.live->Lookup(H(FuzzKey(k)), &live);
        rebuilt->Lookup(H(FuzzKey(k)), &again);
        ASSERT_EQ(live, again) << FuzzKey(k);
      }
    }
  }

  Random rnd_;
  const size_t expected_;
  const int num_hashes_;
  std::vector<Table> tables_;
  std::vector<Partition> parts_;
  uint64_t max_overflow_ = 0;
  int interior_scan_merges_ = 0;
  int shared_at_split_ = 0;
};

TEST(HashIndexFuzzTest, RebuildFromTableHashesEqualsLive) {
  RebuildFuzz fuzz(/*seed=*/771, /*expected=*/16384, /*num_hashes=*/2);
  fuzz.Run(300);
  EXPECT_GT(fuzz.InteriorScanMerges(), 0);
  EXPECT_GT(fuzz.SharedAtSplit(), 0);
}

TEST(HashIndexFuzzTest, RebuildEqualsLiveThroughOverflowChains) {
  RebuildFuzz fuzz(/*seed=*/772, /*expected=*/64, /*num_hashes=*/3);
  fuzz.Run(300);
  EXPECT_GT(fuzz.MaxOverflow(), 0u);
  EXPECT_GT(fuzz.InteriorScanMerges(), 0);
  EXPECT_GT(fuzz.SharedAtSplit(), 0);
}

}  // namespace
}  // namespace unikv
