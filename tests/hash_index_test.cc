// Tests for UniKV's two-level hash index: insert/lookup semantics,
// newest-first candidate ordering, overflow chains, memory accounting,
// and checkpoint round-trips.

#include "index/hash_index.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "util/coding.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace unikv {
namespace {

std::string K(int i) { return "key" + std::to_string(i); }

TEST(HashIndex, EmptyLookup) {
  HashIndex index(100);
  std::vector<uint16_t> candidates;
  index.Lookup("missing", &candidates);
  EXPECT_TRUE(candidates.empty());
  EXPECT_EQ(0u, index.NumEntries());
}

TEST(HashIndex, InsertedKeysAreFound) {
  HashIndex index(1000);
  for (int i = 0; i < 500; i++) {
    index.Insert(K(i), static_cast<uint16_t>(i % 7));
  }
  EXPECT_EQ(500u, index.NumEntries());
  for (int i = 0; i < 500; i++) {
    std::vector<uint16_t> candidates;
    index.Lookup(K(i), &candidates);
    // The true table id must be among the candidates.
    EXPECT_NE(std::find(candidates.begin(), candidates.end(),
                        static_cast<uint16_t>(i % 7)),
              candidates.end())
        << K(i);
  }
}

TEST(HashIndex, DuplicateKeyNewestWinsByTableIdOrder) {
  // Re-inserting the same key with increasing table ids must keep every
  // version reachable; resolving by max table id (as the read path does)
  // picks the newest.
  HashIndex index(64);
  for (uint16_t round = 0; round < 20; round++) {
    index.Insert("hot-key", round);
  }
  std::vector<uint16_t> candidates;
  index.Lookup("hot-key", &candidates);
  ASSERT_FALSE(candidates.empty());
  uint16_t max_id = 0;
  for (uint16_t id : candidates) max_id = std::max(max_id, id);
  EXPECT_EQ(19, max_id);
  // Newest-first property: the first matching candidate is the newest.
  EXPECT_EQ(19, candidates.front());
}

TEST(HashIndex, OverflowChainsFormUnderPressure) {
  // Far more keys than buckets force overflow entries.
  HashIndex index(10);  // ~12 buckets.
  for (int i = 0; i < 500; i++) {
    index.Insert(K(i), static_cast<uint16_t>(i % 3));
  }
  EXPECT_GT(index.NumOverflowEntries(), 0u);
  // Everything must remain findable.
  for (int i = 0; i < 500; i++) {
    std::vector<uint16_t> candidates;
    index.Lookup(K(i), &candidates);
    EXPECT_NE(std::find(candidates.begin(), candidates.end(),
                        static_cast<uint16_t>(i % 3)),
              candidates.end());
  }
}

TEST(HashIndex, ClearRemovesEverything) {
  HashIndex index(100);
  for (int i = 0; i < 200; i++) {
    index.Insert(K(i), 1);
  }
  index.Clear();
  EXPECT_EQ(0u, index.NumEntries());
  EXPECT_EQ(0u, index.NumOverflowEntries());
  for (int i = 0; i < 200; i++) {
    std::vector<uint16_t> candidates;
    index.Lookup(K(i), &candidates);
    EXPECT_TRUE(candidates.empty());
  }
  // Reusable after clear.
  index.Insert(K(1), 9);
  std::vector<uint16_t> candidates;
  index.Lookup(K(1), &candidates);
  EXPECT_FALSE(candidates.empty());
}

TEST(HashIndex, MemoryMatchesPaperBudget) {
  // Paper: 8 bytes per entry; for ~1M 1KiB KVs per GiB of UnsortedStore
  // the index stays under ~1% of the data size at 80% utilization.
  const size_t n = 100000;
  HashIndex index(n);
  for (size_t i = 0; i < n; i++) {
    index.Insert(K(static_cast<int>(i)), static_cast<uint16_t>(i & 0xff));
  }
  double bytes_per_entry = static_cast<double>(index.MemoryUsage()) / n;
  // 8B/entry + bucket-array headroom for the 1/0.8 sizing.
  EXPECT_LT(bytes_per_entry, 16.0);
  EXPECT_GT(index.InlineUtilization(), 0.5);
}

TEST(HashIndex, CheckpointRoundTrip) {
  HashIndex index(200);
  for (int i = 0; i < 300; i++) {  // Forces overflow entries too.
    index.Insert(K(i), static_cast<uint16_t>(i % 11));
  }
  std::string image;
  index.EncodeTo(&image);

  HashIndex restored(1);  // Wrong initial sizing: DecodeFrom must fix it.
  ASSERT_TRUE(restored.DecodeFrom(Slice(image)).ok());
  EXPECT_EQ(index.NumEntries(), restored.NumEntries());
  EXPECT_EQ(index.NumBuckets(), restored.NumBuckets());
  for (int i = 0; i < 300; i++) {
    std::vector<uint16_t> a, b;
    index.Lookup(K(i), &a);
    restored.Lookup(K(i), &b);
    EXPECT_EQ(a, b) << K(i);
  }
}

TEST(HashIndex, CheckpointCorruptionRejected) {
  HashIndex index(10);
  index.Insert("k", 1);
  std::string image;
  index.EncodeTo(&image);

  HashIndex restored(1);
  EXPECT_FALSE(restored.DecodeFrom(Slice("garbage")).ok());
  EXPECT_FALSE(
      restored.DecodeFrom(Slice(image.data(), image.size() / 2)).ok());
  std::string bad_magic = image;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(restored.DecodeFrom(Slice(bad_magic)).ok());

  // The header is magic(4) and four one-byte varints here (2, 28, 0, 1),
  // so bucket 0 starts at byte 8: tag|table(4B) then overflow_head(4B).
  ASSERT_EQ(index.NumBuckets(), 28u);
  std::string bad_bucket = image;
  bad_bucket[8] ^= 0x01;  // A table id the checksum no longer covers.
  EXPECT_TRUE(restored.DecodeFrom(Slice(bad_bucket)).IsCorruption());

  // An overflow head past the (empty) overflow pool, under a valid
  // checksum: Lookup would index out of range.
  std::string bad_head = image.substr(0, image.size() - 4);
  EncodeFixed32(&bad_head[12], 7);
  PutFixed32(&bad_head, crc32c::Mask(crc32c::Value(bad_head.data(),
                                                   bad_head.size())));
  EXPECT_TRUE(restored.DecodeFrom(Slice(bad_head)).IsCorruption());

  // The intact image still loads into the same object.
  ASSERT_TRUE(restored.DecodeFrom(Slice(image)).ok());
  std::vector<uint16_t> candidates;
  restored.Lookup("k", &candidates);
  EXPECT_EQ(std::vector<uint16_t>{1}, candidates);
}

// Property sweep: random workloads across hash-function counts must keep
// the "true table id among candidates, newest first by id" invariant.
class HashIndexPropertyTest : public testing::TestWithParam<int> {};

TEST_P(HashIndexPropertyTest, RandomizedAgainstModel) {
  const int num_hashes = GetParam();
  Random rnd(1234 + num_hashes);
  HashIndex index(500, num_hashes);
  std::map<std::string, uint16_t> model;  // Key -> newest table id.

  uint16_t table_id = 0;
  for (int round = 0; round < 30; round++) {
    // Each round mimics one flushed table with a batch of keys.
    for (int j = 0; j < 100; j++) {
      std::string key = K(rnd.Uniform(800));
      if (model.count(key) && model[key] == table_id) continue;
      index.Insert(key, table_id);
      model[key] = table_id;
    }
    table_id++;
  }

  for (const auto& [key, newest] : model) {
    std::vector<uint16_t> candidates;
    index.Lookup(key, &candidates);
    ASSERT_FALSE(candidates.empty()) << key;
    uint16_t max_id = 0;
    for (uint16_t id : candidates) max_id = std::max(max_id, id);
    // Resolving by max table id yields the newest version.
    EXPECT_EQ(newest, max_id) << key;
  }
}

INSTANTIATE_TEST_SUITE_P(HashFunctionCounts, HashIndexPropertyTest,
                         testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace unikv
