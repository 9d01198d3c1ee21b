// Tests for the baseline engines: the LevelDB-style leveled LSM, the
// tiered LSM, and the SkimpyStash-style hash-log store. Each is checked
// against an in-memory model under the same mixed workload.

#include "baseline/baselines.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "test_util.h"
#include "util/env.h"
#include "util/perf_context.h"
#include "util/random.h"

namespace unikv {
namespace baseline {
namespace {

Options SmallOptions() {
  Options opt;
  opt.write_buffer_size = 32 * 1024;
  opt.sorted_table_size = 32 * 1024;
  opt.max_bytes_for_level_base = 128 * 1024;
  opt.l0_compaction_trigger = 3;
  opt.tiered_runs_per_level = 3;
  return opt;
}

using OpenFn = Status (*)(const Options&, const std::string&, DB**);

class LsmBaselineTest : public testing::TestWithParam<int> {
 protected:
  OpenFn Opener() const {
    return GetParam() == 0 ? &OpenLeveledDB : &OpenTieredDB;
  }
  std::string Name() const {
    return GetParam() == 0 ? "leveled" : "tiered";
  }
};

TEST_P(LsmBaselineTest, PutGetDeleteAcrossCompactions) {
  Options opt = SmallOptions();
  std::string dir = test::NewTestDir("baseline_" + Name());
  DB* raw = nullptr;
  ASSERT_TRUE(Opener()(opt, dir, &raw).ok());
  std::unique_ptr<DB> db(raw);

  std::map<std::string, std::string> model;
  Random rnd(42 + GetParam());
  for (int i = 0; i < 4000; i++) {
    std::string key = test::TestKey(rnd.Uniform(600));
    if (rnd.OneIn(5)) {
      model.erase(key);
      ASSERT_TRUE(db->Delete(WriteOptions(), key).ok());
    } else {
      std::string value = test::TestValue(i, 64 + rnd.Uniform(128));
      model[key] = value;
      ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
    }
  }
  ASSERT_TRUE(db->FlushMemTable().ok());

  for (int i = 0; i < 600; i++) {
    std::string key = test::TestKey(i);
    std::string value;
    Status s = db->Get(ReadOptions(), key, &value);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_TRUE(s.IsNotFound()) << key;
    } else {
      ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
      EXPECT_EQ(it->second, value) << key;
    }
  }

  // Iterator yields exactly the model, in order.
  std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));
  auto mit = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++mit) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(mit->first, iter->key().ToString());
    EXPECT_EQ(mit->second, iter->value().ToString());
  }
  EXPECT_EQ(mit, model.end());
  iter.reset();

  // Reopen and spot check durability.
  db.reset();
  ASSERT_TRUE(Opener()(opt, dir, &raw).ok());
  db.reset(raw);
  for (int i = 0; i < 600; i += 7) {
    std::string key = test::TestKey(i);
    std::string value;
    Status s = db->Get(ReadOptions(), key, &value);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_TRUE(s.IsNotFound()) << key;
    } else {
      ASSERT_TRUE(s.ok()) << key;
      EXPECT_EQ(it->second, value) << key;
    }
  }
}

TEST_P(LsmBaselineTest, CompactAllConsolidates) {
  Options opt = SmallOptions();
  std::string dir = test::NewTestDir("baseline_compactall_" + Name());
  DB* raw = nullptr;
  ASSERT_TRUE(Opener()(opt, dir, &raw).ok());
  std::unique_ptr<DB> db(raw);
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(
        db->Put(WriteOptions(), test::TestKey(i), test::TestValue(i)).ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());
  std::string v;
  ASSERT_TRUE(db->GetProperty("db.sstables", &v));
  for (int i = 0; i < 2000; i += 13) {
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), test::TestKey(i), &value).ok()) << i;
    EXPECT_EQ(test::TestValue(i), value);
  }
}

TEST_P(LsmBaselineTest, StatsExposed) {
  Options opt = SmallOptions();
  std::string dir = test::NewTestDir("baseline_stats_" + Name());
  DB* raw = nullptr;
  ASSERT_TRUE(Opener()(opt, dir, &raw).ok());
  std::unique_ptr<DB> db(raw);
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(
        db->Put(WriteOptions(), test::TestKey(i), test::TestValue(i)).ok());
  }
  std::string v;
  EXPECT_TRUE(db->GetProperty("db.stats", &v));
  EXPECT_NE(v.find("compactions="), std::string::npos);
  EXPECT_TRUE(db->GetProperty("db.num-files", &v));
  EXPECT_GT(std::stoi(v), 0);
}

// ReadOptions::snapshot hides later writes from Get and iterators alike
// (every version still sits in the memtable here); a snapshot above the
// last sequence is clamped to it.
TEST_P(LsmBaselineTest, SnapshotReadsSeeTheOlderVersion) {
  DB* raw = nullptr;
  ASSERT_TRUE(Opener()(SmallOptions(),
                       test::NewTestDir("baseline_snapshot_" + Name()), &raw)
                  .ok());
  std::unique_ptr<DB> db(raw);
  ASSERT_TRUE(db->Put(WriteOptions(), "a", "old").ok());
  std::string seq, value;
  ASSERT_TRUE(db->GetProperty("db.visible-sequence", &seq));
  ReadOptions snap, future;
  snap.snapshot = std::stoull(seq);
  future.snapshot = snap.snapshot + 1000;
  ASSERT_TRUE(db->Put(WriteOptions(), "a", "new").ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "b", "later").ok());

  ASSERT_TRUE(db->Get(snap, "a", &value).ok());
  EXPECT_EQ("old", value);
  EXPECT_TRUE(db->Get(snap, "b", &value).IsNotFound());
  std::unique_ptr<Iterator> it(db->NewIterator(snap));
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("old", it->value().ToString());
  it->Next();
  EXPECT_FALSE(it->Valid());
  ASSERT_TRUE(db->Get(future, "a", &value).ok());
  EXPECT_EQ("new", value);
}

// ReadOptions::fill_cache = false keeps the data blocks a scan or Get
// reads out of the block cache, so repeating it misses again; a default
// read caches them, and later reads of either kind hit.
TEST_P(LsmBaselineTest, FillCacheFalseLeavesTheBlockCacheAlone) {
  DB* raw = nullptr;
  ASSERT_TRUE(Opener()(SmallOptions(),
                       test::NewTestDir("baseline_fill_cache_" + Name()),
                       &raw)
                  .ok());
  std::unique_ptr<DB> db(raw);
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(
        db->Put(WriteOptions(), test::TestKey(i), test::TestValue(i)).ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());
  ReadOptions no_fill;
  no_fill.fill_cache = false;
  using Delta = std::pair<uint64_t, uint64_t>;  // Block cache misses, hits.
  auto read = [&](const ReadOptions& ro, bool scan) {
    const PerfContext before = *GetPerfContext();
    std::string value;
    if (scan) {
      std::unique_ptr<Iterator> it(db->NewIterator(ro));
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
      }
    } else {
      EXPECT_TRUE(db->Get(ro, test::TestKey(7), &value).ok());
    }
    const PerfContext d = GetPerfContext()->DeltaSince(before);
    return Delta(d.block_cache_misses, d.block_cache_hits);
  };
  const Delta cold = read(no_fill, true);
  EXPECT_GT(cold.first, 0u);
  EXPECT_EQ(0u, cold.second);
  EXPECT_EQ(cold, read(no_fill, true));
  EXPECT_EQ(Delta(1, 0), read(no_fill, false));
  EXPECT_EQ(cold, read(ReadOptions(), true));
  EXPECT_EQ(Delta(0, cold.first), read(no_fill, true));
  EXPECT_EQ(Delta(0, 1), read(no_fill, false));
}

// An Env whose directory listing fails, as a flaky disk's would.
// InstrumentedEnv already forwards everything else to the base Env.
class FailingListEnv : public InstrumentedEnv {
 public:
  explicit FailingListEnv(Env* base) : InstrumentedEnv(base) {}
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    result->clear();
    return Status::IOError(dir, "injected listing failure");
  }
};

// Regression: Recover() ignored the GetChildren status, so a listing
// failure looked like an empty directory and recovery silently skipped
// every WAL — acknowledged writes vanished without any error. Open must
// surface the listing failure instead.
TEST_P(LsmBaselineTest, OpenFailsWhenDirListingFails) {
  Options opt = SmallOptions();
  std::string dir = test::NewTestDir("baseline_lsfail_" + Name());
  DB* raw = nullptr;
  ASSERT_TRUE(Opener()(opt, dir, &raw).ok());
  std::unique_ptr<DB> db(raw);
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(
        db->Put(WriteOptions(), test::TestKey(i), test::TestValue(i)).ok());
  }
  db.reset();  // WALs (and possibly tables) now on disk.

  FailingListEnv bad_env(Env::Default());
  Options bad = opt;
  bad.env = &bad_env;
  raw = nullptr;
  Status s = Opener()(bad, dir, &raw);
  EXPECT_FALSE(s.ok()) << "open must not silently skip WAL replay";
  EXPECT_EQ(raw, nullptr);

  // The data is still there once the listing works again.
  ASSERT_TRUE(Opener()(opt, dir, &raw).ok());
  db.reset(raw);
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), test::TestKey(7), &value).ok());
  EXPECT_EQ(test::TestValue(7), value);
}

INSTANTIATE_TEST_SUITE_P(BothStyles, LsmBaselineTest, testing::Range(0, 2));

TEST(HashLogDbTest, PutGetDelete) {
  Options opt;
  std::string dir = test::NewTestDir("hashlog");
  HashLogConfig config;
  config.num_buckets = 128;  // Small so chains form.
  DB* raw = nullptr;
  ASSERT_TRUE(OpenHashLogDB(opt, config, dir, &raw).ok());
  std::unique_ptr<DB> db(raw);

  std::map<std::string, std::string> model;
  Random rnd(7);
  for (int i = 0; i < 2000; i++) {
    std::string key = test::TestKey(rnd.Uniform(300));
    if (rnd.OneIn(6)) {
      model.erase(key);
      ASSERT_TRUE(db->Delete(WriteOptions(), key).ok());
    } else {
      std::string value = test::TestValue(i);
      model[key] = value;
      ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
    }
  }
  for (int i = 0; i < 300; i++) {
    std::string key = test::TestKey(i);
    std::string value;
    Status s = db->Get(ReadOptions(), key, &value);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_TRUE(s.IsNotFound()) << key;
    } else {
      ASSERT_TRUE(s.ok()) << key;
      EXPECT_EQ(it->second, value);
    }
  }

  // No ordered scans.
  std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));
  EXPECT_FALSE(iter->status().ok());
  iter.reset();

  // Recovery rebuilds the directory from the log.
  ASSERT_TRUE(db->FlushMemTable().ok());
  db.reset();
  ASSERT_TRUE(OpenHashLogDB(opt, config, dir, &raw).ok());
  db.reset(raw);
  for (int i = 0; i < 300; i += 5) {
    std::string key = test::TestKey(i);
    std::string value;
    Status s = db->Get(ReadOptions(), key, &value);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_TRUE(s.IsNotFound()) << key;
    } else {
      ASSERT_TRUE(s.ok()) << key << " " << s.ToString();
      EXPECT_EQ(it->second, value);
    }
  }
}

TEST(HashLogDbTest, ChainHopsGrowWithLoad) {
  Options opt;
  std::string dir = test::NewTestDir("hashlog_chains");
  HashLogConfig config;
  config.num_buckets = 16;
  DB* raw = nullptr;
  ASSERT_TRUE(OpenHashLogDB(opt, config, dir, &raw).ok());
  std::unique_ptr<DB> db(raw);
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(
        db->Put(WriteOptions(), test::TestKey(i), test::TestValue(i, 16))
            .ok());
  }
  std::string value;
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db->Get(ReadOptions(), test::TestKey(i), &value).ok());
  }
  std::string stats;
  ASSERT_TRUE(db->GetProperty("db.stats", &stats));
  // With 1000 keys over 16 buckets, average chain walk is large.
  EXPECT_NE(stats.find("chain_hops="), std::string::npos);
}

// Regression: chain_hops_ was a plain uint64_t bumped during the
// lock-free chain walk (a data race between concurrent readers), and
// GetProperty read records_/offset_ without the directory mutex. Both
// now go through atomics / a locked snapshot; this test runs the racing
// shape — concurrent readers, a writer, and a stats poller — so a
// sanitizer build flags any regression, and asserts the stats snapshot
// stays coherent (records= only ever grows: appends never remove
// records, so a torn or unlocked read shows up as a backwards step).
TEST(HashLogDbTest, ConcurrentGetsAndStatsSnapshot) {
  Options opt;
  std::string dir = test::NewTestDir("hashlog_race");
  HashLogConfig config;
  config.num_buckets = 16;  // Long chains: readers hop while racing.
  DB* raw = nullptr;
  ASSERT_TRUE(OpenHashLogDB(opt, config, dir, &raw).ok());
  std::unique_ptr<DB> db(raw);
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(
        db->Put(WriteOptions(), test::TestKey(i), test::TestValue(i, 16))
            .ok());
  }

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    for (int i = 200; i < 1200 && failures.load() == 0; i++) {
      if (!db->Put(WriteOptions(), test::TestKey(i), test::TestValue(i, 16))
               .ok()) {
        failures.fetch_add(1);
      }
    }
    done.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; t++) {
    readers.emplace_back([&] {
      std::string value;
      while (!done.load(std::memory_order_acquire)) {
        for (int i = 0; i < 200; i++) {
          if (!db->Get(ReadOptions(), test::TestKey(i), &value).ok()) {
            failures.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  uint64_t last_records = 0;
  while (!done.load(std::memory_order_acquire)) {
    std::string stats;
    ASSERT_TRUE(db->GetProperty("db.stats", &stats));
    const size_t pos = stats.find("records=");
    ASSERT_NE(pos, std::string::npos) << stats;
    const uint64_t records =
        std::strtoull(stats.c_str() + pos + 8, nullptr, 10);
    EXPECT_GE(records, last_records) << stats;
    last_records = records;
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(0, failures.load());
  EXPECT_GE(last_records, 200u);
}

}  // namespace
}  // namespace baseline
}  // namespace unikv
