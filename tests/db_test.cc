// End-to-end tests of the UniKV DB: basic operations, flush/merge cycles,
// overwrite/delete semantics, reopen durability, and configuration
// variants (ablation switches).

#include "core/db.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/unikv_db.h"
#include "test_util.h"
#include "util/random.h"

namespace unikv {
namespace {

Options SmallOptions() {
  Options opt;
  opt.write_buffer_size = 64 * 1024;
  opt.unsorted_limit = 256 * 1024;
  opt.partition_size_limit = 4 * 1024 * 1024;
  opt.sorted_table_size = 64 * 1024;
  opt.gc_garbage_threshold = 128 * 1024;
  opt.scan_merge_limit = 4;
  return opt;
}

class DbTest : public testing::Test {
 protected:
  void OpenDb(const Options& opt, const std::string& suffix = "") {
    dir_ = test::NewTestDir("db_test" + suffix);
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(opt, dir_, &raw).ok());
    db_.reset(raw);
  }

  void Reopen(const Options& opt) {
    db_.reset();
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(opt, dir_, &raw).ok());
    db_.reset(raw);
  }

  std::string Get(const std::string& key) {
    std::string value;
    Status s = db_->Get(ReadOptions(), key, &value);
    if (s.IsNotFound()) return "NOT_FOUND";
    if (!s.ok()) return "ERR: " + s.ToString();
    return value;
  }

  std::string dir_;
  std::unique_ptr<DB> db_;
};

TEST_F(DbTest, EmptyDb) {
  OpenDb(SmallOptions());
  EXPECT_EQ("NOT_FOUND", Get("missing"));
}

TEST_F(DbTest, PutGet) {
  OpenDb(SmallOptions());
  ASSERT_TRUE(db_->Put(WriteOptions(), "foo", "v1").ok());
  EXPECT_EQ("v1", Get("foo"));
  ASSERT_TRUE(db_->Put(WriteOptions(), "bar", "v2").ok());
  EXPECT_EQ("v2", Get("bar"));
  EXPECT_EQ("v1", Get("foo"));
}

TEST_F(DbTest, Overwrite) {
  OpenDb(SmallOptions());
  ASSERT_TRUE(db_->Put(WriteOptions(), "foo", "v1").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "foo", "v2").ok());
  EXPECT_EQ("v2", Get("foo"));
}

TEST_F(DbTest, DeleteBasic) {
  OpenDb(SmallOptions());
  ASSERT_TRUE(db_->Put(WriteOptions(), "foo", "v1").ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "foo").ok());
  EXPECT_EQ("NOT_FOUND", Get("foo"));
  // Deleting a missing key is fine.
  ASSERT_TRUE(db_->Delete(WriteOptions(), "nope").ok());
}

TEST_F(DbTest, WriteBatchAtomicity) {
  OpenDb(SmallOptions());
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Delete("a");
  batch.Put("c", "3");
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  EXPECT_EQ("NOT_FOUND", Get("a"));
  EXPECT_EQ("2", Get("b"));
  EXPECT_EQ("3", Get("c"));
}

TEST_F(DbTest, GetAfterFlush) {
  OpenDb(SmallOptions());
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), test::TestKey(i), test::TestValue(i)).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(test::TestValue(i), Get(test::TestKey(i))) << i;
  }
  EXPECT_EQ("NOT_FOUND", Get(test::TestKey(100)));
}

TEST_F(DbTest, GetAfterMerge) {
  OpenDb(SmallOptions());
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), test::TestKey(i), test::TestValue(i, 256))
            .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  std::string prop;
  ASSERT_TRUE(db_->GetProperty("db.sstables", &prop));
  for (int i = 0; i < 500; i++) {
    EXPECT_EQ(test::TestValue(i, 256), Get(test::TestKey(i))) << i << " " << prop;
  }
}

TEST_F(DbTest, OverwritesAcrossFlushes) {
  OpenDb(SmallOptions());
  for (int round = 0; round < 5; round++) {
    for (int i = 0; i < 200; i++) {
      ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                           "round" + std::to_string(round) + "-" +
                               std::to_string(i))
                      .ok());
    }
    ASSERT_TRUE(db_->FlushMemTable().ok());
  }
  for (int i = 0; i < 200; i++) {
    EXPECT_EQ("round4-" + std::to_string(i), Get(test::TestKey(i))) << i;
  }
}

TEST_F(DbTest, DeleteShadowsMergedData) {
  OpenDb(SmallOptions());
  ASSERT_TRUE(db_->Put(WriteOptions(), "doomed", "value").ok());
  ASSERT_TRUE(db_->CompactAll().ok());  // Pushes it into the SortedStore.
  ASSERT_TRUE(db_->Delete(WriteOptions(), "doomed").ok());
  EXPECT_EQ("NOT_FOUND", Get("doomed"));
  ASSERT_TRUE(db_->CompactAll().ok());  // Tombstone merges down and dies.
  EXPECT_EQ("NOT_FOUND", Get("doomed"));
}

TEST_F(DbTest, ReopenPreservesData) {
  Options opt = SmallOptions();
  OpenDb(opt);
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), test::TestKey(i), test::TestValue(i)).ok());
  }
  Reopen(opt);
  for (int i = 0; i < 300; i++) {
    EXPECT_EQ(test::TestValue(i), Get(test::TestKey(i))) << i;
  }
  // And again after compaction.
  ASSERT_TRUE(db_->CompactAll().ok());
  Reopen(opt);
  for (int i = 0; i < 300; i++) {
    EXPECT_EQ(test::TestValue(i), Get(test::TestKey(i))) << i;
  }
}

TEST_F(DbTest, LargeValues) {
  OpenDb(SmallOptions());
  std::string big1 = test::TestValue(1, 100 * 1024);
  std::string big2 = test::TestValue(2, 300 * 1024);
  ASSERT_TRUE(db_->Put(WriteOptions(), "big1", big1).ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "big2", big2).ok());
  EXPECT_EQ(big1, Get("big1"));
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_EQ(big1, Get("big1"));
  EXPECT_EQ(big2, Get("big2"));
}

TEST_F(DbTest, BinaryKeysAndValues) {
  OpenDb(SmallOptions());
  std::string key("\0\1\2\xff\xfe", 5);
  std::string value("\0\0\0", 3);
  ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_EQ(value, Get(key));
}

TEST_F(DbTest, EmptyValue) {
  OpenDb(SmallOptions());
  ASSERT_TRUE(db_->Put(WriteOptions(), "empty", "").ok());
  EXPECT_EQ("", Get("empty"));
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_EQ("", Get("empty"));
}

TEST_F(DbTest, SyncWrites) {
  OpenDb(SmallOptions());
  WriteOptions wo;
  wo.sync = true;
  ASSERT_TRUE(db_->Put(wo, "synced", "v").ok());
  EXPECT_EQ("v", Get("synced"));
}

TEST_F(DbTest, StatsProperties) {
  OpenDb(SmallOptions());
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), test::TestKey(i), test::TestValue(i, 256))
            .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  std::string v;
  EXPECT_TRUE(db_->GetProperty("db.num-partitions", &v));
  EXPECT_GE(std::stoi(v), 1);
  EXPECT_TRUE(db_->GetProperty("db.hash-index-bytes", &v));
  EXPECT_TRUE(db_->GetProperty("db.stats", &v));
  EXPECT_NE(v.find("merges="), std::string::npos);
  EXPECT_FALSE(db_->GetProperty("db.nonexistent", &v));
}

// The same workload must behave identically with each feature disabled
// (the ablation configurations trade performance, not correctness).
class DbAblationTest : public DbTest,
                       public testing::WithParamInterface<int> {};

TEST_P(DbAblationTest, CorrectUnderFeatureToggles) {
  Options opt = SmallOptions();
  switch (GetParam()) {
    case 0: opt.enable_hash_index = false; break;
    case 1: opt.enable_kv_separation = false; break;
    case 2: opt.enable_partitioning = false; break;
    case 3: opt.enable_scan_optimization = false; break;
    case 4: opt.index_num_hashes = 4; break;
  }
  OpenDb(opt, "_ablation" + std::to_string(GetParam()));

  std::map<std::string, std::string> model;
  Random rnd(301 + GetParam());
  for (int i = 0; i < 3000; i++) {
    std::string key = test::TestKey(rnd.Uniform(500));
    if (rnd.OneIn(4)) {
      model.erase(key);
      ASSERT_TRUE(db_->Delete(WriteOptions(), key).ok());
    } else {
      std::string value = test::TestValue(i, 64 + rnd.Uniform(256));
      model[key] = value;
      ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
    }
    if (i % 1000 == 999) {
      ASSERT_TRUE(db_->FlushMemTable().ok());
    }
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  for (int i = 0; i < 500; i++) {
    std::string key = test::TestKey(i);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_EQ("NOT_FOUND", Get(key)) << key;
    } else {
      EXPECT_EQ(it->second, Get(key)) << key;
    }
  }
  Reopen(opt);
  for (int i = 0; i < 500; i++) {
    std::string key = test::TestKey(i);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_EQ("NOT_FOUND", Get(key)) << key;
    } else {
      EXPECT_EQ(it->second, Get(key)) << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllToggles, DbAblationTest, testing::Range(0, 5));

TEST_F(DbTest, DestroyDb) {
  Options opt = SmallOptions();
  OpenDb(opt);
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "v").ok());
  db_.reset();
  ASSERT_TRUE(DestroyDB(opt, dir_).ok());
  EXPECT_FALSE(Env::Default()->FileExists(dir_ + "/CURRENT"));
}

TEST_F(DbTest, ErrorIfExists) {
  Options opt = SmallOptions();
  OpenDb(opt);
  db_.reset();
  opt.error_if_exists = true;
  DB* raw = nullptr;
  EXPECT_FALSE(DB::Open(opt, dir_, &raw).ok());
  EXPECT_EQ(raw, nullptr);
}

TEST_F(DbTest, MissingDbWithoutCreate) {
  Options opt = SmallOptions();
  opt.create_if_missing = false;
  DB* raw = nullptr;
  std::string dir = test::NewTestDir("db_test_missing");
  EXPECT_FALSE(DB::Open(opt, dir, &raw).ok());
}

TEST_F(DbTest, SecondOpenOnSameDirRefused) {
  OpenDb(SmallOptions(), "_lock");
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "v").ok());

  // A second instance on the live directory must be refused outright:
  // its obsolete-file sweep would delete tables the first instance still
  // serves. (Exactly this happened when two test binaries shared a
  // scratch directory.)
  DB* second = nullptr;
  Status s = DB::Open(SmallOptions(), dir_, &second);
  EXPECT_FALSE(s.ok()) << "second Open must fail while the first is live";
  EXPECT_EQ(second, nullptr);

  // The first instance is unharmed, and closing it releases the claim.
  EXPECT_EQ("v", Get("k"));
  db_.reset();
  ASSERT_TRUE(DB::Open(SmallOptions(), dir_, &second).ok());
  std::unique_ptr<DB> reopened(second);
  std::string value;
  EXPECT_TRUE(reopened->Get(ReadOptions(), "k", &value).ok());
  EXPECT_EQ("v", value);
}

// Background jobs read tables they are about to replace: a merge, a GC or
// a scan-merge must not insert their blocks into the block cache.
TEST_F(DbTest, BackgroundJobsDoNotFillTheBlockCache) {
  Options opt = SmallOptions();
  opt.block_cache_size = 64 << 20;  // Nothing is evicted.
  OpenDb(opt, "_cache_fill");
  auto* engine = static_cast<UniKVDB*>(db_.get());
  for (int round = 0; round < 2; round++) {
    for (int i = 0; i < 3000; i++) {
      ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                           test::TestValue(i + round, 200))
                      .ok());
    }
    ASSERT_TRUE(db_->FlushMemTable().ok());
  }
  // Warm the cache over both stores: the data blocks every Get touches.
  for (int i = 0; i < 3000; i += 3) {
    EXPECT_EQ(test::TestValue(i + 1, 200), Get(test::TestKey(i)));
  }
  const size_t warm = engine->TEST_block_cache_charge();
  EXPECT_GT(warm, 0u);
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_LE(engine->TEST_block_cache_charge(), warm);
  // The outputs are readable; reading them is what fills the cache.
  EXPECT_EQ(test::TestValue(1, 200), Get(test::TestKey(0)));
}

}  // namespace
}  // namespace unikv
