// Edge cases and configuration-compatibility tests for the UniKV DB.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/db.h"
#include "test_util.h"
#include "util/env.h"

namespace unikv {
namespace {

Options SmallOptions() {
  Options opt;
  opt.write_buffer_size = 32 * 1024;
  opt.unsorted_limit = 128 * 1024;
  opt.partition_size_limit = 1024 * 1024;
  opt.sorted_table_size = 32 * 1024;
  return opt;
}

class DbEdgeTest : public testing::Test {
 protected:
  void Open(const Options& opt, const std::string& name) {
    opt_ = opt;
    dir_ = test::NewTestDir(name);
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

  Options opt_;
  std::string dir_;
  std::unique_ptr<DB> db_;
};

TEST_F(DbEdgeTest, EmptyKey) {
  Open(SmallOptions(), "edge_empty_key");
  ASSERT_TRUE(db_->Put(WriteOptions(), "", "empty-key-value").ok());
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), "", &value).ok());
  EXPECT_EQ("empty-key-value", value);
  ASSERT_TRUE(db_->CompactAll().ok());
  ASSERT_TRUE(db_->Get(ReadOptions(), "", &value).ok());
  EXPECT_EQ("empty-key-value", value);
  ASSERT_TRUE(db_->Delete(WriteOptions(), "").ok());
  EXPECT_TRUE(db_->Get(ReadOptions(), "", &value).IsNotFound());
}

TEST_F(DbEdgeTest, ScanEdgeCases) {
  Open(SmallOptions(), "edge_scan");
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i), "v").ok());
  }
  std::vector<std::pair<std::string, std::string>> out;

  // Count 0 returns nothing.
  ASSERT_TRUE(db_->Scan(ReadOptions(), test::TestKey(0), 0, &out).ok());
  EXPECT_TRUE(out.empty());

  // Start beyond the last key.
  ASSERT_TRUE(db_->Scan(ReadOptions(), "zzzz", 10, &out).ok());
  EXPECT_TRUE(out.empty());

  // Start at "" covers from the first key.
  ASSERT_TRUE(db_->Scan(ReadOptions(), "", 5, &out).ok());
  ASSERT_EQ(5u, out.size());
  EXPECT_EQ(test::TestKey(0), out[0].first);

  // Count exceeding the live set returns everything.
  ASSERT_TRUE(db_->Scan(ReadOptions(), "", 1000, &out).ok());
  EXPECT_EQ(50u, out.size());

  // Negative counts are an empty scan, not an error. Regression: the
  // optimized scan path once fed `count` straight into a reserve(), where
  // a negative int converts to a near-SIZE_MAX size_t.
  ASSERT_TRUE(db_->Scan(ReadOptions(), "", -1, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(db_->Scan(ReadOptions(), test::TestKey(0), -1000000, &out).ok());
  EXPECT_TRUE(out.empty());

  // A huge positive count must not pre-allocate for `count` entries.
  ASSERT_TRUE(
      db_->Scan(ReadOptions(), "", 2000000000, &out).ok());
  EXPECT_EQ(50u, out.size());
}

TEST_F(DbEdgeTest, ScanBoundsOnSeparatedValues) {
  // Same bounds but with values big enough to be separated into the value
  // logs, so the scan exercises its batched value fetch end to end.
  Options opt = SmallOptions();
  opt.value_separation_threshold = 32;
  Open(opt, "edge_scan_separated");
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), test::TestKey(i), test::TestValue(i, 256))
            .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());

  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(db_->Scan(ReadOptions(), "", -7, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(db_->Scan(ReadOptions(), "", 0, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(db_->Scan(ReadOptions(), "", 1000000000, &out).ok());
  ASSERT_EQ(200u, out.size());
  EXPECT_EQ(test::TestValue(0, 256), out[0].second);
  EXPECT_EQ(test::TestValue(199, 256), out[199].second);
}

TEST_F(DbEdgeTest, ScanReusesRowsWithoutLeakingThem) {
  // One vector through three scans: rows are written in place, so each
  // scan must overwrite every string it returns and drop the rows it does
  // not, whatever the previous scan left in them.
  Options opt = SmallOptions();
  opt.value_separation_threshold = 32;
  Open(opt, "edge_scan_reuse");
  for (int i = 0; i < 100; i++) {  // Separated values.
    ASSERT_TRUE(
        db_->Put(WriteOptions(), test::TestKey(i), test::TestValue(i, 256))
            .ok());
  }
  for (int i = 100; i < 110; i++) {  // Short inline values.
    ASSERT_TRUE(
        db_->Put(WriteOptions(), test::TestKey(i), "s" + std::to_string(i))
            .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());

  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(db_->Scan(ReadOptions(), "", 100, &out).ok());
  ASSERT_EQ(100u, out.size());
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(test::TestKey(i), out[i].first);
    EXPECT_EQ(test::TestValue(i, 256), out[i].second);
  }

  ASSERT_TRUE(db_->Scan(ReadOptions(), test::TestKey(100), 10, &out).ok());
  ASSERT_EQ(10u, out.size());
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(test::TestKey(100 + i), out[i].first);
    EXPECT_EQ("s" + std::to_string(100 + i), out[i].second);
  }
  // The short value went into the string that held a 256-byte one.
  EXPECT_GE(out[0].second.capacity(), 256u);

  // Corrupt the value logs as DbMultiGetTest's
  // CorruptVlogRecordSurfacesPerKeyStatus does: a scan over the separated
  // values meets a record that fails its checksum.
  db_.reset();
  std::vector<std::string> files;
  ASSERT_TRUE(Env::Default()->GetChildren(dir_, &files).ok());
  int corrupted_logs = 0;
  for (const std::string& f : files) {
    if (f.size() < 5 || f.substr(f.size() - 5) != ".vlog") continue;
    const std::string path = dir_ + "/" + f;
    std::FILE* fp = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(fp, nullptr);
    std::fseek(fp, 0, SEEK_END);
    const long size = std::ftell(fp);
    for (long off = 700; off < size; off += 1500) {
      std::fseek(fp, off, SEEK_SET);
      int c = std::fgetc(fp);
      std::fseek(fp, off, SEEK_SET);
      std::fputc(c ^ 0x5a, fp);
    }
    std::fclose(fp);
    corrupted_logs++;
  }
  ASSERT_GT(corrupted_logs, 0) << "expected separated values in .vlog files";
  Reopen(opt);

  Status s = db_->Scan(ReadOptions(), "", 100, &out);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_TRUE(out.empty());
}

TEST_F(DbEdgeTest, HugeWriteBatch) {
  Open(SmallOptions(), "edge_big_batch");
  WriteBatch batch;
  for (int i = 0; i < 5000; i++) {
    batch.Put(test::TestKey(i), test::TestValue(i, 64));
  }
  // One batch several times the memtable budget: must apply atomically.
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(4999), &value).ok());
  EXPECT_EQ(test::TestValue(4999, 64), value);
  ASSERT_TRUE(db_->CompactAll().ok());
  ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(0), &value).ok());
}

TEST_F(DbEdgeTest, KeysAtPartitionBoundaries) {
  Options opt = SmallOptions();
  opt.partition_size_limit = 384 * 1024;
  Open(opt, "edge_boundary");
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                         test::TestValue(i, 512))
                    .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  std::string parts;
  ASSERT_TRUE(db_->GetProperty("db.num-partitions", &parts));
  ASSERT_GT(std::stoi(parts), 1);

  // Overwrite and delete every 100th key, then verify routing still hits
  // the right partition for keys adjacent to any boundary.
  for (int i = 0; i < 2000; i += 100) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i), "boundary").ok());
    ASSERT_TRUE(db_->Delete(WriteOptions(), test::TestKey(i + 1)).ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  std::string value;
  for (int i = 0; i < 2000; i += 100) {
    ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(i), &value).ok()) << i;
    EXPECT_EQ("boundary", value);
    EXPECT_TRUE(
        db_->Get(ReadOptions(), test::TestKey(i + 1), &value).IsNotFound())
        << i;
  }
}

TEST_F(DbEdgeTest, ReopenWithDifferentSeparationSettings) {
  // Data written with KV separation on must stay readable when the store
  // is reopened with separation off (existing pointers still resolve),
  // and vice versa.
  Options on = SmallOptions();
  on.enable_kv_separation = true;
  on.value_separation_threshold = 0;
  Open(on, "edge_sep_switch");
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                         test::TestValue(i, 512))
                    .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());

  Options off = on;
  off.enable_kv_separation = false;
  Reopen(off);
  std::string value;
  for (int i = 0; i < 500; i += 17) {
    ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(i), &value).ok()) << i;
    EXPECT_EQ(test::TestValue(i, 512), value);
  }
  // New writes merge inline; everything still consistent afterwards.
  for (int i = 500; i < 700; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                         test::TestValue(i, 512))
                    .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  for (int i = 0; i < 700; i += 23) {
    ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(i), &value).ok()) << i;
    EXPECT_EQ(test::TestValue(i, 512), value);
  }
}

TEST_F(DbEdgeTest, ReopenWithDifferentLimits) {
  Options opt = SmallOptions();
  Open(opt, "edge_limits");
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                         test::TestValue(i, 256))
                    .ok());
  }
  Options bigger = opt;
  bigger.unsorted_limit = 16 * 1024 * 1024;
  bigger.write_buffer_size = 1024 * 1024;
  bigger.index_num_hashes = 4;
  Reopen(bigger);
  std::string value;
  for (int i = 0; i < 1000; i += 31) {
    ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(i), &value).ok()) << i;
    EXPECT_EQ(test::TestValue(i, 256), value);
  }
}

TEST_F(DbEdgeTest, ManySmallValuesStayInline) {
  Options opt = SmallOptions();
  opt.value_separation_threshold = 100;
  Open(opt, "edge_small_values");
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i), "tiny").ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(1500), &value).ok());
  EXPECT_EQ("tiny", value);
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(db_->Scan(ReadOptions(), test::TestKey(0), 3000, &out).ok());
  EXPECT_EQ(3000u, out.size());
}

TEST_F(DbEdgeTest, RepeatedOverwritesOfOneKey) {
  Open(SmallOptions(), "edge_hotkey");
  for (int i = 0; i < 5000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "the-one-key",
                         "version" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), "the-one-key", &value).ok());
  EXPECT_EQ("version4999", value);
  // Exactly one live key.
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  int n = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) n++;
  EXPECT_EQ(1, n);
}

}  // namespace
}  // namespace unikv
