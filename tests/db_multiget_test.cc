// Batched read path (DB::MultiGet, DESIGN.md §11): differential checks
// against looped Get and a golden map across shards, partitions, and
// inline-vs-separated values; per-key NotFound statuses; snapshot
// consistency under concurrent writers (one pinned sequence per batch);
// and on-disk value-log corruption surfacing in the right per-key Status.
// A TSan-instrumented twin of this binary runs in tier-1 ctest.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/db.h"
#include "mem/write_batch.h"
#include "test_util.h"
#include "util/random.h"

namespace unikv {
namespace {

Options SmallOptions() {
  Options opt;
  opt.write_buffer_size = 32 * 1024;
  opt.unsorted_limit = 128 * 1024;
  opt.partition_size_limit = 4 * 1024 * 1024;
  opt.sorted_table_size = 64 * 1024;
  return opt;
}

class DbMultiGetTest : public testing::Test {
 protected:
  void OpenDb(const Options& opt, const std::string& suffix = "") {
    dir_ = test::NewTestDir("db_multiget_test" + suffix);
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(opt, dir_, &raw).ok());
    db_.reset(raw);
  }

  // Loads a store whose keys span every resolution tier the read path
  // has: SortedStore with separated values (+ value logs), SortedStore
  // inline values, UnsortedStore tables, live memtables, deletions, and
  // overwritten generations. `golden_` tracks the expected live state.
  void LoadTieredStore() {
    // Tier 1: separated (256B > threshold) and inline (32B) values, merged
    // into the SortedStore by CompactAll.
    for (int i = 0; i < 1000; i++) {
      const size_t vsize = (i % 4 == 0) ? 32 : 256;
      Put(i, 0, vsize);
    }
    ASSERT_TRUE(db_->CompactAll().ok());
    // Tier 2: overwrites/deletes flushed into UnsortedStore tables.
    for (int i = 500; i < 1500; i++) {
      if (i % 3 == 0) {
        Delete(i);
      } else {
        Put(i, 1, (i % 2 == 0) ? 48 : 200);
      }
    }
    ASSERT_TRUE(db_->FlushMemTable().ok());
    // Tier 3: the freshest generation stays in the shard memtables.
    for (int i = 1200; i < 1700; i++) {
      Put(i, 2, 100);
    }
  }

  void Put(int i, int gen, size_t vsize) {
    const std::string key = test::TestKey(i);
    const std::string value =
        test::TestValue(static_cast<uint64_t>(i) * 17 + gen, vsize);
    ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
    golden_[key] = value;
  }

  void Delete(int i) {
    const std::string key = test::TestKey(i);
    ASSERT_TRUE(db_->Delete(WriteOptions(), key).ok());
    golden_.erase(key);
  }

  // MultiGet over `ids` must agree key-by-key with both looped Get and
  // the golden map (values for present keys, NotFound for absent ones).
  void CheckBatch(const std::vector<int>& ids) {
    std::vector<std::string> key_bufs;
    key_bufs.reserve(ids.size());
    for (int id : ids) key_bufs.push_back(test::TestKey(id));
    std::vector<Slice> keys(key_bufs.begin(), key_bufs.end());

    std::vector<std::string> values;
    std::vector<Status> statuses;
    ASSERT_TRUE(db_->MultiGet(ReadOptions(), keys, &values, &statuses).ok());
    ASSERT_EQ(values.size(), keys.size());
    ASSERT_EQ(statuses.size(), keys.size());

    for (size_t i = 0; i < keys.size(); i++) {
      auto it = golden_.find(key_bufs[i]);
      std::string got;
      Status gs = db_->Get(ReadOptions(), keys[i], &got);
      if (it == golden_.end()) {
        EXPECT_TRUE(statuses[i].IsNotFound()) << key_bufs[i];
        EXPECT_TRUE(gs.IsNotFound()) << key_bufs[i];
      } else {
        ASSERT_TRUE(statuses[i].ok())
            << key_bufs[i] << ": " << statuses[i].ToString();
        EXPECT_EQ(values[i], it->second) << key_bufs[i];
        ASSERT_TRUE(gs.ok()) << key_bufs[i];
        EXPECT_EQ(values[i], got) << key_bufs[i];
      }
    }
  }

  std::string dir_;
  std::unique_ptr<DB> db_;
  std::map<std::string, std::string> golden_;
};

TEST_F(DbMultiGetTest, DifferentialAcrossTiersAndBatchSizes) {
  Options opt = SmallOptions();
  opt.write_shards = 4;
  OpenDb(opt);
  LoadTieredStore();

  // Shuffled ids spanning every tier plus absent ranges, with duplicates
  // (a zipfian batch repeats hot keys; duplicates must overlap-merge in
  // the coalescer, not corrupt each other).
  Random rnd(20260808);
  std::vector<int> ids;
  for (int i = 0; i < 1900; i++) {
    ids.push_back(i);
    if (rnd.Uniform(8) == 0) ids.push_back(i);  // Duplicate.
  }
  for (size_t i = ids.size(); i > 1; i--) {
    std::swap(ids[i - 1], ids[rnd.Uniform(static_cast<uint32_t>(i))]);
  }

  for (size_t batch : {size_t{1}, size_t{7}, size_t{64}, size_t{333}}) {
    for (size_t base = 0; base < ids.size(); base += batch) {
      const size_t end = std::min(base + batch, ids.size());
      CheckBatch(std::vector<int>(ids.begin() + base, ids.begin() + end));
    }
  }
}

TEST_F(DbMultiGetTest, PerKeyNotFoundAndEmptyBatch) {
  OpenDb(SmallOptions(), "_nf");
  for (int i = 0; i < 100; i++) Put(i, 0, 256);
  ASSERT_TRUE(db_->CompactAll().ok());
  Delete(50);

  std::vector<std::string> key_bufs = {
      test::TestKey(10), test::TestKey(5000),  // Never written.
      test::TestKey(50),                       // Deleted.
      test::TestKey(99)};
  std::vector<Slice> keys(key_bufs.begin(), key_bufs.end());
  std::vector<std::string> values;
  std::vector<Status> statuses;
  // Absent keys are per-key NotFound, not a batch error.
  ASSERT_TRUE(db_->MultiGet(ReadOptions(), keys, &values, &statuses).ok());
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_TRUE(statuses[1].IsNotFound());
  EXPECT_TRUE(statuses[2].IsNotFound());
  EXPECT_TRUE(statuses[3].ok());
  EXPECT_EQ(values[0], golden_[key_bufs[0]]);
  EXPECT_EQ(values[3], golden_[key_bufs[3]]);

  ASSERT_TRUE(db_->MultiGet(ReadOptions(), {}, &values, &statuses).ok());
  EXPECT_TRUE(values.empty());
  EXPECT_TRUE(statuses.empty());
}

TEST_F(DbMultiGetTest, MultiPartitionBatchesStayCorrect) {
  // Force several partitions so each batch's keys fall into several
  // partition runs, each probed with its own pinned table handles.
  Options opt = SmallOptions();
  opt.partition_size_limit = 256 * 1024;
  opt.write_shards = 4;
  OpenDb(opt, "_par");
  for (int i = 0; i < 3000; i++) Put(i, 0, 256);
  ASSERT_TRUE(db_->CompactAll().ok());
  std::string num_parts;
  ASSERT_TRUE(db_->GetProperty("db.num-partitions", &num_parts));
  EXPECT_GT(std::stoi(num_parts), 1) << "split thresholds changed?";

  Random rnd(7);
  std::vector<int> ids;
  for (int i = 0; i < 3200; i++) ids.push_back(i);
  for (size_t i = ids.size(); i > 1; i--) {
    std::swap(ids[i - 1], ids[rnd.Uniform(static_cast<uint32_t>(i))]);
  }
  for (size_t base = 0; base < ids.size(); base += 256) {
    const size_t end = std::min(base + 256, ids.size());
    CheckBatch(std::vector<int>(ids.begin() + base, ids.begin() + end));
  }
}

TEST_F(DbMultiGetTest, SnapshotConsistencyUnderConcurrentWriters) {
  // Two keys updated atomically in one WriteBatch must never come back
  // torn from a MultiGet: the batch pins one visible sequence for every
  // key. (Looped Gets have no such guarantee — each takes its own
  // snapshot, and a write landing between them shows a torn pair.)
  Options opt = SmallOptions();
  opt.write_shards = 1;  // One shard: visible_seq_ moves batch-at-a-time.
  OpenDb(opt, "_snap");

  const std::string kx = test::TestKey(1), ky = test::TestKey(2);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; !stop.load(std::memory_order_relaxed); i++) {
      WriteBatch batch;
      const std::string v = test::TestValue(static_cast<uint64_t>(i), 64);
      batch.Put(kx, v);
      batch.Put(ky, v);
      ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
    }
  });

  // On a single core the reader can burn through its whole loop before
  // the writer thread is first scheduled; wait for the first batch to
  // become visible, and yield periodically so the two threads interleave.
  std::string v;
  while (!db_->Get(ReadOptions(), kx, &v).ok()) {
    Env::Default()->SleepForMicroseconds(1000);
  }

  std::vector<Slice> keys = {Slice(kx), Slice(ky)};
  std::vector<std::string> values;
  std::vector<Status> statuses;
  for (int iter = 0; iter < 3000; iter++) {
    ASSERT_TRUE(db_->MultiGet(ReadOptions(), keys, &values, &statuses).ok());
    ASSERT_TRUE(statuses[0].ok())
        << "batch saw one key of an atomic write but not the other";
    ASSERT_TRUE(statuses[1].ok())
        << "batch saw one key of an atomic write but not the other";
    EXPECT_EQ(values[0], values[1]) << "torn read of an atomic batch";
    if (iter % 64 == 0) Env::Default()->SleepForMicroseconds(100);
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST_F(DbMultiGetTest, CorruptVlogRecordSurfacesPerKeyStatus) {
  OpenDb(SmallOptions(), "_corrupt");
  for (int i = 0; i < 400; i++) Put(i, 0, 256);  // Separated values.
  ASSERT_TRUE(db_->CompactAll().ok());

  // Flip one byte every ~1500 bytes of every value log: a fraction of the
  // records fail their checksum, the rest stay intact.
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

  std::vector<std::string> key_bufs;
  for (int i = 0; i < 400; i++) key_bufs.push_back(test::TestKey(i));
  std::vector<Slice> keys(key_bufs.begin(), key_bufs.end());
  std::vector<std::string> values;
  std::vector<Status> statuses;
  Status batch_status = db_->MultiGet(ReadOptions(), keys, &values, &statuses);

  // Every per-key status must match what a point Get sees: Corruption for
  // records a flipped byte landed in, OK (with the right value) for the
  // rest. The batch-level status reports the first real error.
  int corrupt = 0, ok = 0;
  for (size_t i = 0; i < keys.size(); i++) {
    std::string got;
    Status gs = db_->Get(ReadOptions(), keys[i], &got);
    ASSERT_EQ(statuses[i].ok(), gs.ok()) << key_bufs[i];
    if (statuses[i].ok()) {
      EXPECT_EQ(values[i], got) << key_bufs[i];
      EXPECT_EQ(values[i], golden_[key_bufs[i]]) << key_bufs[i];
      ok++;
    } else {
      EXPECT_TRUE(statuses[i].IsCorruption()) << statuses[i].ToString();
      corrupt++;
    }
  }
  EXPECT_GT(corrupt, 0);
  EXPECT_GT(ok, 0);
  EXPECT_FALSE(batch_status.ok());
  EXPECT_TRUE(batch_status.IsCorruption());
}

}  // namespace
}  // namespace unikv
