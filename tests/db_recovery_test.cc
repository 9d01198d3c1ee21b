// Crash-consistency tests using the in-memory Env's power-failure
// simulation: WAL replay, torn tails, manifest atomicity across
// merge/GC/split, hash-index checkpoint recovery, orphan sweeping.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/db.h"
#include "test_util.h"
#include "util/coding.h"
#include "util/random.h"

namespace unikv {
namespace {

Options CrashOptions(Env* env) {
  Options opt;
  opt.env = env;
  opt.write_buffer_size = 32 * 1024;
  opt.unsorted_limit = 128 * 1024;
  opt.partition_size_limit = 512 * 1024;
  opt.sorted_table_size = 32 * 1024;
  opt.gc_garbage_threshold = 64 * 1024;
  return opt;
}

class DbRecoveryTest : public testing::Test {
 protected:
  DbRecoveryTest() : env_(NewMemEnv()) {}

  void Open() {
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(CrashOptions(env_.get()), "/db", &raw).ok());
    db_.reset(raw);
  }

  /// Simulates a hard crash: drop the DB object (without clean shutdown
  /// semantics mattering — unsynced bytes vanish first) and reopen.
  void Crash() {
    db_.reset();
    env_->DropUnsyncedData();
    Open();
  }

  std::string Get(const std::string& key) {
    std::string value;
    Status s = db_->Get(ReadOptions(), key, &value);
    if (s.IsNotFound()) return "NOT_FOUND";
    if (!s.ok()) return "ERR: " + s.ToString();
    return value;
  }

  std::unique_ptr<MemEnv> env_;
  std::unique_ptr<DB> db_;
};

TEST_F(DbRecoveryTest, SyncedWritesSurviveCrash) {
  Open();
  WriteOptions sync;
  sync.sync = true;
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(db_->Put(sync, test::TestKey(i), test::TestValue(i)).ok());
  }
  Crash();
  for (int i = 0; i < 50; i++) {
    EXPECT_EQ(test::TestValue(i), Get(test::TestKey(i))) << i;
  }
}

TEST_F(DbRecoveryTest, UnsyncedTailMayVanishButPrefixSurvives) {
  Open();
  WriteOptions sync;
  sync.sync = true;
  WriteOptions nosync;
  for (int i = 0; i < 30; i++) {
    ASSERT_TRUE(db_->Put(sync, test::TestKey(i), "durable").ok());
  }
  for (int i = 30; i < 60; i++) {
    ASSERT_TRUE(db_->Put(nosync, test::TestKey(i), "volatile").ok());
  }
  Crash();
  for (int i = 0; i < 30; i++) {
    EXPECT_EQ("durable", Get(test::TestKey(i))) << i;
  }
  // Unsynced writes may or may not survive; they must never corrupt.
  for (int i = 30; i < 60; i++) {
    std::string r = Get(test::TestKey(i));
    EXPECT_TRUE(r == "volatile" || r == "NOT_FOUND") << i << " " << r;
  }
}

TEST_F(DbRecoveryTest, FlushedDataSurvivesWithoutWal) {
  Open();
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), test::TestKey(i), test::TestValue(i)).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  Crash();
  for (int i = 0; i < 500; i += 7) {
    EXPECT_EQ(test::TestValue(i), Get(test::TestKey(i))) << i;
  }
}

TEST_F(DbRecoveryTest, MergedStateSurvivesCrash) {
  Open();
  std::map<std::string, std::string> model;
  for (int i = 0; i < 800; i++) {
    std::string key = test::TestKey(i);
    std::string value = test::TestValue(i, 512);
    ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
    model[key] = value;
  }
  ASSERT_TRUE(db_->CompactAll().ok());  // Data in SortedStore + vlogs.
  Crash();
  for (const auto& [key, value] : model) {
    EXPECT_EQ(value, Get(key)) << key;
  }
  // The recovered DB remains fully functional.
  ASSERT_TRUE(db_->Put(WriteOptions(), "post-crash", "ok").ok());
  EXPECT_EQ("ok", Get("post-crash"));
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_EQ("ok", Get("post-crash"));
}

TEST_F(DbRecoveryTest, SplitSurvivesCrash) {
  Open();
  for (int i = 0; i < 2500; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), test::TestKey(i), test::TestValue(i, 512))
            .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  std::string parts;
  ASSERT_TRUE(db_->GetProperty("db.num-partitions", &parts));
  ASSERT_GT(std::stoi(parts), 1);
  Crash();
  std::string parts_after;
  ASSERT_TRUE(db_->GetProperty("db.num-partitions", &parts_after));
  EXPECT_EQ(parts, parts_after);
  for (int i = 0; i < 2500; i += 31) {
    EXPECT_EQ(test::TestValue(i, 512), Get(test::TestKey(i))) << i;
  }
}

TEST_F(DbRecoveryTest, GcSurvivesCrash) {
  Open();
  for (int round = 0; round < 5; round++) {
    for (int i = 0; i < 300; i++) {
      ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                           test::TestValue(i + round * 31, 512))
                      .ok());
    }
    ASSERT_TRUE(db_->CompactAll().ok());
  }
  Crash();
  for (int i = 0; i < 300; i++) {
    EXPECT_EQ(test::TestValue(i + 4 * 31, 512), Get(test::TestKey(i))) << i;
  }
}

TEST_F(DbRecoveryTest, RepeatedCrashesWithRandomWorkload) {
  Open();
  std::map<std::string, std::string> durable_model;
  Random rnd(2024);
  WriteOptions sync;
  sync.sync = true;
  for (int crash_round = 0; crash_round < 4; crash_round++) {
    for (int i = 0; i < 400; i++) {
      std::string key = test::TestKey(rnd.Uniform(300));
      if (rnd.OneIn(5)) {
        ASSERT_TRUE(db_->Delete(sync, key).ok());
        durable_model.erase(key);
      } else {
        std::string value = test::TestValue(crash_round * 1000 + i, 256);
        ASSERT_TRUE(db_->Put(sync, key, value).ok());
        durable_model[key] = value;
      }
    }
    if (crash_round % 2 == 0) {
      ASSERT_TRUE(db_->FlushMemTable().ok());
    }
    Crash();
    for (const auto& [key, value] : durable_model) {
      ASSERT_EQ(value, Get(key)) << key << " round " << crash_round;
    }
  }
}

TEST_F(DbRecoveryTest, CheckpointedIndexRecoversConsistently) {
  // Load with checkpointing enabled; crash; recovered reads must be
  // identical to a full-rescan recovery.
  Open();
  for (int i = 0; i < 600; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), test::TestKey(i), test::TestValue(i)).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  // Overwrite a subset so the index has multi-version entries.
  for (int i = 0; i < 600; i += 3) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i), "newest").ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  Crash();
  for (int i = 0; i < 600; i++) {
    if (i % 3 == 0) {
      EXPECT_EQ("newest", Get(test::TestKey(i))) << i;
    } else {
      EXPECT_EQ(test::TestValue(i), Get(test::TestKey(i))) << i;
    }
  }
}

// The periodic hash-index checkpoint file is written with the DB mutex
// released, before the flush install that records it in the manifest.
// Recorded, it is live: a crash-reopen keeps the file (the sweep deletes
// unrecorded ones) and recovery loads it.
TEST_F(DbRecoveryTest, IndexCheckpointIsRecordedInManifest) {
  Open();
  for (int round = 0; round < 2; round++) {  // index_checkpoint_interval
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                           "v" + std::to_string(round))
                      .ok());
    }
    ASSERT_TRUE(db_->FlushMemTable().ok());
  }
  Crash();
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren("/db", &children).ok());
  int checkpoints = 0;
  for (const std::string& c : children) {
    if (c.size() > 5 && c.compare(c.size() - 5, 5, ".hidx") == 0) {
      checkpoints++;
    }
  }
  EXPECT_EQ(1, checkpoints);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ("v1", Get(test::TestKey(i))) << i;
  }
}

// A checkpoint whose entries were rewritten on disk fails its checksum,
// and recovery rebuilds the index from the tables. Loaded, this one would
// send every key of the newest covered table to the oldest.
TEST_F(DbRecoveryTest, CorruptedIndexCheckpointIsRebuilt) {
  Open();
  // With index_checkpoint_interval 2 the fourth flush checkpoints the
  // three tables before it; keys 0..99 are newest in the third.
  for (int round = 0; round < 4; round++) {
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(db_->Put(WriteOptions(),
                           test::TestKey(round < 3 ? i : 100 + i),
                           "v" + std::to_string(round))
                      .ok());
    }
    ASSERT_TRUE(db_->FlushMemTable().ok());
  }
  db_.reset();
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren("/db", &children).ok());
  std::string fname, contents;
  for (const std::string& c : children) {
    if (c.size() > 5 && c.compare(c.size() - 5, 5, ".hidx") == 0) {
      fname = "/db/" + c;
    }
  }
  uint64_t size = 0;
  ASSERT_TRUE(env_->GetFileSize(fname, &size).ok());
  std::unique_ptr<SequentialFile> in;
  ASSERT_TRUE(env_->NewSequentialFile(fname, &in).ok());
  contents.resize(size);
  Slice data;
  ASSERT_TRUE(in->Read(size, &data, contents.data()).ok());
  contents.assign(data.data(), data.size());

  // [count][covered ids], then the index: magic, num_hashes, num_buckets,
  // num_overflow, num_entries, and 8-byte entries led by a fixed32
  // key_tag << 16 | table_id.
  Slice input(contents);
  uint32_t count = 0, id = 0, magic = 0, hashes = 0;
  uint64_t buckets = 0, overflow = 0, entries = 0;
  ASSERT_TRUE(GetVarint32(&input, &count));
  ASSERT_EQ(3u, count);
  uint32_t oldest = 0xFFFF, newest = 0;
  for (uint32_t i = 0; i < count && GetVarint32(&input, &id); i++) {
    oldest = std::min(oldest, id);
    newest = std::max(newest, id);
  }
  ASSERT_TRUE(GetFixed32(&input, &magic) && GetVarint32(&input, &hashes) &&
              GetVarint64(&input, &buckets) &&
              GetVarint64(&input, &overflow) && GetVarint64(&input, &entries));
  ASSERT_GE(input.size(), (buckets + overflow) * 8);
  char* entry = contents.data() + (input.data() - contents.data());
  int redirected = 0;
  for (uint64_t i = 0; i < buckets + overflow; i++, entry += 8) {
    if ((DecodeFixed32(entry) & 0xFFFF) == newest) {
      EncodeFixed32(entry, (DecodeFixed32(entry) & 0xFFFF0000u) | oldest);
      redirected++;
    }
  }
  ASSERT_GE(redirected, 100);
  std::unique_ptr<WritableFile> out;
  ASSERT_TRUE(env_->NewWritableFile(fname, &out).ok());
  ASSERT_TRUE(out->Append(contents).ok() && out->Close().ok());

  Open();
  int stale = 0;
  for (int i = 0; i < 100; i++) {
    if (Get(test::TestKey(i)) != "v2") stale++;
    EXPECT_EQ("v3", Get(test::TestKey(100 + i))) << i;
  }
  EXPECT_EQ(0, stale);
}

}  // namespace
}  // namespace unikv
