// Crash-consistency tests using the in-memory Env's power-failure
// simulation: WAL replay, torn tails, manifest atomicity across
// merge/GC/split, hash-index rebuild from key-hash blocks, orphan
// sweeping.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/db.h"
#include "table/format.h"
#include "test_util.h"
#include "util/env.h"
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

TEST_F(DbRecoveryTest, IndexRebuiltFromKeyHashesServesNewestVersions) {
  // Two flushed tables, the second overwriting a third of the first's
  // keys. Reopen rebuilds the hash index from the tables' key-hash blocks
  // alone: it must hold the same entries as the live index did and serve
  // the newest version of every key.
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
  std::string live_entries, rebuilt_entries;
  ASSERT_TRUE(db_->GetProperty("db.hash-index-entries", &live_entries));
  Crash();
  ASSERT_TRUE(db_->GetProperty("db.hash-index-entries", &rebuilt_entries));
  EXPECT_EQ(live_entries, rebuilt_entries);
  EXPECT_EQ("800", rebuilt_entries);  // 600 + 200 overwrites.
  for (int i = 0; i < 600; i++) {
    if (i % 3 == 0) {
      EXPECT_EQ("newest", Get(test::TestKey(i))) << i;
    } else {
      EXPECT_EQ(test::TestValue(i), Get(test::TestKey(i))) << i;
    }
  }
}

// A flipped byte in one unsorted table's key-hash block fails the reopen
// with Corruption naming the table: the index is never rebuilt without
// that table's keys (which would send reads to older versions).
TEST_F(DbRecoveryTest, CorruptKeyHashBlockFailsReopen) {
  Open();
  for (int round = 0; round < 2; round++) {
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                           "v" + std::to_string(round))
                      .ok());
    }
    ASSERT_TRUE(db_->FlushMemTable().ok());
  }
  db_.reset();

  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren("/db", &children).ok());
  std::string fname;
  for (const std::string& c : children) {
    if (c.ends_with(".sst")) fname = "/db/" + c;  // The newest table.
  }
  ASSERT_FALSE(fname.empty());
  uint64_t size = 0;
  ASSERT_TRUE(env_->GetFileSize(fname, &size).ok());
  std::unique_ptr<SequentialFile> in;
  ASSERT_TRUE(env_->NewSequentialFile(fname, &in).ok());
  std::string contents(size, '\0');
  Slice data;
  ASSERT_TRUE(in->Read(size, &data, contents.data()).ok());
  contents.assign(data.data(), data.size());
  Footer footer;
  Slice footer_input(contents.data() + size - Footer::kEncodedLength,
                     Footer::kEncodedLength);
  ASSERT_TRUE(footer.DecodeFrom(&footer_input).ok());
  ASSERT_EQ(100u * 8, footer.key_hash_handle().size());
  contents[footer.key_hash_handle().offset() + 8 * 42] ^= 0x01;
  std::unique_ptr<WritableFile> out;
  ASSERT_TRUE(env_->NewWritableFile(fname, &out).ok());
  ASSERT_TRUE(out->Append(contents).ok() && out->Sync().ok() &&
              out->Close().ok());

  DB* raw = nullptr;
  Status s = DB::Open(CrashOptions(env_.get()), "/db", &raw);
  db_.reset(raw);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(std::string::npos, s.ToString().find(fname)) << s.ToString();
  EXPECT_EQ(nullptr, raw);
}

// Parks the first value-log creation (a merge's, once armed) until
// released, so a test can flush while the merge runs.
class MergeGateEnv : public InstrumentedEnv {
 public:
  using InstrumentedEnv::InstrumentedEnv;

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    if (fname.ends_with(".vlog") && armed.exchange(false)) {
      parked.store(true);
      while (!released.load()) SleepForMicroseconds(1000);
    }
    return InstrumentedEnv::NewWritableFile(fname, result);
  }

  std::atomic<bool> armed{false};
  std::atomic<bool> parked{false};
  std::atomic<bool> released{false};
};

uint64_t StatOf(DB* db, const std::string& name) {
  std::string stats;
  EXPECT_TRUE(db->GetProperty("db.stats", &stats));
  const size_t pos = (" " + stats).find(" " + name + "=");
  if (pos == std::string::npos) return 0;
  return std::strtoull(stats.c_str() + pos + name.size() + 1, nullptr, 10);
}

// A table flushed into a partition while its merge runs survives the
// merge install, which adds the survivor's key-hash block to the new
// index (RewritePartition's install). Every survivor key — new keys and
// overwrites of merged ones — reads its newest value before and after a
// reopen, and the rebuilt index matches the live one.
TEST_F(DbRecoveryTest, MergeInstallKeepsTablesFlushedDuringIt) {
  MergeGateEnv gate(env_.get());
  gate.armed = true;
  Options opt = CrashOptions(&gate);
  opt.write_buffer_size = 1 << 20;  // Each phase flushes one table.
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(opt, "/db", &raw).ok());
  db_.reset(raw);

  // A 200 KiB table passes unsorted_limit (128 KiB): the merge it
  // triggers parks at its value-log creation.
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                         test::TestValue(i, 1000))
                    .ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  for (int i = 0; i < 5000 && !gate.parked.load(); i++) {
    env_->SleepForMicroseconds(1000);
  }
  ASSERT_TRUE(gate.parked.load());

  // The survivor: new keys plus overwrites of keys the merge consumes.
  for (int i = 150; i < 250; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                         "s" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  EXPECT_EQ(0u, StatOf(db_.get(), "merges"));
  gate.released = true;
  for (int i = 0; i < 5000 && StatOf(db_.get(), "merges") == 0; i++) {
    env_->SleepForMicroseconds(1000);
  }
  ASSERT_EQ(1u, StatOf(db_.get(), "merges"));
  std::string sstables;
  ASSERT_TRUE(db_->GetProperty("db.sstables", &sstables));
  EXPECT_NE(std::string::npos, sstables.find("unsorted=1 ")) << sstables;

  auto check = [&](const char* when) {
    for (int i = 0; i < 250; i++) {
      EXPECT_EQ(i < 150 ? test::TestValue(i, 1000) : "s" + std::to_string(i),
                Get(test::TestKey(i)))
          << i << " " << when;
    }
  };
  check("before reopen");
  std::string live_entries, rebuilt_entries;
  ASSERT_TRUE(db_->GetProperty("db.hash-index-entries", &live_entries));
  EXPECT_EQ("100", live_entries);
  Crash();
  check("after reopen");
  ASSERT_TRUE(db_->GetProperty("db.hash-index-entries", &rebuilt_entries));
  EXPECT_EQ(live_entries, rebuilt_entries);
}

}  // namespace
}  // namespace unikv
