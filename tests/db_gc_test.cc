// Value-log garbage collection tests: space is reclaimed, pointers are
// rewritten correctly, shared logs after a split are lazily segregated,
// and the store stays correct through many update/GC cycles.

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/db.h"
#include "core/filename.h"
#include "core/unikv_db.h"
#include "test_util.h"
#include "util/fault_injection_env.h"
#include "util/random.h"
#include "vlog/value_log.h"

namespace unikv {
namespace {

Options GcOptions() {
  Options opt;
  opt.write_buffer_size = 32 * 1024;
  opt.unsorted_limit = 128 * 1024;
  opt.partition_size_limit = 8 * 1024 * 1024;
  opt.sorted_table_size = 32 * 1024;
  opt.gc_garbage_threshold = 64 * 1024;  // Aggressive GC.
  return opt;
}

uint64_t DirBytes(const std::string& dir, FileType want) {
  std::vector<std::string> children;
  // Empty-on-failure: the byte totals then read 0 and the assertions
  // comparing before/after sizes fail loudly.
  (void)Env::Default()->GetChildren(dir, &children);
  uint64_t total = 0;
  for (const std::string& child : children) {
    uint64_t number;
    FileType type;
    if (ParseFileName(child, &number, &type) && type == want) {
      uint64_t size = 0;
      (void)Env::Default()->GetFileSize(dir + "/" + child, &size);
      total += size;
    }
  }
  return total;
}

class DbGcTest : public testing::Test {
 protected:
  void Open(const Options& opt, const std::string& name) {
    dir_ = test::NewTestDir(name);
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(opt, dir_, &raw).ok());
    db_.reset(raw);
  }

  std::string dir_;
  std::unique_ptr<DB> db_;
};

TEST_F(DbGcTest, GcReclaimsOverwrittenValues) {
  Open(GcOptions(), "gc_reclaim");
  const int kKeys = 300;
  const int kValueSize = 1024;

  // Overwrite the same keys many times: without GC the logs would hold
  // every version.
  for (int round = 0; round < 8; round++) {
    for (int i = 0; i < kKeys; i++) {
      ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                           test::TestValue(i * 1000 + round, kValueSize))
                      .ok());
    }
    ASSERT_TRUE(db_->CompactAll().ok());
  }

  std::string stats;
  ASSERT_TRUE(db_->GetProperty("db.stats", &stats));
  EXPECT_NE(stats.find("gcs="), std::string::npos);
  // GC must have run at least once under this churn.
  EXPECT_EQ(stats.find("gcs=0 "), std::string::npos) << stats;

  // Live data is ~300 KiB; the value logs must be nowhere near the
  // 8 rounds x 300 KiB of total writes.
  uint64_t vlog_bytes = DirBytes(dir_, FileType::kValueLogFile);
  EXPECT_LT(vlog_bytes, 3u * kKeys * kValueSize) << "GC failed to reclaim";

  // And everything still reads back the newest version.
  for (int i = 0; i < kKeys; i++) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(i), &value).ok()) << i;
    EXPECT_EQ(test::TestValue(i * 1000 + 7, kValueSize), value);
  }
}

TEST_F(DbGcTest, DeletedValuesAreCollected) {
  Open(GcOptions(), "gc_deletes");
  for (int i = 0; i < 400; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                         test::TestValue(i, 1024))
                    .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  // Delete 90% of the data.
  for (int i = 0; i < 400; i++) {
    if (i % 10 != 0) {
      ASSERT_TRUE(db_->Delete(WriteOptions(), test::TestKey(i)).ok());
    }
  }
  ASSERT_TRUE(db_->CompactAll().ok());

  uint64_t vlog_bytes = DirBytes(dir_, FileType::kValueLogFile);
  EXPECT_LT(vlog_bytes, 200u * 1024) << "dead values not reclaimed";
  for (int i = 0; i < 400; i++) {
    std::string value;
    Status s = db_->Get(ReadOptions(), test::TestKey(i), &value);
    if (i % 10 == 0) {
      ASSERT_TRUE(s.ok()) << i;
      EXPECT_EQ(test::TestValue(i, 1024), value);
    } else {
      EXPECT_TRUE(s.IsNotFound()) << i;
    }
  }
}

TEST_F(DbGcTest, SharedLogsAfterSplitAreLazilySegregated) {
  Options opt = GcOptions();
  opt.partition_size_limit = 512 * 1024;  // Force splits.
  Open(opt, "gc_split");
  std::map<std::string, std::string> model;
  for (int i = 0; i < 2000; i++) {
    std::string key = test::TestKey(i);
    std::string value = test::TestValue(i, 512);
    ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
    model[key] = value;
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  std::string parts;
  ASSERT_TRUE(db_->GetProperty("db.num-partitions", &parts));
  ASSERT_GT(std::stoi(parts), 1);

  // Churn one half of the key space so its partition GCs; the shared old
  // logs must survive until both sides have collected, and reads from
  // the *other* partition must keep working throughout.
  for (int round = 0; round < 4; round++) {
    for (int i = 0; i < 1000; i++) {
      std::string key = test::TestKey(i);
      std::string value = test::TestValue(i + round * 7777, 512);
      ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
      model[key] = value;
    }
    ASSERT_TRUE(db_->CompactAll().ok());
    for (int i = 1000; i < 2000; i += 97) {
      std::string key = test::TestKey(i);
      std::string value;
      ASSERT_TRUE(db_->Get(ReadOptions(), key, &value).ok())
          << key << " lost after GC round " << round;
      EXPECT_EQ(model[key], value);
    }
  }
  for (const auto& [key, expected] : model) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), key, &value).ok()) << key;
    EXPECT_EQ(expected, value);
  }
}

TEST_F(DbGcTest, NoKvSeparationMeansNoVlogs) {
  Options opt = GcOptions();
  opt.enable_kv_separation = false;
  Open(opt, "gc_nosep");
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                         test::TestValue(i, 1024))
                    .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_EQ(0u, DirBytes(dir_, FileType::kValueLogFile));
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(5), &value).ok());
  EXPECT_EQ(test::TestValue(5, 1024), value);
}

TEST_F(DbGcTest, ObsoleteFilesAreDeleted) {
  Open(GcOptions(), "gc_files");
  for (int round = 0; round < 6; round++) {
    for (int i = 0; i < 200; i++) {
      ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                           test::TestValue(i + round, 1024))
                      .ok());
    }
    ASSERT_TRUE(db_->CompactAll().ok());
  }
  // After settling, the directory holds only the live file set: no temp
  // files and no orphaned WALs.
  std::vector<std::string> children;
  ASSERT_TRUE(Env::Default()->GetChildren(dir_, &children).ok());
  int wals = 0, tmps = 0;
  for (const std::string& child : children) {
    uint64_t number;
    FileType type;
    if (!ParseFileName(child, &number, &type)) continue;
    if (type == FileType::kWalFile || type == FileType::kShardWalFile) {
      wals++;
    }
    if (type == FileType::kTempFile) tmps++;
  }
  EXPECT_LE(wals, 2);
  EXPECT_EQ(0, tmps);
}

// Two records of the same size swapped inside a .vlog file keep valid
// checksums, so only the stored-key check tells them apart. Every read
// path, and the GC that rewrites them, must report Corruption rather than
// hand one key the other's value.
// GC reads its live values as coalesced span reads copied into a buffer:
// not one point read per value, and never through the log's mapping
// (the POSIX Env maps logs, and ru_maxrss would count every page GC
// touched). No Get or Scan runs between the snapshots, so every value-log
// read counted is GC's.
TEST_F(DbGcTest, GcReadsCoalescedSpansNeverTheMapping) {
  Open(GcOptions(), "gc_spans");
  const int kKeys = 300;
  auto put_all = [&](int step, int version) {
    for (int i = 0; i < kKeys; i += step) {
      ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                           test::TestValue(i + version, 1024))
                      .ok());
    }
    ASSERT_TRUE(db_->CompactAll().ok());
  };
  put_all(1, 0);
  const MetricsRegistry& reg =
      static_cast<UniKVDB*>(db_.get())->TEST_metrics();
  const CounterSnapshot before = reg.SnapshotCounters();
  // Half the old records become garbage past gc_garbage_threshold, so the
  // merge is followed by a GC that rewrites every live value.
  put_all(2, kKeys);
  const CounterSnapshot after = reg.SnapshotCounters();
  auto delta = [&](const char* name) {
    return after.engine.at(name) - before.engine.at(name);
  };
  ASSERT_GT(delta("gcs"), 0u);
  EXPECT_GT(delta("vlog_span_reads"), 0u);
  EXPECT_LT(delta("vlog_reads"), static_cast<uint64_t>(kKeys));
  EXPECT_EQ(0u, delta("vlog_mmap_reads"));
  for (int i = 0; i < kKeys; i++) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(i), &value).ok()) << i;
    EXPECT_EQ(test::TestValue(i % 2 == 0 ? i + kKeys : i, 1024), value) << i;
  }
}

TEST_F(DbGcTest, SwappedValueRecordsAreCorruptionOnEveryPath) {
  Options opt = GcOptions();
  Open(opt, "gc_swapped_records");
  const std::string a = test::TestKey(1), b = test::TestKey(2),
                    c = test::TestKey(3);
  const std::string va = test::TestValue(1, 1024), vb = test::TestValue(2, 1024);
  ASSERT_TRUE(db_->Put(WriteOptions(), a, va).ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), b, vb).ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), c, test::TestValue(3, 1024)).ok());
  ASSERT_TRUE(db_->CompactAll().ok());
  db_.reset();

  // Swap a's and b's records in the one value log the merge wrote.
  std::vector<std::string> children;
  ASSERT_TRUE(Env::Default()->GetChildren(dir_, &children).ok());
  std::string fname;
  for (const std::string& child : children) {
    uint64_t number;
    FileType type;
    if (ParseFileName(child, &number, &type) &&
        type == FileType::kValueLogFile) {
      ASSERT_TRUE(fname.empty()) << "expected a single value log";
      fname = dir_ + "/" + child;
    }
  }
  ASSERT_FALSE(fname.empty());
  uint64_t off_a = 0, off_b = 0;
  uint32_t size_a = 0, size_b = 0;
  ASSERT_TRUE(ScanValueLog(Env::Default(), fname,
                           [&](uint64_t offset, uint32_t size,
                               const Slice& key, const Slice&) {
                             if (key == Slice(a)) off_a = offset, size_a = size;
                             if (key == Slice(b)) off_b = offset, size_b = size;
                           })
                  .ok());
  ASSERT_GT(size_a, 0u);
  ASSERT_EQ(size_a, size_b);
  uint64_t file_size = 0;
  ASSERT_TRUE(Env::Default()->GetFileSize(fname, &file_size).ok());
  std::string contents(file_size, '\0');
  {
    std::unique_ptr<SequentialFile> in;
    ASSERT_TRUE(Env::Default()->NewSequentialFile(fname, &in).ok());
    Slice data;
    ASSERT_TRUE(in->Read(file_size, &data, contents.data()).ok());
    contents.assign(data.data(), data.size());
  }
  std::string rec_a = contents.substr(off_a, size_a);
  contents.replace(off_a, size_a, contents.substr(off_b, size_b));
  contents.replace(off_b, size_b, rec_a);
  {
    std::unique_ptr<WritableFile> out;
    ASSERT_TRUE(Env::Default()->NewWritableFile(fname, &out).ok());
    ASSERT_TRUE(out->Append(contents).ok());
    ASSERT_TRUE(out->Sync().ok());
    ASSERT_TRUE(out->Close().ok());
  }

  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(opt, dir_, &raw).ok());
  db_.reset(raw);

  std::string value;
  Status s = db_->Get(ReadOptions(), a, &value);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_FALSE(value == vb);

  std::vector<Slice> keys = {a, b, c};
  std::vector<std::string> values;
  std::vector<Status> statuses;
  s = db_->MultiGet(ReadOptions(), keys, &values, &statuses);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_TRUE(statuses[0].IsCorruption()) << statuses[0].ToString();
  EXPECT_TRUE(statuses[1].IsCorruption()) << statuses[1].ToString();
  EXPECT_TRUE(statuses[2].ok()) << statuses[2].ToString();
  EXPECT_FALSE(values[0] == vb);
  EXPECT_FALSE(values[1] == va);

  std::vector<std::pair<std::string, std::string>> out;
  s = db_->Scan(ReadOptions(), a, 3, &out);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  for (const auto& [k, v] : out) {
    EXPECT_FALSE(k == a && v == vb);
    EXPECT_FALSE(k == b && v == va);
  }

  {
    std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
    iter->Seek(a);
    ASSERT_TRUE(iter->Valid());
    EXPECT_FALSE(iter->value() == Slice(vb));
    EXPECT_TRUE(iter->status().IsCorruption()) << iter->status().ToString();
    iter->Next();
    ASSERT_TRUE(iter->Valid());
    EXPECT_FALSE(iter->value() == Slice(va));
    EXPECT_TRUE(iter->status().IsCorruption()) << iter->status().ToString();
  }

  // Overwriting c turns its old record into garbage, so CompactAll's merge
  // is followed by a GC that rewrites a's and b's records: it must refuse.
  ASSERT_TRUE(db_->Put(WriteOptions(), c, test::TestValue(4, 1024)).ok());
  s = db_->CompactAll();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// ----------------------------------------------------------- GC + crashes

namespace {

int CountVlogs(Env* env, const std::string& dir) {
  std::vector<std::string> children;
  // Empty-on-failure: a zero vlog count fails the caller's assertion.
  (void)env->GetChildren(dir, &children);
  int n = 0;
  for (const std::string& child : children) {
    uint64_t number;
    FileType type;
    if (ParseFileName(child, &number, &type) &&
        type == FileType::kValueLogFile) {
      n++;
    }
  }
  return n;
}

}  // namespace

// Crash in the window between the GC install (pointer-rewrite merge +
// manifest sync) and the deletion of the old value logs. Reopen must
// neither lose live values nor double-free the leftover log files.
TEST_F(DbGcTest, CrashBetweenGcInstallAndOldLogDeletion) {
  std::unique_ptr<MemEnv> base(NewMemEnv());
  FaultInjectionEnv fenv(base.get());
  Options opt = GcOptions();
  opt.env = &fenv;
  const std::string name = "/gc_crash";
  const int kKeys = 300;

  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(opt, name, &raw).ok());
  std::unique_ptr<DB> db(raw);
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), test::TestKey(i),
                        test::TestValue(i, 1024))
                    .ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());
  // Overwrites make the first vlog's records garbage, arming GC.
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), test::TestKey(i),
                        test::TestValue(i + 5000, 1024))
                    .ok());
  }
  // The first value-log deletion happens in the obsolete-file sweep right
  // after the GC's manifest install — exactly the target window.
  fenv.CrashAt(FaultOp::kRemoveFile, ".vlog", 0);
  (void)db->CompactAll();  // The sweep tolerates the frozen filesystem.
  ASSERT_TRUE(fenv.crashed());
  db.reset();

  fenv.ClearFaults();
  ASSERT_TRUE(fenv.RecoverAfterCrash().ok());
  raw = nullptr;
  ASSERT_TRUE(DB::Open(opt, name, &raw).ok());
  db.reset(raw);

  // No live value lost: the GC install was durable, so every pointer
  // resolves into the rewritten log.
  for (int i = 0; i < kKeys; i++) {
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), test::TestKey(i), &value).ok()) << i;
    EXPECT_EQ(test::TestValue(i + 5000, 1024), value);
  }
  // No double-free: the leftover old logs are swept exactly once (a
  // second sweep finding them already gone must not fail the engine),
  // and the store keeps working afterwards.
  ASSERT_TRUE(db->CompactAll().ok());
  EXPECT_TRUE(db->GetBackgroundError().ok());
  for (int i = 0; i < kKeys; i += 37) {
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), test::TestKey(i), &value).ok()) << i;
  }
}

// Crash right before the GC's manifest sync: the install is not durable,
// so reopen must come back in the pre-GC state — with the old logs still
// present and every live value still readable through the old pointers.
TEST_F(DbGcTest, CrashBeforeGcInstallKeepsOldLogs) {
  const std::string name = "/gc_crash2";
  const int kKeys = 300;
  auto workload = [&](FaultInjectionEnv* fenv, std::unique_ptr<DB>* out) {
    Options opt = GcOptions();
    opt.env = fenv;
    DB* raw = nullptr;
    Status s = DB::Open(opt, name, &raw);
    out->reset(raw);
    if (!s.ok()) return s;
    DB* db = out->get();
    for (int i = 0; i < kKeys; i++) {
      s = db->Put(WriteOptions(), test::TestKey(i), test::TestValue(i, 1024));
      if (!s.ok()) return s;
    }
    s = db->CompactAll();
    if (!s.ok()) return s;
    for (int i = 0; i < kKeys; i++) {
      s = db->Put(WriteOptions(), test::TestKey(i),
                  test::TestValue(i + 5000, 1024));
      if (!s.ok()) return s;
    }
    return db->CompactAll();
  };

  // Twin run #1: profile the clean call sequence to count the manifest
  // syncs; the last one is the GC install. The count is keyed to the
  // MANIFEST file, not the global call index: how background-job env
  // calls interleave with foreground ones varies with scheduling, but
  // the number of installs is data-driven and stable.
  uint64_t manifest_syncs = 0;
  {
    std::unique_ptr<MemEnv> base(NewMemEnv());
    FaultInjectionEnv fenv(base.get());
    fenv.EnableTrace(true);
    std::unique_ptr<DB> db;
    ASSERT_TRUE(workload(&fenv, &db).ok());
    for (const auto& ev : fenv.Trace()) {
      if (ev.op == FaultOp::kSync &&
          ev.filename.find("MANIFEST") != std::string::npos) {
        manifest_syncs++;
      }
    }
    ASSERT_GT(manifest_syncs, 0u);
  }

  // Twin run #2: same workload, crash at that (0-based) manifest sync.
  std::unique_ptr<MemEnv> base(NewMemEnv());
  FaultInjectionEnv fenv(base.get());
  fenv.CrashAt(FaultOp::kSync, "MANIFEST", manifest_syncs - 1);
  std::unique_ptr<DB> db;
  Status s = workload(&fenv, &db);
  EXPECT_FALSE(s.ok());
  ASSERT_TRUE(fenv.crashed());
  db.reset();

  fenv.ClearFaults();
  ASSERT_TRUE(fenv.RecoverAfterCrash().ok());
  int vlogs_after_crash = CountVlogs(&fenv, name);
  EXPECT_GE(vlogs_after_crash, 2) << "old value logs were lost";

  Options opt = GcOptions();
  opt.env = &fenv;
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(opt, name, &raw).ok());
  db.reset(raw);
  for (int i = 0; i < kKeys; i++) {
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), test::TestKey(i), &value).ok()) << i;
    EXPECT_EQ(test::TestValue(i + 5000, 1024), value);
  }
  // The interrupted GC can be completed now and the store stays correct.
  ASSERT_TRUE(db->CompactAll().ok());
  for (int i = 0; i < kKeys; i++) {
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), test::TestKey(i), &value).ok()) << i;
    EXPECT_EQ(test::TestValue(i + 5000, 1024), value);
  }
}

}  // namespace
}  // namespace unikv
