// Deterministic crash-consistency matrix (DESIGN.md §crash consistency).
//
// A CrashHarness workload exercises every background-operation kind —
// flush, UnsortedStore→SortedStore merge, partial scan-merge, dynamic
// range split, value-log GC, WAL append/sync, manifest/CURRENT install —
// and the matrix tests
// crash at every counted mutating Env call, recover, reopen, and verify
// the store against the golden model.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "core/filename.h"
#include "core/unikv_db.h"
#include "crash_harness.h"
#include "test_util.h"
#include "util/fault_injection_env.h"

namespace unikv {
namespace {

// Stride for the exhaustive matrices, overridable so slower configurations
// (e.g. the ASan variant) can sample the same fault points more coarsely.
uint64_t MatrixStride() {
  const char* s = std::getenv("UNIKV_CRASH_STRIDE");
  if (s != nullptr && s[0] != '\0') {
    long v = std::atol(s);
    if (v > 0) return static_cast<uint64_t>(v);
  }
  return 1;
}

bool TraceHas(const std::vector<FaultInjectionEnv::CallRecord>& trace,
              FaultOp op, const char* substr) {
  for (const auto& rec : trace) {
    if (rec.op == op && rec.filename.find(substr) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// Whether some `event` line of an EVENTS file carries `field` >= `min`.
bool EventHas(const std::string& events, const std::string& event,
              const std::string& field, uint64_t min) {
  std::istringstream in(events);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"event\":\"" + event + "\"") == std::string::npos) continue;
    const std::string needle = "\"" + field + "\":";
    const size_t pos = line.find(needle);
    if (pos != std::string::npos &&
        std::strtoull(line.c_str() + pos + needle.size(), nullptr, 10) >= min) {
      return true;
    }
  }
  return false;
}

uint64_t ParseStat(const std::string& stats, const char* name) {
  std::string needle = std::string(name) + "=";
  size_t pos = stats.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtoull(stats.c_str() + pos + needle.size(), nullptr, 10);
}

// The workload must enumerate at least one fault point per background-op
// kind; otherwise the crash matrix silently loses coverage.
TEST(DbCrashTest, FaultPointCoverage) {
  test::CrashHarness harness;
  test::CrashHarness::Profile profile;
  ASSERT_EQ("", harness.RunProfile(&profile));

  EXPECT_GT(profile.workload_calls, 0u);
  EXPECT_GT(profile.reopen_calls, 0u);

  // One fault point per op kind, recognized by file-name suffix.
  EXPECT_TRUE(TraceHas(profile.trace, FaultOp::kAppend, ".swal"));
  EXPECT_TRUE(TraceHas(profile.trace, FaultOp::kSync, ".swal"));
  EXPECT_TRUE(TraceHas(profile.trace, FaultOp::kAppend, ".sst"));
  EXPECT_TRUE(TraceHas(profile.trace, FaultOp::kAppend, ".vlog"));
  EXPECT_TRUE(TraceHas(profile.trace, FaultOp::kSync, "MANIFEST"));
  EXPECT_TRUE(TraceHas(profile.trace, FaultOp::kRenameFile, "CURRENT"));
  EXPECT_TRUE(TraceHas(profile.trace, FaultOp::kSyncDir, "/"));
  EXPECT_TRUE(TraceHas(profile.trace, FaultOp::kRemoveFile, ".vlog"));

  // The stats prove each background op actually ran (not just that some
  // file of the right name was touched).
  EXPECT_GE(ParseStat(profile.stats, "flushes"), 1u) << profile.stats;
  EXPECT_GE(ParseStat(profile.stats, "merges"), 1u) << profile.stats;
  EXPECT_GE(ParseStat(profile.stats, "splits"), 1u) << profile.stats;
  EXPECT_GE(ParseStat(profile.stats, "gcs"), 1u) << profile.stats;
  EXPECT_GE(ParseStat(profile.stats, "scan_merges"), 1u) << profile.stats;

  // A flush wrote one table that two partitions reference, and a split
  // divided a partition while a table straddling its boundary was still
  // unsorted.
  EXPECT_TRUE(EventHas(profile.events, "flush", "partitions", 2))
      << profile.events;
  EXPECT_TRUE(EventHas(profile.events, "split", "unsorted_shared", 1))
      << profile.events;
}

TEST(DbCrashTest, CrashAtEveryFaultPoint) {
  test::CrashHarness harness;
  test::CrashHarness::Profile profile;
  ASSERT_EQ("", harness.RunProfile(&profile));

  const uint64_t stride = MatrixStride();
  uint64_t failures = 0;
  for (uint64_t i = 0; i < profile.workload_calls; i += stride) {
    std::string r = harness.RunCrashAt(i);
    if (!r.empty()) {
      failures++;
      EXPECT_EQ("", r) << "crash at call " << i;
      if (failures >= 5) break;  // Enough diagnostics; stop the flood.
    }
  }
  EXPECT_EQ(0u, failures);
}

// Recovery itself is full of fault points: WAL-replay flush, manifest
// rewrite, CURRENT rename + directory sync, obsolete-file sweep. Crash at
// every counted call of a reopen and verify via a third, clean open.
TEST(DbCrashTest, ReopenCrashMatrix) {
  test::CrashHarness harness;
  test::CrashHarness::Profile profile;
  ASSERT_EQ("", harness.RunProfile(&profile));

  const uint64_t stride = MatrixStride();
  uint64_t failures = 0;
  for (uint64_t i = 0; i < profile.reopen_calls; i += stride) {
    std::string r = harness.RunReopenCrashAt(i);
    if (!r.empty()) {
      failures++;
      EXPECT_EQ("", r) << "crash at reopen call " << i;
      if (failures >= 5) break;
    }
  }
  EXPECT_EQ(0u, failures);
}

// The same matrices over a cross-shard workload: four foreground shards,
// four WALs, every sync-put exercising the sync-all durability floor.
// Coverage first — the workload must actually spread across shard WALs.
TEST(DbCrashTest, ShardedFaultPointCoverage) {
  test::CrashHarness harness(/*write_shards=*/4);
  test::CrashHarness::Profile profile;
  ASSERT_EQ("", harness.RunProfile(&profile));

  std::set<std::string> shard_wals;
  for (const auto& rec : profile.trace) {
    if (rec.op == FaultOp::kAppend &&
        rec.filename.find(".swal") != std::string::npos) {
      shard_wals.insert(rec.filename);
    }
  }
  EXPECT_GE(shard_wals.size(), 2u)
      << "workload keys hash onto fewer than 2 shard WALs";
}

// Crash at every counted Env call of the cross-shard workload. Recovery
// must merge the shard WALs by sequence number and land on a consistent
// prefix cut — including the cross-shard last-sequence check.
TEST(DbCrashTest, ShardedCrashAtEveryFaultPoint) {
  test::CrashHarness harness(/*write_shards=*/4);
  test::CrashHarness::Profile profile;
  ASSERT_EQ("", harness.RunProfile(&profile));

  const uint64_t stride = MatrixStride();
  uint64_t failures = 0;
  for (uint64_t i = 0; i < profile.workload_calls; i += stride) {
    std::string r = harness.RunCrashAt(i);
    if (!r.empty()) {
      failures++;
      EXPECT_EQ("", r) << "crash at call " << i;
      if (failures >= 5) break;
    }
  }
  EXPECT_EQ(0u, failures);
}

// Crash at every counted call of a reopen that replays four shard WALs.
TEST(DbCrashTest, ShardedReopenCrashMatrix) {
  test::CrashHarness harness(/*write_shards=*/4);
  test::CrashHarness::Profile profile;
  ASSERT_EQ("", harness.RunProfile(&profile));

  const uint64_t stride = MatrixStride();
  uint64_t failures = 0;
  for (uint64_t i = 0; i < profile.reopen_calls; i += stride) {
    std::string r = harness.RunReopenCrashAt(i);
    if (!r.empty()) {
      failures++;
      EXPECT_EQ("", r) << "crash at reopen call " << i;
      if (failures >= 5) break;
    }
  }
  EXPECT_EQ(0u, failures);
}

// Sensitivity check demanded by the acceptance criteria: reintroduce the
// historical unsafe GC ordering (old value logs deleted before the manifest
// install is durable) and prove the harness catches it. A harness that
// passes both with and without the bug would be vacuous.
TEST(DbCrashTest, DeliberateGcOrderingBugIsCaught) {
  struct BugGuard {
    BugGuard() {
      UniKVDB::TEST_gc_unsafe_delete_before_install_.store(true);
    }
    ~BugGuard() {
      UniKVDB::TEST_gc_unsafe_delete_before_install_.store(false);
    }
  } guard;

  test::CrashHarness harness;
  test::CrashHarness::Profile profile;
  // Without a crash the bug is invisible: deletion and install both land.
  ASSERT_EQ("", harness.RunProfile(&profile));

  // Find the window the bug opens: the first premature vlog deletion, and
  // the manifest sync that follows it. Crashing in between leaves the
  // manifest pointing at value logs that no longer exist.
  uint64_t delete_index = UINT64_MAX;
  uint64_t sync_index = UINT64_MAX;
  for (uint64_t i = 0; i < profile.trace.size(); i++) {
    const auto& rec = profile.trace[i];
    if (delete_index == UINT64_MAX && rec.op == FaultOp::kRemoveFile &&
        rec.filename.find(".vlog") != std::string::npos) {
      delete_index = i;
    } else if (delete_index != UINT64_MAX && rec.op == FaultOp::kSync &&
               rec.filename.find("MANIFEST") != std::string::npos) {
      sync_index = i;
      break;
    }
  }
  ASSERT_NE(UINT64_MAX, delete_index);
  ASSERT_NE(UINT64_MAX, sync_index);

  // Crash right before the manifest sync: the deletions are durable, the
  // install is not. Recovery must detect the lost live values (either as
  // unreadable pointers or as a state matching no valid prefix cut).
  std::string r = harness.RunCrashAt(sync_index);
  EXPECT_NE("", r);
}

// A failed manifest sync must latch a sticky background error: later
// writes are rejected, reads keep working.
TEST(DbCrashTest, BackgroundErrorIsStickyAndRejectsWrites) {
  std::unique_ptr<MemEnv> base(NewMemEnv());
  FaultInjectionEnv fenv(base.get());
  Options opts;
  opts.env = &fenv;
  opts.write_buffer_size = 1 << 20;

  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(opts, "/bgerrdb", &raw).ok());
  std::unique_ptr<DB> db(raw);
  EXPECT_TRUE(db->GetBackgroundError().ok());

  ASSERT_TRUE(
      db->Put(WriteOptions(), test::TestKey(1), test::TestValue(1)).ok());

  // Every manifest sync from now on fails.
  fenv.FailAt(FaultOp::kSync, "MANIFEST", 0, /*sticky=*/true);
  Status fs = db->FlushMemTable();
  EXPECT_FALSE(fs.ok());
  EXPECT_FALSE(db->GetBackgroundError().ok());

  Status ws = db->Put(WriteOptions(), test::TestKey(2), test::TestValue(2));
  EXPECT_FALSE(ws.ok());

  // Reads still work after the engine goes read-only.
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), test::TestKey(1), &value).ok());
  EXPECT_EQ(test::TestValue(1), value);
}

// A failed WAL sync latches the same sticky error through the write path.
TEST(DbCrashTest, FailedWalSyncLatchesBackgroundError) {
  std::unique_ptr<MemEnv> base(NewMemEnv());
  FaultInjectionEnv fenv(base.get());
  Options opts;
  opts.env = &fenv;

  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(opts, "/walerrdb", &raw).ok());
  std::unique_ptr<DB> db(raw);

  ASSERT_TRUE(
      db->Put(WriteOptions(), test::TestKey(1), test::TestValue(1)).ok());

  fenv.FailAt(FaultOp::kSync, ".swal", 0, /*sticky=*/true);
  WriteOptions sync_write;
  sync_write.sync = true;
  Status ws = db->Put(sync_write, test::TestKey(2), test::TestValue(2));
  EXPECT_FALSE(ws.ok());
  EXPECT_FALSE(db->GetBackgroundError().ok());
  EXPECT_FALSE(
      db->Put(WriteOptions(), test::TestKey(3), test::TestValue(3)).ok());

  std::string value;
  EXPECT_TRUE(db->Get(ReadOptions(), test::TestKey(1), &value).ok());
}

// Files of `type` in `dir`.
size_t CountFiles(Env* env, const std::string& dir, FileType type) {
  std::vector<std::string> children;
  EXPECT_TRUE(env->GetChildren(dir, &children).ok());
  size_t n = 0;
  for (const std::string& child : children) {
    uint64_t number;
    FileType t;
    if (ParseFileName(child, &number, &t) && t == type) n++;
  }
  return n;
}

// A job that fails to sync one of its outputs latches a background error
// and leaves no trace a reopen cannot clean: every acknowledged write
// reads back, and the directory holds exactly the tables and logs the
// version names.
TEST(DbCrashTest, FailedJobOutputSyncLatchesErrorAndReopensClean) {
  struct Case {
    const char* job;      // Its db.stats counter must not move.
    const char* pattern;  // Output file kind whose Sync fails once.
    int arm_after_wave;   // Armed once this many waves are written.
    uint64_t nth;         // Matching Syncs let through after arming.
  };
  // merge and GC jobs run in CompactAll after the last wave; scan-merge
  // runs on its own after wave 2 flushes (the second table), whose own
  // table sync is let through. A merge writes one log and GC one more.
  const Case cases[] = {
      {"flushes", ".sst", 0, 0},
      {"scan_merges", ".sst", 1, 1},
      {"merges", ".sst", 2, 0},
      {"gcs", ".vlog", 2, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.job);
    std::unique_ptr<MemEnv> base(NewMemEnv());
    FaultInjectionEnv fenv(base.get());
    Options opts;
    opts.env = &fenv;
    opts.unsorted_limit = 64 << 20;  // Only CompactAll merges.
    if (std::strcmp(c.job, "scan_merges") == 0) opts.scan_merge_limit = 2;
    const std::string dbname = "/outputfaultdb";

    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(opts, dbname, &raw).ok());
    std::unique_ptr<DB> db(raw);
    std::map<std::string, std::string> acked;
    auto stat = [&db, &c] {
      std::string stats;
      db->GetProperty("db.stats", &stats);
      return ParseStat(stats, c.job);
    };
    uint64_t jobs_before = 0;
    for (int wave = 0; wave < 2; wave++) {
      if (wave == c.arm_after_wave) {
        jobs_before = stat();
        fenv.FailAt(FaultOp::kSync, c.pattern, c.nth);
      }
      for (int i = 0; i < 200; i++) {
        const std::string key = test::TestKey(i);
        const std::string value = test::TestValue(wave * 1000 + i, 200);
        if (db->Put(WriteOptions(), key, value).ok()) acked[key] = value;
      }
      (void)db->FlushMemTable();
      // The first wave reaches the SortedStore, so the second one's
      // merge turns its log values into garbage for GC.
      if (wave == 0 && c.arm_after_wave == 2) {
        ASSERT_TRUE(db->CompactAll().ok());
      }
    }
    if (c.arm_after_wave == 2) {
      jobs_before = stat();
      fenv.FailAt(FaultOp::kSync, c.pattern, c.nth);
      EXPECT_FALSE(db->CompactAll().ok());
    }
    // The scan-merge runs in the background; wait for its error.
    for (int i = 0; i < 1000 && db->GetBackgroundError().ok(); i++) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_FALSE(db->GetBackgroundError().ok());
    EXPECT_EQ(jobs_before, stat());
    db.reset();

    // Reopen on the healthy env with no trigger that could start a job,
    // so the directory is read right after recovery's sweep.
    fenv.ClearFaults();
    opts.scan_merge_limit = 1 << 20;
    opts.gc_garbage_threshold = size_t{1} << 40;
    ASSERT_TRUE(DB::Open(opts, dbname, &raw).ok());
    db.reset(raw);
    EXPECT_TRUE(db->GetBackgroundError().ok());
    for (const auto& [key, value] : acked) {
      std::string got;
      ASSERT_TRUE(db->Get(ReadOptions(), key, &got).ok()) << key;
      EXPECT_EQ(value, got) << key;
    }
    std::string num_files;
    ASSERT_TRUE(db->GetProperty("db.num-files", &num_files));
    EXPECT_EQ(std::stoull(num_files),
              CountFiles(&fenv, dbname, FileType::kTableFile) +
                  CountFiles(&fenv, dbname, FileType::kValueLogFile));
    db.reset();
  }
}

}  // namespace
}  // namespace unikv
