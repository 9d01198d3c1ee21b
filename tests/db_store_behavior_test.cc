// White-box behavioral tests of the UniKV store machinery: size-based
// scan merges, partial KV separation thresholds, hash-index maintenance
// across merge epochs, and background-error surfacing.

#include <gtest/gtest.h>

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/db.h"
#include "core/filename.h"
#include "core/iterator.h"
#include "core/unikv_db.h"
#include "core/version.h"
#include "test_util.h"
#include "util/event_logger.h"
#include "util/random.h"

namespace unikv {
namespace {

// Sum of the unsigned `field` over the EVENTS lines of `event`.
uint64_t SumEventField(const std::string& dir, const std::string& event,
                       const std::string& field) {
  std::ifstream in(dir + "/" + EventLogger::kFileName);
  const std::string needle = "\"event\":\"" + event + "\"";
  const std::string key = "\"" + field + "\":";
  uint64_t sum = 0;
  for (std::string line; std::getline(in, line);) {
    const size_t pos = line.find(key);
    if (line.find(needle) != std::string::npos && pos != std::string::npos) {
      sum += std::strtoull(line.c_str() + pos + key.size(), nullptr, 10);
    }
  }
  return sum;
}

// Aborts the process unless destroyed within 30 s, so a call that never
// returns fails the test binary instead of hanging it.
class Watchdog {
 public:
  explicit Watchdog(std::string what)
      : thread_([this, what = std::move(what)] {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(30);
          while (!done_.load()) {
            if (std::chrono::steady_clock::now() > deadline) {
              std::fprintf(stderr, "watchdog: %s hung for 30 s\n",
                           what.c_str());
              std::abort();
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }
        }) {}
  ~Watchdog() {
    done_.store(true);
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::atomic<bool> done_{false};
  std::thread thread_;
};

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
}

int CountFiles(const std::string& dir, FileType want) {
  std::vector<std::string> children;
  // Empty-on-failure: a zero file count fails the caller's assertion.
  (void)Env::Default()->GetChildren(dir, &children);
  int n = 0;
  for (const std::string& child : children) {
    uint64_t number;
    FileType type;
    if (ParseFileName(child, &number, &type) && type == want) n++;
  }
  return n;
}

class DbStoreBehaviorTest : public testing::Test {
 protected:
  void Open(const Options& opt, const std::string& name) {
    dir_ = test::NewTestDir(name);
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(opt, dir_, &raw).ok());
    db_.reset(raw);
  }

  std::string Sstables() {
    std::string v;
    db_->GetProperty("db.sstables", &v);
    return v;
  }

  std::string dir_;
  std::unique_ptr<DB> db_;
};

TEST_F(DbStoreBehaviorTest, SizeBasedScanMergeConsolidatesUnsorted) {
  Options opt;
  opt.write_buffer_size = 16 * 1024;
  opt.unsorted_limit = 8 * 1024 * 1024;  // Never a regular merge.
  opt.scan_merge_limit = 4;              // Consolidate at 4 tables.
  Open(opt, "behavior_scanmerge");

  // Each wave of ~40KiB forces a flush; after 4+ flushes the background
  // scan merge must fold the tables into one.
  for (int wave = 0; wave < 6; wave++) {
    for (int i = 0; i < 40; i++) {
      ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(wave * 1000 + i),
                           test::TestValue(i, 1024))
                      .ok());
    }
    ASSERT_TRUE(db_->FlushMemTable().ok());
  }
  // Allow the background thread to finish consolidation.
  std::string stats;
  for (int tries = 0; tries < 100; tries++) {
    db_->GetProperty("db.stats", &stats);
    if (stats.find("scan_merges=0") == std::string::npos) break;
    Env::Default()->SleepForMicroseconds(10000);
  }
  EXPECT_EQ(stats.find("scan_merges=0 "), std::string::npos)
      << "no scan merge happened: " << stats << Sstables();

  // Data intact afterwards (index was rebuilt for the merged table).
  for (int wave = 0; wave < 6; wave++) {
    for (int i = 0; i < 40; i += 7) {
      std::string value;
      ASSERT_TRUE(db_->Get(ReadOptions(),
                           test::TestKey(wave * 1000 + i), &value)
                      .ok())
          << wave << "/" << i;
      EXPECT_EQ(test::TestValue(i, 1024), value);
    }
  }

  // Scan-merge bytes reach the registry, EVENTS and the partition's
  // write_amp. CompactAll first, so no job is in flight while reading.
  ASSERT_TRUE(db_->CompactAll().ok());
  const CounterSnapshot snap = static_cast<UniKVDB*>(db_.get())
                                   ->TEST_metrics()
                                   .SnapshotCounters();
  ASSERT_EQ(1u, snap.partitions.size()) << Sstables();
  const auto& pc = snap.partitions.begin()->second;
  const uint64_t scan_merge_written = pc.at("scan_merge_bytes_written");
  EXPECT_GT(scan_merge_written, 0u);
  EXPECT_GT(pc.at("scan_merge_bytes_read"), 0u);
  EXPECT_EQ(SumEventField(dir_, "scan_merge", "bytes_written"),
            scan_merge_written);
  EXPECT_EQ(SumEventField(dir_, "scan_merge", "bytes_read"),
            pc.at("scan_merge_bytes_read"));
  const uint64_t user = pc.at("user_bytes_flushed");
  ASSERT_GT(user, 0u);
  const double expected =
      static_cast<double>(pc.at("flush_bytes") +
                          pc.at("merge_bytes_written") + scan_merge_written +
                          pc.at("gc_bytes_written")) /
      user;
  std::string json;
  ASSERT_TRUE(db_->GetProperty("db.metrics.json", &json));
  const size_t part = json.find("\"partitions\":");
  ASSERT_NE(std::string::npos, part);
  const size_t wamp = json.find("\"write_amp\":", part);
  ASSERT_NE(std::string::npos, wamp);
  const double write_amp =
      std::strtod(json.c_str() + wamp + std::strlen("\"write_amp\":"),
                  nullptr);
  EXPECT_NEAR(expected, write_amp, 1e-4 * expected) << json;
}

// Trigger values at or below a job's input floor must not make the
// workers spin on jobs with nothing to consume: CompactAll returns, and
// once the store is idle no job runs and the workers burn no CPU.
TEST_F(DbStoreBehaviorTest, DegenerateTriggersLeaveWorkersIdle) {
  struct Case {
    const char* name;
    void (*apply)(Options*);
  };
  const Case cases[] = {
      {"scan_merge_limit=0", [](Options* o) { o->scan_merge_limit = 0; }},
      {"scan_merge_limit=1", [](Options* o) { o->scan_merge_limit = 1; }},
      {"gc_garbage_threshold=0",
       [](Options* o) { o->gc_garbage_threshold = 0; }},
      {"unsorted_limit=0", [](Options* o) { o->unsorted_limit = 0; }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Options opt;
    c.apply(&opt);
    Open(opt, "behavior_triggers");
    auto wave = [this](int round) {
      for (int i = 0; i < 300; i++) {
        ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                             test::TestValue(round * 1000 + i, 200))
                        .ok());
      }
      ASSERT_TRUE(db_->FlushMemTable().ok());
    };
    for (int round = 0; round < 3; round++) wave(round);
    {
      Watchdog watchdog(std::string("CompactAll with ") + c.name);
      ASSERT_TRUE(db_->CompactAll().ok());
    }
    // One table in the UnsortedStore: the state a floor of 1 spins on.
    wave(3);

    auto jobs = [this] {
      std::string stats;
      db_->GetProperty("db.stats", &stats);
      uint64_t n = 0;
      for (const char* name : {" merges=", "scan_merges=", "gcs="}) {
        const size_t pos = stats.find(name);
        if (pos != std::string::npos) {
          n += std::strtoull(stats.c_str() + pos + std::strlen(name),
                             nullptr, 10);
        }
      }
      return n;
    };
    // Let the jobs the last flush legitimately triggers finish: wait for
    // the job count to hold still for 300 ms (bounded by the watchdog).
    {
      Watchdog watchdog(std::string("settling with ") + c.name);
      uint64_t last = jobs();
      for (int still = 0; still < 3;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        const uint64_t now = jobs();
        still = now == last ? still + 1 : 0;
        last = now;
      }
    }
    const uint64_t jobs_before = jobs();
    const double cpu_before = ProcessCpuSeconds();
    std::this_thread::sleep_for(std::chrono::seconds(1));
    EXPECT_EQ(jobs_before, jobs());
    EXPECT_LT(ProcessCpuSeconds() - cpu_before, 0.2);

    for (int i = 0; i < 300; i += 17) {
      std::string value;
      ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(i), &value).ok());
      EXPECT_EQ(test::TestValue(3000 + i, 200), value);
    }
    db_.reset();
  }
}

TEST_F(DbStoreBehaviorTest, ScanMergeKeepsNewestVersionAndTombstones) {
  Options opt;
  opt.write_buffer_size = 16 * 1024;
  opt.unsorted_limit = 8 * 1024 * 1024;
  opt.scan_merge_limit = 3;
  Open(opt, "behavior_scanmerge2");

  // Wave 1: put keys; wave 2: overwrite some; wave 3: delete some.
  for (int i = 0; i < 30; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                         test::TestValue(i, 1024)).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  for (int i = 0; i < 30; i += 2) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i), "v2").ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  for (int i = 0; i < 30; i += 3) {
    ASSERT_TRUE(db_->Delete(WriteOptions(), test::TestKey(i)).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  // Wait for the scan merge.
  std::string stats;
  for (int tries = 0; tries < 100; tries++) {
    db_->GetProperty("db.stats", &stats);
    if (stats.find("scan_merges=0") == std::string::npos) break;
    Env::Default()->SleepForMicroseconds(10000);
  }

  for (int i = 0; i < 30; i++) {
    std::string value;
    Status s = db_->Get(ReadOptions(), test::TestKey(i), &value);
    if (i % 3 == 0) {
      EXPECT_TRUE(s.IsNotFound()) << i;
    } else if (i % 2 == 0) {
      ASSERT_TRUE(s.ok()) << i;
      EXPECT_EQ("v2", value);
    } else {
      ASSERT_TRUE(s.ok()) << i;
      EXPECT_EQ(test::TestValue(i, 1024), value);
    }
  }
}

// Unsorted tables of the given sizes, oldest first, as a version holds
// them: each is its partition's alone, so its share is its size.
std::vector<FileMeta> UnsortedTables(const std::vector<uint64_t>& sizes) {
  std::vector<FileMeta> unsorted;
  for (size_t i = 0; i < sizes.size(); i++) {
    FileMeta f;
    f.number = 100 + i;
    f.table_id = static_cast<uint32_t>(i);
    f.size = f.share = sizes[i];
    unsorted.push_back(f);
  }
  return unsorted;
}


using RunRange = std::pair<size_t, size_t>;

TEST(PickScanMergeRunTest, EqualSizesTakeEveryTable) {
  EXPECT_EQ(RunRange(0, 5), PickScanMergeRun(UnsortedTables(
                           {70000, 71000, 72000, 73000, 74000})));
}

TEST(PickScanMergeRunTest, BigTableUnderSmallOnesIsLeftInPlace) {
  EXPECT_EQ(RunRange(1, 5), PickScanMergeRun(UnsortedTables(
                           {1000000, 70000, 70000, 70000, 70000})));
}

TEST(PickScanMergeRunTest, LargerGroupWinsAndTiesGoToTheNewer) {
  // Three big (positions 0-2) under two small: the bigger group wins.
  EXPECT_EQ(RunRange(0, 3), PickScanMergeRun(UnsortedTables(
                           {500000, 400000, 450000, 70000, 80000})));
  // Two and two: the newer group.
  EXPECT_EQ(RunRange(2, 4), PickScanMergeRun(UnsortedTables(
                           {400000, 450000, 70000, 80000})));
}

TEST(PickScanMergeRunTest, NoPairWithinTwiceTakesEveryTable) {
  EXPECT_EQ(RunRange(0, 4),
            PickScanMergeRun(UnsortedTables({1000, 3000, 9000, 27000})));
}

TEST(PickScanMergeRunTest, SmallTablesOnBothSidesOfABigOne) {
  // A scan-merge output (position 3) sits between older and newer small
  // tables: the run never reaches across it, and the older group wins by
  // length.
  EXPECT_EQ(RunRange(0, 3), PickScanMergeRun(UnsortedTables(
                           {70000, 70000, 70000, 900000, 70000})));
}

// A flush table shared by several partitions counts only the share each
// partition owns: a big output stays out of a run of small shares of
// big files.
TEST(PickScanMergeRunTest, SharesNotFileSizesGroupTables) {
  std::vector<FileMeta> unsorted = UnsortedTables(
      {800000, 1000000, 1000000, 1000000, 1000000});
  for (size_t i = 1; i < unsorted.size(); i++) unsorted[i].share = 70000;
  EXPECT_EQ(RunRange(1, 5), PickScanMergeRun(unsorted));
}

// Keys in `model` read back through Get, MultiGet, Scan and a reverse
// iterator, and no other key of [0, key_space) does.
void ExpectMatchesModel(DB* db, const std::map<int, std::string>& model,
                        int key_space) {
  std::vector<std::string> key_bufs;
  for (int i = 0; i < key_space; i++) key_bufs.push_back(test::TestKey(i));
  for (int i = 0; i < key_space; i++) {
    std::string value;
    Status s = db->Get(ReadOptions(), key_bufs[i], &value);
    auto it = model.find(i);
    if (it == model.end()) {
      EXPECT_TRUE(s.IsNotFound()) << i << " " << s.ToString();
    } else {
      ASSERT_TRUE(s.ok()) << i << " " << s.ToString();
      EXPECT_EQ(it->second, value) << i;
    }
  }
  const std::vector<Slice> keys(key_bufs.begin(), key_bufs.end());
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_TRUE(db->MultiGet(ReadOptions(), keys, &values, &statuses).ok());
  for (int i = 0; i < key_space; i++) {
    auto it = model.find(i);
    if (it == model.end()) {
      EXPECT_TRUE(statuses[i].IsNotFound()) << i;
    } else {
      ASSERT_TRUE(statuses[i].ok()) << i << " " << statuses[i].ToString();
      EXPECT_EQ(it->second, values[i]) << i;
    }
  }
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(
      db->Scan(ReadOptions(), test::TestKey(0), key_space + 1, &rows).ok());
  ASSERT_EQ(model.size(), rows.size());
  auto mit = model.begin();
  for (size_t r = 0; r < rows.size(); r++, ++mit) {
    EXPECT_EQ(test::TestKey(mit->first), rows[r].first);
    EXPECT_EQ(mit->second, rows[r].second) << mit->first;
  }
  std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));
  auto rit = model.rbegin();
  for (iter->SeekToLast(); iter->Valid(); iter->Prev(), ++rit) {
    ASSERT_NE(model.rend(), rit);
    EXPECT_EQ(test::TestKey(rit->first), iter->key().ToString());
    EXPECT_EQ(rit->second, iter->value().ToString()) << rit->first;
  }
  EXPECT_EQ(model.rend(), rit);
  EXPECT_TRUE(iter->status().ok()) << iter->status().ToString();
}

TEST_F(DbStoreBehaviorTest, ScanMergeLeavesBigOutputUnderFreshFlushes) {
  Options opt;
  opt.write_buffer_size = 8 << 20;       // Only FlushMemTable flushes.
  opt.unsorted_limit = 64 << 20;         // Never a regular merge.
  opt.scan_merge_limit = 4;
  Open(opt, "behavior_partial_scanmerge");
  const int kKeySpace = 400;
  std::map<int, std::string> model;
  auto put = [&](int i, int version) {
    const std::string value = test::TestValue(version * 1000 + i, 300);
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i), value).ok());
    model[i] = value;
  };
  auto scan_merges = [this] {
    std::string stats;
    db_->GetProperty("db.stats", &stats);
    const size_t pos = stats.find("scan_merges=");
    return std::strtoull(stats.c_str() + pos + std::strlen("scan_merges="),
                         nullptr, 10);
  };
  auto await_scan_merges = [&](uint64_t n) {
    for (int tries = 0; tries < 1000 && scan_merges() < n; tries++) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_EQ(n, scan_merges()) << Sstables();
  };

  // Four similar flushes of overlapping keys fold into one big table.
  for (int wave = 0; wave < 4; wave++) {
    for (int i = wave * 50; i < wave * 50 + 200; i++) put(i, wave);
    ASSERT_TRUE(db_->FlushMemTable().ok());
  }
  ASSERT_NO_FATAL_FAILURE(await_scan_merges(1));

  // Three small flushes stacked on it: overwrites of the big table's keys,
  // a tombstone for one, and new keys. The next scan-merge folds only
  // them.
  put(10, 10);
  put(380, 10);
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), test::TestKey(20)).ok());
  model.erase(20);
  put(10, 11);
  ASSERT_TRUE(db_->FlushMemTable().ok());
  put(30, 12);
  put(390, 12);
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_NO_FATAL_FAILURE(await_scan_merges(2));
  EXPECT_EQ(1u, SumEventField(dir_, "scan_merge", "kept_tables"));
  EXPECT_EQ(4u + 3u, SumEventField(dir_, "scan_merge", "input_tables"));
  EXPECT_NE(std::string::npos, Sstables().find("unsorted=2 ")) << Sstables();

  // Fresh tables over the pair, one key still in the memtable.
  put(40, 13);
  ASSERT_TRUE(db_->FlushMemTable().ok());
  put(30, 14);
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesModel(db_.get(), model, kKeySpace));

  std::string entries_live, entries_rebuilt;
  ASSERT_TRUE(db_->GetProperty("db.hash-index-entries", &entries_live));
  db_.reset();
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(opt, dir_, &raw).ok());
  db_.reset(raw);
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesModel(db_.get(), model, kKeySpace));
  // Recovery flushes the memtable's one key into one more table.
  ASSERT_TRUE(db_->GetProperty("db.hash-index-entries", &entries_rebuilt));
  EXPECT_EQ(std::stoull(entries_live) + 1, std::stoull(entries_rebuilt));
}

TEST_F(DbStoreBehaviorTest, SmallValuesStayInline) {
  Options opt;
  opt.write_buffer_size = 32 * 1024;
  opt.unsorted_limit = 64 * 1024;
  opt.value_separation_threshold = 128;
  Open(opt, "behavior_inline");

  // All values below the threshold: after merging, no value log should
  // exist (differentiated small-KV management).
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), test::TestKey(i), test::TestValue(i, 64))
            .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_EQ(0, CountFiles(dir_, FileType::kValueLogFile)) << Sstables();
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(42), &value).ok());
  EXPECT_EQ(test::TestValue(42, 64), value);

  // Mixed sizes: large values go to the log, small stay inline, and both
  // read back correctly (incl. through scans).
  for (int i = 2000; i < 2200; i++) {
    size_t len = (i % 2 == 0) ? 32 : 2048;
    ASSERT_TRUE(
        db_->Put(WriteOptions(), test::TestKey(i), test::TestValue(i, len))
            .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_GT(CountFiles(dir_, FileType::kValueLogFile), 0);
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(db_->Scan(ReadOptions(), test::TestKey(2000), 200, &rows).ok());
  ASSERT_EQ(200u, rows.size());
  for (int i = 0; i < 200; i++) {
    size_t len = ((2000 + i) % 2 == 0) ? 32 : 2048;
    EXPECT_EQ(test::TestValue(2000 + i, len), rows[i].second) << i;
  }
}

TEST_F(DbStoreBehaviorTest, HashIndexClearedAfterMergeStillServesReads) {
  Options opt;
  opt.write_buffer_size = 16 * 1024;
  opt.unsorted_limit = 64 * 1024;
  Open(opt, "behavior_index_epochs");

  std::string entries_before, entries_after;
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                         test::TestValue(i, 256))
                    .ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  db_->GetProperty("db.hash-index-entries", &entries_before);
  EXPECT_GT(std::stoll(entries_before), 0);

  ASSERT_TRUE(db_->CompactAll().ok());  // Merge clears the index.
  db_->GetProperty("db.hash-index-entries", &entries_after);
  EXPECT_EQ(0, std::stoll(entries_after));

  // Reads now come from the SortedStore path.
  for (int i = 0; i < 500; i += 11) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(i), &value).ok()) << i;
    EXPECT_EQ(test::TestValue(i, 256), value);
  }

  // A new epoch repopulates the index.
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i), "epoch2").ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  db_->GetProperty("db.hash-index-entries", &entries_after);
  EXPECT_GT(std::stoll(entries_after), 0);
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(5), &value).ok());
  EXPECT_EQ("epoch2", value);
}

TEST_F(DbStoreBehaviorTest, NegativeLookupsTouchAtMostOneSortedTable) {
  Options opt;
  opt.write_buffer_size = 32 * 1024;
  opt.unsorted_limit = 64 * 1024;
  Open(opt, "behavior_negative");
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i * 2),
                         test::TestValue(i, 256))
                    .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());

  // Absent keys inside the range: NotFound, never a false value.
  for (int i = 0; i < 1000; i += 13) {
    std::string value;
    EXPECT_TRUE(db_->Get(ReadOptions(), test::TestKey(i * 2 + 1), &value)
                    .IsNotFound())
        << i;
  }
  // Absent keys outside the range.
  std::string value;
  EXPECT_TRUE(db_->Get(ReadOptions(), "zzzz", &value).IsNotFound());
  EXPECT_TRUE(db_->Get(ReadOptions(), "", &value).IsNotFound());
}

uint64_t EngineCounter(DB* db, const char* name) {
  return static_cast<UniKVDB*>(db)->TEST_metrics().SnapshotCounters().engine.at(
      name);
}

// Waits (bounded by a watchdog) until engine counter `name` reaches `n`.
void WaitForCounter(DB* db, const char* name, uint64_t n) {
  Watchdog watchdog(std::string("waiting for ") + name);
  while (EngineCounter(db, name) < n) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Get, MultiGet and Scan all read `value` for key "k".
void ExpectKReads(DB* db, const std::string& value) {
  std::string got;
  Status s = db->Get(ReadOptions(), "k", &got);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(value, got);
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_TRUE(db->MultiGet(ReadOptions(), {Slice("k")}, &values, &statuses)
                  .ok());
  ASSERT_TRUE(statuses[0].ok()) << statuses[0].ToString();
  EXPECT_EQ(value, values[0]);
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(db->Scan(ReadOptions(), "k", 1, &rows).ok());
  ASSERT_EQ(1u, rows.size());
  EXPECT_EQ(value, rows[0].second);
}

// A partition whose UnsortedStore never empties keeps raising its newest
// table_id: scan-merges dedup a small, repeatedly overwritten key set, so
// it never reaches unsorted_limit. Ages past 16 bits must still read the
// newest value: a 16-bit age would reach the hash index's empty-slot
// marker (0xFFFF) after 65,535 flushes, and then wrap.
TEST(UnsortedTableAgeTest, AgesPastSixteenBitsReadTheNewestValue) {
  std::unique_ptr<MemEnv> env(NewMemEnv());
  Options opt;
  opt.env = env.get();
  opt.unsorted_limit = 1ull << 30;
  opt.scan_merge_limit = 2;
  const std::string dbname = "/age_wrap";
  auto open = [&](std::unique_ptr<DB>* db) {
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(opt, dbname, &raw).ok());
    db->reset(raw);
  };
  std::unique_ptr<DB> db;
  ASSERT_NO_FATAL_FAILURE(open(&db));
  ASSERT_TRUE(db->Put(WriteOptions(), "k", "v0").ok());
  ASSERT_TRUE(db->FlushMemTable().ok());
  db.reset();

  // Give the only unsorted table age 65533. Apply adds before it removes,
  // so moving the table to a new age takes two edits.
  {
    VersionSet versions(env.get(), dbname);
    ASSERT_TRUE(versions.Recover(false, false).ok());
    // Pinned: the first edit retires the version `p` lives in.
    const VersionPtr ver = versions.current();
    const PartitionState& p = *ver->partitions[0];
    ASSERT_EQ(1u, p.unsorted.size());
    FileMeta f = p.unsorted[0];
    f.table_id = 65533;
    VersionEdit remove;
    remove.RemoveUnsortedFile(p.id, f.number);
    ASSERT_TRUE(versions.LogAndApply(&remove).ok());
    VersionEdit add;
    add.AddUnsortedFile(p.id, f);
    ASSERT_TRUE(versions.LogAndApply(&add).ok());
  }

  ASSERT_NO_FATAL_FAILURE(open(&db));
  ASSERT_NO_FATAL_FAILURE(ExpectKReads(db.get(), "v0"));
  for (int i = 1; i <= 3; i++) {
    SCOPED_TRACE(i);
    const std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(db->Put(WriteOptions(), "k", value).ok());
    ASSERT_TRUE(db->FlushMemTable().ok());
    // Two tables: one scan-merge folds them, keeping the newer age.
    WaitForCounter(db.get(), "scan_merges", i);
    ASSERT_NO_FATAL_FAILURE(ExpectKReads(db.get(), value));
  }
  db.reset();
  ASSERT_NO_FATAL_FAILURE(open(&db));
  ASSERT_NO_FATAL_FAILURE(ExpectKReads(db.get(), "v3"));
}

// With scan-merges off, nothing else bounds a partition's table count
// below unsorted_limit; the count cap merges it, so index positions stay
// far below HashIndex::kMaxPositions.
TEST(UnsortedTableAgeTest, TableCountCapMergesWithoutScanOptimization) {
  std::unique_ptr<MemEnv> env(NewMemEnv());
  Options opt;
  opt.env = env.get();
  opt.unsorted_limit = 1ull << 30;
  opt.enable_scan_optimization = false;
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(opt, "/table_cap", &raw).ok());
  std::unique_ptr<DB> db(raw);
  const size_t cap = UniKVDB::kMaxUnsortedTables;
  for (size_t i = 0; i < cap; i++) {
    // One table short of the cap, nothing has merged.
    if (i + 1 == cap) {
      EXPECT_EQ(0u, EngineCounter(db.get(), "merges"));
    }
    ASSERT_TRUE(
        db->Put(WriteOptions(), "k", "v" + std::to_string(i)).ok());
    ASSERT_TRUE(db->FlushMemTable().ok());
  }
  WaitForCounter(db.get(), "merges", 1);
  ASSERT_NO_FATAL_FAILURE(
      ExpectKReads(db.get(), "v" + std::to_string(cap - 1)));
}

// A scan-merge that dropped no version (every key was new) is not
// repeated: at the next count trigger the partition merges into the
// SortedStore, which rewrites those tables once. Overwrites keep
// scan-merging (ScanMergeLeavesBigOutputUnderFreshFlushes).
TEST(UnsortedTableAgeTest, NewKeysMergeInsteadOfScanMergingAgain) {
  std::unique_ptr<MemEnv> env(NewMemEnv());
  Options opt;
  opt.env = env.get();
  opt.unsorted_limit = 1ull << 30;  // Never a size-triggered merge.
  opt.scan_merge_limit = 4;
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(opt, "/new_keys", &raw).ok());
  std::unique_ptr<DB> db(raw);
  int next = 0;
  auto flush_new_keys = [&] {
    for (int i = 0; i < 50; i++, next++) {
      ASSERT_TRUE(db->Put(WriteOptions(), test::TestKey(next),
                          test::TestValue(next, 300))
                      .ok());
    }
    ASSERT_TRUE(db->FlushMemTable().ok());
  };
  for (int t = 0; t < 4; t++) ASSERT_NO_FATAL_FAILURE(flush_new_keys());
  WaitForCounter(db.get(), "scan_merges", 1);
  EXPECT_EQ(0u, EngineCounter(db.get(), "merges"));
  // The output and three more tables reach the trigger again.
  for (int t = 0; t < 3; t++) ASSERT_NO_FATAL_FAILURE(flush_new_keys());
  WaitForCounter(db.get(), "merges", 1);
  EXPECT_EQ(1u, EngineCounter(db.get(), "scan_merges"));
  for (int i = 0; i < next; i++) {
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), test::TestKey(i), &value).ok()) << i;
    EXPECT_EQ(test::TestValue(i, 300), value);
  }
}

// Holds every RemoveFile while closed, so a test can keep a job's
// obsolete-file sweep in flight.
class LatchedRemoveEnv : public InstrumentedEnv {
 public:
  explicit LatchedRemoveEnv(Env* base) : InstrumentedEnv(base) {}

  void SetOpen(bool open) { open_.store(open); }
  int Blocked() const { return blocked_.load(); }

  Status RemoveFile(const std::string& fname) override {
    blocked_.fetch_add(1);
    while (!open_.load()) SleepForMicroseconds(1000);
    blocked_.fetch_sub(1);
    return InstrumentedEnv::RemoveFile(fname);
  }

 private:
  std::atomic<bool> open_{true};
  std::atomic<int> blocked_{0};
};

// FlushMemTable returns once the flush's worker has also swept the files
// the flush made obsolete (here the retired WAL), not when the install
// wakes it.
TEST(FlushMemTableTest, ReturnsOnlyAfterTheFlushSweep) {
  std::unique_ptr<MemEnv> mem(NewMemEnv());
  LatchedRemoveEnv env(mem.get());
  Options opt;
  opt.env = &env;
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(opt, "/flush_sweep", &raw).ok());
  std::unique_ptr<DB> db(raw);
  ASSERT_TRUE(db->Put(WriteOptions(), "k", "v").ok());

  env.SetOpen(false);
  std::atomic<bool> returned{false};
  std::thread flusher([&] {
    EXPECT_TRUE(db->FlushMemTable().ok());
    returned.store(true);
  });
  {
    Watchdog watchdog("the flush's sweep");
    while (env.Blocked() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(returned.load());
  env.SetOpen(true);
  flusher.join();
  EXPECT_TRUE(returned.load());
}

}  // namespace
}  // namespace unikv
