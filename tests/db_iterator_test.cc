// Iterator semantics over the full UniKV stack: ordering, tombstone
// hiding, value-pointer resolution, forward/backward mixes, Scan().

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "test_util.h"
#include "util/env.h"
#include "util/perf_context.h"
#include "util/random.h"
#include "util/sync.h"

namespace unikv {
namespace {

Options SmallOptions() {
  Options opt;
  opt.write_buffer_size = 64 * 1024;
  opt.unsorted_limit = 256 * 1024;
  opt.partition_size_limit = 2 * 1024 * 1024;
  opt.sorted_table_size = 64 * 1024;
  opt.scan_merge_limit = 4;
  return opt;
}

class DbIteratorTest : public testing::Test {
 protected:
  void Open(const Options& opt, const std::string& name) {
    dir_ = test::NewTestDir(name);
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(opt, dir_, &raw).ok());
    db_.reset(raw);
  }

  // Populates the DB and a model, with data spread over memtable,
  // UnsortedStore and SortedStore.
  void FillLayered(std::map<std::string, std::string>* model) {
    // Oldest batch -> SortedStore.
    for (int i = 0; i < 300; i++) {
      std::string key = test::TestKey(i * 3);
      std::string value = "sorted" + std::to_string(i);
      ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
      (*model)[key] = value;
    }
    ASSERT_TRUE(db_->CompactAll().ok());
    // Middle batch -> UnsortedStore.
    for (int i = 0; i < 200; i++) {
      std::string key = test::TestKey(i * 5 + 1);
      std::string value = "unsorted" + std::to_string(i);
      ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
      (*model)[key] = value;
    }
    ASSERT_TRUE(db_->FlushMemTable().ok());
    // Newest batch -> memtable (plus some overwrites and deletes).
    for (int i = 0; i < 100; i++) {
      std::string key = test::TestKey(i * 7 + 2);
      std::string value = "mem" + std::to_string(i);
      ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
      (*model)[key] = value;
    }
    for (int i = 0; i < 50; i++) {
      std::string key = test::TestKey(i * 6);
      ASSERT_TRUE(db_->Delete(WriteOptions(), key).ok());
      model->erase(key);
    }
  }

  std::string dir_;
  // Declared before db_, so a DB opened on a test's own Env closes first.
  std::unique_ptr<Env> env_;
  std::unique_ptr<DB> db_;
};

// Counts readahead hints on every file and records which threads read
// which value logs, between two Reset() calls.
class ScanProbeEnv : public InstrumentedEnv {
 public:
  explicit ScanProbeEnv(Env* base) : InstrumentedEnv(base) {}

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    Status s = InstrumentedEnv::NewRandomAccessFile(fname, result);
    if (s.ok()) {
      *result = std::make_unique<ProbeFile>(this, fname, std::move(*result));
    }
    return s;
  }

  void Reset() {
    hints.store(0);
    MutexLock l(&mu_);
    log_readers_.clear();
    logs_read_.clear();
  }

  std::set<std::thread::id> LogReaders() {
    MutexLock l(&mu_);
    return log_readers_;
  }
  size_t LogsRead() {
    MutexLock l(&mu_);
    return logs_read_.size();
  }

  std::atomic<int> hints{0};

 private:
  Mutex mu_;
  std::set<std::thread::id> log_readers_ GUARDED_BY(mu_);
  std::set<std::string> logs_read_ GUARDED_BY(mu_);

  class ProbeFile : public RandomAccessFile {
   public:
    ProbeFile(ScanProbeEnv* env, std::string fname,
              std::unique_ptr<RandomAccessFile> base)
        : env_(env), fname_(std::move(fname)), base_(std::move(base)) {}

    Status Read(uint64_t offset, size_t n, Slice* result,
                char* scratch) const override {
      Note();
      return base_->Read(offset, n, result, scratch);
    }
    bool ReadZeroCopy(uint64_t offset, size_t n,
                      Slice* result) const override {
      Note();
      return base_->ReadZeroCopy(offset, n, result);
    }
    void ReadaheadHint(uint64_t offset, size_t n) const override {
      env_->hints.fetch_add(1);
      base_->ReadaheadHint(offset, n);
    }

   private:
    void Note() const {
      if (!fname_.ends_with(".vlog")) return;
      MutexLock l(&env_->mu_);
      env_->log_readers_.insert(std::this_thread::get_id());
      env_->logs_read_.insert(fname_);
    }

    ScanProbeEnv* const env_;
    const std::string fname_;
    const std::unique_ptr<RandomAccessFile> base_;
  };
};

TEST_F(DbIteratorTest, EmptyDbIterator) {
  Open(SmallOptions(), "iter_empty");
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
  iter->SeekToLast();
  EXPECT_FALSE(iter->Valid());
  iter->Seek("anything");
  EXPECT_FALSE(iter->Valid());
  EXPECT_TRUE(iter->status().ok());
}

TEST_F(DbIteratorTest, FullForwardMatchesModel) {
  Open(SmallOptions(), "iter_fwd");
  std::map<std::string, std::string> model;
  FillLayered(&model);

  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  auto mit = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++mit) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(mit->first, iter->key().ToString());
    EXPECT_EQ(mit->second, iter->value().ToString());
  }
  EXPECT_EQ(mit, model.end());
  EXPECT_TRUE(iter->status().ok());
}

TEST_F(DbIteratorTest, FullBackwardMatchesModel) {
  Open(SmallOptions(), "iter_bwd");
  std::map<std::string, std::string> model;
  FillLayered(&model);

  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  auto mit = model.rbegin();
  for (iter->SeekToLast(); iter->Valid(); iter->Prev(), ++mit) {
    ASSERT_NE(mit, model.rend());
    EXPECT_EQ(mit->first, iter->key().ToString());
    EXPECT_EQ(mit->second, iter->value().ToString());
  }
  EXPECT_EQ(mit, model.rend());
}

TEST_F(DbIteratorTest, SeekLandsOnLowerBound) {
  Open(SmallOptions(), "iter_seek");
  std::map<std::string, std::string> model;
  FillLayered(&model);

  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  Random rnd(5);
  for (int trial = 0; trial < 50; trial++) {
    std::string target = test::TestKey(rnd.Uniform(1200));
    iter->Seek(target);
    auto mit = model.lower_bound(target);
    if (mit == model.end()) {
      EXPECT_FALSE(iter->Valid()) << target;
    } else {
      ASSERT_TRUE(iter->Valid()) << target;
      EXPECT_EQ(mit->first, iter->key().ToString());
      EXPECT_EQ(mit->second, iter->value().ToString());
    }
  }
}

TEST_F(DbIteratorTest, DirectionSwitches) {
  Open(SmallOptions(), "iter_switch");
  std::map<std::string, std::string> model;
  FillLayered(&model);

  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  iter->SeekToFirst();
  ASSERT_TRUE(iter->Valid());
  std::string first = iter->key().ToString();
  iter->Next();
  ASSERT_TRUE(iter->Valid());
  iter->Prev();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(first, iter->key().ToString());
  iter->Prev();
  EXPECT_FALSE(iter->Valid());

  // Zigzag in the middle.
  iter->Seek(test::TestKey(500));
  ASSERT_TRUE(iter->Valid());
  std::string a = iter->key().ToString();
  iter->Next();
  ASSERT_TRUE(iter->Valid());
  std::string b = iter->key().ToString();
  EXPECT_LT(a, b);
  iter->Prev();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(a, iter->key().ToString());
}

TEST_F(DbIteratorTest, SnapshotIsolationFromLaterWrites) {
  Open(SmallOptions(), "iter_snapshot");
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i), "before").ok());
  }
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  // Writes after iterator creation are invisible to it.
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i), "after").ok());
  }
  ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(200), "new-key").ok());
  int count = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), count++) {
    EXPECT_EQ("before", iter->value().ToString());
  }
  EXPECT_EQ(100, count);
}

// ReadOptions::snapshot pins Get, MultiGet and iterators alike to the
// version written before an overwrite: while both versions sit in the
// memtable, and after FlushMemTable moves them into the UnsortedStore
// (keys 0..49 flush both versions into one table, keys 50..99 have their
// old version in an earlier table than the overwrite).
TEST_F(DbIteratorTest, ReadOptionsSnapshotPinsEveryReadApi) {
  Open(SmallOptions(), "iter_read_snapshot");
  auto old_value = [](int i) { return "old" + test::TestValue(i, 32); };
  auto new_value = [](int i) { return "new" + test::TestValue(i, 32); };
  for (int i = 50; i < 100; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i), old_value(i)).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i), old_value(i)).ok());
  }
  std::string seq;
  ASSERT_TRUE(db_->GetProperty("db.visible-sequence", &seq));
  ReadOptions pinned;
  pinned.snapshot = std::strtoull(seq.c_str(), nullptr, 10);
  ASSERT_GT(pinned.snapshot, 0u);
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i), new_value(i)).ok());
  }

  std::vector<std::string> key_bufs;
  for (int i = 0; i < 100; i++) key_bufs.push_back(test::TestKey(i));
  const std::vector<Slice> keys(key_bufs.begin(), key_bufs.end());
  auto check = [&](const char* where) {
    SCOPED_TRACE(where);
    std::string v;
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(db_->Get(pinned, keys[i], &v).ok());
      EXPECT_EQ(old_value(i), v);
      ASSERT_TRUE(db_->Get(ReadOptions(), keys[i], &v).ok());
      EXPECT_EQ(new_value(i), v);
    }
    std::vector<std::string> values;
    std::vector<Status> statuses;
    ASSERT_TRUE(db_->MultiGet(pinned, keys, &values, &statuses).ok());
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(statuses[i].ok());
      EXPECT_EQ(old_value(i), values[i]);
    }
    std::unique_ptr<Iterator> iter(db_->NewIterator(pinned));
    int i = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next(), i++) {
      ASSERT_LT(i, 100);
      EXPECT_EQ(key_bufs[i], iter->key().ToString());
      EXPECT_EQ(old_value(i), iter->value().ToString());
    }
    EXPECT_TRUE(iter->status().ok());
    EXPECT_EQ(100, i);
  };
  check("memtable");
  ASSERT_TRUE(db_->FlushMemTable().ok());
  check("unsorted store");
}

// fill_cache=false keeps point reads from caching the SortedStore data
// blocks they read: a cold key read twice misses the block cache both
// times, through Get and MultiGet alike. With the default the first read
// caches the block and the second hits it.
TEST_F(DbIteratorTest, ReadOptionsFillCacheHoldsForPointReads) {
  Open(SmallOptions(), "iter_fill_cache");
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), test::TestKey(i), test::TestValue(i, 100))
            .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());  // Every key lives in SortedStore.

  ReadOptions no_fill;
  no_fill.fill_cache = false;
  PerfContext* perf = GetPerfContext();
  // Reads key `i` once through Get or a one-key MultiGet and returns the
  // block-cache delta as (misses, hits).
  auto read = [&](const ReadOptions& ro, int i, bool multiget) {
    const std::string key = test::TestKey(i);
    const PerfContext before = *perf;
    if (multiget) {
      std::vector<std::string> values;
      std::vector<Status> statuses;
      EXPECT_TRUE(db_->MultiGet(ro, {Slice(key)}, &values, &statuses).ok());
      EXPECT_TRUE(statuses[0].ok()) << statuses[0].ToString();
      EXPECT_EQ(test::TestValue(i, 100), values[0]);
    } else {
      std::string value;
      EXPECT_TRUE(db_->Get(ro, key, &value).ok());
      EXPECT_EQ(test::TestValue(i, 100), value);
    }
    const PerfContext d = perf->DeltaSince(before);
    return std::make_pair(d.block_cache_misses, d.block_cache_hits);
  };
  using Delta = std::pair<uint64_t, uint64_t>;
  for (bool multiget : {false, true}) {
    SCOPED_TRACE(multiget ? "MultiGet" : "Get");
    const int cold = multiget ? 1900 : 50;  // A block no read has touched.
    EXPECT_EQ(Delta(1, 0), read(no_fill, cold, multiget));
    EXPECT_EQ(Delta(1, 0), read(no_fill, cold, multiget));
    EXPECT_EQ(Delta(1, 0), read(ReadOptions(), cold, multiget));
    EXPECT_EQ(Delta(0, 1), read(ReadOptions(), cold, multiget));
    EXPECT_EQ(Delta(0, 1), read(no_fill, cold, multiget));  // Cached stays.
  }
}

TEST_F(DbIteratorTest, IteratorSurvivesConcurrentCompaction) {
  Open(SmallOptions(), "iter_compact");
  std::map<std::string, std::string> model;
  for (int i = 0; i < 500; i++) {
    std::string key = test::TestKey(i);
    std::string value = test::TestValue(i, 128);
    ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
    model[key] = value;
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  iter->SeekToFirst();
  // Force merges that rewrite everything underneath the iterator.
  ASSERT_TRUE(db_->CompactAll().ok());
  auto mit = model.begin();
  for (; iter->Valid(); iter->Next(), ++mit) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(mit->first, iter->key().ToString());
    EXPECT_EQ(mit->second, iter->value().ToString());
  }
  EXPECT_EQ(mit, model.end());
}

TEST_F(DbIteratorTest, ScanMatchesIterator) {
  Open(SmallOptions(), "iter_scan");
  std::map<std::string, std::string> model;
  FillLayered(&model);

  Random rnd(17);
  for (int trial = 0; trial < 20; trial++) {
    std::string start = test::TestKey(rnd.Uniform(1000));
    int count = 1 + rnd.Uniform(60);
    std::vector<std::pair<std::string, std::string>> scan_result;
    ASSERT_TRUE(db_->Scan(ReadOptions(), start, count, &scan_result).ok());

    auto mit = model.lower_bound(start);
    size_t i = 0;
    for (; mit != model.end() && i < static_cast<size_t>(count);
         ++mit, ++i) {
      ASSERT_LT(i, scan_result.size());
      EXPECT_EQ(mit->first, scan_result[i].first);
      EXPECT_EQ(mit->second, scan_result[i].second);
    }
    EXPECT_EQ(i, scan_result.size());
  }
}

TEST_F(DbIteratorTest, ScanWithOptimizationsOffMatches) {
  Options opt = SmallOptions();
  opt.enable_scan_optimization = false;
  Open(opt, "iter_scan_noopt");
  std::map<std::string, std::string> model;
  FillLayered(&model);

  std::vector<std::pair<std::string, std::string>> result;
  ASSERT_TRUE(db_->Scan(ReadOptions(), test::TestKey(0), 100, &result).ok());
  auto mit = model.lower_bound(test::TestKey(0));
  for (size_t i = 0; i < result.size(); i++, ++mit) {
    EXPECT_EQ(mit->first, result[i].first);
    EXPECT_EQ(mit->second, result[i].second);
  }
}

// A Scan reads its values the way MultiGet does: on the calling thread,
// with no readahead hints, however many logs they span; so does an
// iterator walk. Keys written in ten interleaved rounds, each merged on its
// own, leave the values of any 100 consecutive keys in ten value logs.
TEST_F(DbIteratorTest, ScanReadsValuesOnCallingThreadWithoutHints) {
  auto* env = new ScanProbeEnv(Env::Default());
  env_.reset(env);
  Options opt = SmallOptions();
  opt.env = env;
  Open(opt, "iter_scan_thread");
  const int kRounds = 10, kKeys = 400, kRows = 100;
  std::map<std::string, std::string> model;
  for (int round = 0; round < kRounds; round++) {
    for (int i = round; i < kKeys; i += kRounds) {
      std::string value = test::TestValue(i, 200);
      ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i), value).ok());
      model[test::TestKey(i)] = value;
    }
    ASSERT_TRUE(db_->CompactAll().ok());
  }
  const std::string start = test::TestKey(100);

  env->Reset();
  std::vector<std::pair<std::string, std::string>> scanned;
  ASSERT_TRUE(db_->Scan(ReadOptions(), start, kRows, &scanned).ok());
  EXPECT_EQ(0, env->hints.load());
  EXPECT_GE(env->LogsRead(), static_cast<size_t>(kRounds));
  EXPECT_EQ(std::set<std::thread::id>{std::this_thread::get_id()},
            env->LogReaders());

  env->Reset();
  std::vector<std::pair<std::string, std::string>> walked;
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  for (iter->Seek(start);
       iter->Valid() && static_cast<int>(walked.size()) < kRows;
       iter->Next()) {
    walked.emplace_back(iter->key().ToString(), iter->value().ToString());
  }
  ASSERT_TRUE(iter->status().ok());
  EXPECT_EQ(0, env->hints.load());
  EXPECT_EQ(std::set<std::thread::id>{std::this_thread::get_id()},
            env->LogReaders());

  ASSERT_EQ(static_cast<size_t>(kRows), scanned.size());
  EXPECT_EQ(scanned, walked);
  auto mit = model.find(start);
  for (const auto& [key, value] : scanned) {
    ASSERT_EQ(mit->first, key);
    ASSERT_EQ(mit->second, value);
    ++mit;
  }
}

}  // namespace
}  // namespace unikv
