// Concurrency tests: multiple writer threads (group commit), readers
// racing background merges/GC/splits, and iterators racing writers.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "test_util.h"
#include "util/env.h"
#include "util/random.h"

namespace unikv {
namespace {

Options BusyOptions() {
  Options opt;
  opt.write_buffer_size = 32 * 1024;
  opt.unsorted_limit = 128 * 1024;
  opt.partition_size_limit = 1 * 1024 * 1024;
  opt.sorted_table_size = 32 * 1024;
  opt.gc_garbage_threshold = 128 * 1024;
  return opt;
}

class DbConcurrencyTest : public testing::Test {
 protected:
  void Open(const std::string& name) {
    dir_ = test::NewTestDir(name);
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(BusyOptions(), dir_, &raw).ok());
    db_.reset(raw);
  }

  std::string dir_;
  // A test that opens db_ on its own Env hands the Env to env_. Declared
  // before db_, so the DB closes before its Env dies on every exit path.
  std::unique_ptr<Env> env_;
  std::unique_ptr<DB> db_;
};

TEST_F(DbConcurrencyTest, ParallelWritersAllLand) {
  Open("conc_writers");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1500;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([this, t, &failures] {
      for (int i = 0; i < kPerThread; i++) {
        std::string key = test::TestKey(t * kPerThread + i);
        if (!db_->Put(WriteOptions(), key, test::TestValue(i, 128)).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(0, failures.load());
  ASSERT_TRUE(db_->CompactAll().ok());
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kPerThread; i += 37) {
      std::string key = test::TestKey(t * kPerThread + i);
      std::string value;
      ASSERT_TRUE(db_->Get(ReadOptions(), key, &value).ok())
          << key;
      EXPECT_EQ(test::TestValue(i, 128), value);
    }
  }
}

TEST_F(DbConcurrencyTest, ReadersRaceWritersAndCompactions) {
  Open("conc_readers");
  // Seed a baseline every reader can rely on.
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), test::TestKey(i), "stable").ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; r++) {
    readers.emplace_back([this, r, &done, &violations] {
      Random rnd(r * 7 + 1);
      std::string value;
      while (!done.load(std::memory_order_acquire)) {
        // Baseline keys 0..999 must always resolve to a value: either
        // "stable" or a later overwrite. A miss or error is a violation.
        std::string key = test::TestKey(rnd.Uniform(1000));
        Status s = db_->Get(ReadOptions(), key, &value);
        if (!s.ok()) {
          violations.fetch_add(1);
        }
      }
    });
  }

  // Writer churns new keys and overwrites baseline ones, driving
  // flushes, merges, splits and GC underneath the readers.
  Random rnd(99);
  for (int i = 0; i < 8000; i++) {
    if (rnd.OneIn(4)) {
      ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(rnd.Uniform(1000)),
                           test::TestValue(i, 256))
                      .ok());
    } else {
      ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(1000 + i),
                           test::TestValue(i, 256))
                      .ok());
    }
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(0, violations.load());
}

TEST_F(DbConcurrencyTest, IteratorsRaceWriters) {
  Open("conc_iters");
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i * 2), "seed").ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::thread scanner([this, &done, &violations] {
    while (!done.load(std::memory_order_acquire)) {
      std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
      std::string prev;
      for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
        std::string key = iter->key().ToString();
        if (!prev.empty() && prev >= key) {
          violations.fetch_add(1);  // Must stay strictly sorted.
        }
        prev = key;
      }
      if (!iter->status().ok()) {
        violations.fetch_add(1);
      }
    }
  });

  Random rnd(5);
  for (int i = 0; i < 6000; i++) {
    std::string key = test::TestKey(rnd.Uniform(4000));
    if (rnd.OneIn(6)) {
      ASSERT_TRUE(db_->Delete(WriteOptions(), key).ok());
    } else {
      ASSERT_TRUE(db_->Put(WriteOptions(), key,
                           test::TestValue(i, 64 + rnd.Uniform(512)))
                      .ok());
    }
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  done.store(true, std::memory_order_release);
  scanner.join();
  EXPECT_EQ(0, violations.load());
}

TEST_F(DbConcurrencyTest, GroupCommitBatchesConcurrentWrites) {
  Open("conc_group");
  // Many tiny concurrent writes: correctness matters here, batching is
  // the mechanism. Mixed sync/async writers exercise the group-commit
  // boundary handling.
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; t++) {
    threads.emplace_back([this, t] {
      WriteOptions wo;
      wo.sync = (t % 3 == 0);
      for (int i = 0; i < 400; i++) {
        WriteBatch batch;
        batch.Put(test::TestKey(t * 1000 + i), "g");
        batch.Put(test::TestKey(t * 1000 + i + 500), "h");
        ASSERT_TRUE(db_->Write(wo, &batch).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < 6; t++) {
    std::string value;
    ASSERT_TRUE(
        db_->Get(ReadOptions(), test::TestKey(t * 1000 + 399), &value).ok());
    EXPECT_EQ("g", value);
    ASSERT_TRUE(
        db_->Get(ReadOptions(), test::TestKey(t * 1000 + 899), &value).ok());
    EXPECT_EQ("h", value);
  }
}

// Regression for a use-after-free between manual flush and concurrent
// writers: FlushMemTable used to rotate the memtable directly under mu_,
// swapping wal_/mem_ while a group-commit leader was appending to the old
// WAL with mu_ released. The fix routes the rotation through the writer
// queue as a null-batch sentinel, so it serializes with group commit like
// any other write. Run under TSAN (db_concurrency_tsan_test) this test
// reports the race on pre-fix code; without TSAN it still crashes often.
TEST_F(DbConcurrencyTest, ManualFlushRacesConcurrentWriters) {
  Open("conc_manual_flush");
  constexpr int kThreads = 4;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  int written[kThreads] = {0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; t++) {
    writers.emplace_back([this, t, &done, &failures, &written] {
      int i = 0;
      while (!done.load(std::memory_order_acquire)) {
        std::string key = test::TestKey(t * 1000000 + i);
        if (!db_->Put(WriteOptions(), key, test::TestValue(i, 64)).ok()) {
          failures.fetch_add(1);
          break;
        }
        i++;
      }
      written[t] = i;
    });
  }
  // Each call forces a WAL rotation racing the writers' group commit.
  // Writers are joined before any assertion so a failure can't destroy
  // joinable threads (std::terminate would mask the real diagnostic).
  Status flush_status;
  for (int f = 0; f < 100 && flush_status.ok(); f++) {
    flush_status = db_->FlushMemTable();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : writers) t.join();
  ASSERT_TRUE(flush_status.ok()) << flush_status.ToString();
  EXPECT_EQ(0, failures.load());
  // Every acked write must still be readable across the 100 rotations.
  std::string value;
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < written[t]; i += 97) {
      std::string key = test::TestKey(t * 1000000 + i);
      const Status gs = db_->Get(ReadOptions(), key, &value);
      ASSERT_TRUE(gs.ok()) << key << ": " << gs.ToString();
      EXPECT_EQ(test::TestValue(i, 64), value);
    }
  }
}

// --------------------------------------------------------------- overlap

// Forwards every call to `base`; the test Envs below override the calls
// they watch.
class ForwardingEnv : public Env {
 public:
  explicit ForwardingEnv(Env* base) : base_(base) {}

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    return base_->NewRandomAccessFile(fname, result);
  }
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    return base_->NewWritableFile(fname, result);
  }
  Status NewAppendableFile(const std::string& fname,
                           std::unique_ptr<WritableFile>* result) override {
    return base_->NewAppendableFile(fname, result);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  Status RemoveDir(const std::string& dirname) override {
    return base_->RemoveDir(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }
  Status SyncDir(const std::string& dirname) override {
    return base_->SyncDir(dirname);
  }
  uint64_t NowMicros() override { return base_->NowMicros(); }
  void SleepForMicroseconds(int micros) override {
    base_->SleepForMicroseconds(micros);
  }

 protected:
  Env* const base_;
};

// Forwards to a base Env but, while armed, turns appends to .sst/.vlog
// files into a rendezvous: the first background job to append parks
// inside the call (bounded wait) until a second job is also mid-append,
// and `max_in_flight` records the peak. Two jobs inside .sst/.vlog
// appends at once is direct proof the scheduler overlaps independent
// work — no wall-clock windows involved, so the proof cannot flake on a
// slow or single-CPU host (a sleeping first arriver yields the CPU to
// whichever worker owns the second job). WAL, manifest and EVENTS writes
// are not wrapped so the foreground isn't stalled.
class RendezvousEnv : public ForwardingEnv {
 public:
  using ForwardingEnv::ForwardingEnv;

  std::atomic<bool> armed{false};
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  // Park attempts are rationed: if the scheduler really serializes (the
  // regression this test exists to catch), every lone append would park
  // and the test would crawl; after the budget it free-runs and the
  // max_in_flight assertion reports the failure.
  std::atomic<int> park_budget{10};

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    std::unique_ptr<WritableFile> file;
    Status s = base_->NewWritableFile(fname, &file);
    if (!s.ok()) return s;
    if (fname.ends_with(".sst") || fname.ends_with(".vlog")) {
      *result = std::make_unique<RendezvousFile>(this, std::move(file));
    } else {
      *result = std::move(file);
    }
    return s;
  }

 private:
  class RendezvousFile : public WritableFile {
   public:
    RendezvousFile(RendezvousEnv* env, std::unique_ptr<WritableFile> base)
        : env_(env), base_(std::move(base)) {}
    Status Append(const Slice& data) override {
      if (!env_->armed.load(std::memory_order_acquire)) {
        return base_->Append(data);
      }
      const int cur = env_->in_flight.fetch_add(1) + 1;
      int prev = env_->max_in_flight.load();
      while (cur > prev &&
             !env_->max_in_flight.compare_exchange_weak(prev, cur)) {
      }
      if (cur >= 2) {
        // Pairing witnessed; nobody needs to park anymore.
        env_->armed.store(false, std::memory_order_release);
      } else if (env_->park_budget.fetch_sub(1,
                                             std::memory_order_relaxed) > 0) {
        // Lone arriver: park (bounded) until a peer is also mid-append —
        // the peer's own entry records max_in_flight >= 2 and disarms.
        for (int spin = 0; spin < 1000; spin++) {
          if (!env_->armed.load(std::memory_order_acquire) ||
              env_->in_flight.load(std::memory_order_acquire) >= 2) {
            break;
          }
          env_->SleepForMicroseconds(1000);
        }
      }
      Status s = base_->Append(data);
      env_->in_flight.fetch_sub(1);
      return s;
    }
    Status Close() override { return base_->Close(); }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override { return base_->Sync(); }

   private:
    RendezvousEnv* env_;
    std::unique_ptr<WritableFile> base_;
  };
};

// Pulls `"key":<uint>` out of one EVENTS JSON line. A needle with the
// leading quote can't accidentally match `"new_partition"` when asked
// for `"partition"`.
bool FindUintField(const std::string& line, const std::string& key,
                   uint64_t* out) {
  std::string needle = "\"" + key + "\":";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::strtoull(line.c_str() + pos + needle.size(), nullptr, 10);
  return true;
}

// The headline scheduler test: drive the store to several partitions,
// then trigger maintenance everywhere at once and prove two background
// jobs were *simultaneously* inside table/vlog appends via an Env-level
// rendezvous (an event-count witness, not a wall-clock window — the old
// timestamp-overlap version flaked whenever the host was slow enough to
// serialize short jobs). The EVENTS log then confirms the overlapping
// work spanned at least two distinct partitions. With a single-thread
// background loop the rendezvous never pairs and this fails.
TEST_F(DbConcurrencyTest, BackgroundJobsOverlapAcrossPartitions) {
  auto* env = new RendezvousEnv(Env::Default());
  env_.reset(env);
  Options opt = BusyOptions();
  opt.env = env;
  opt.partition_size_limit = 192 * 1024;
  opt.background_threads = 3;
  dir_ = test::NewTestDir("conc_overlap");
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(opt, dir_, &raw).ok());
  db_.reset(raw);

  // Phase 1 (delays off): grow to at least three partitions so there is
  // genuinely parallel per-partition work to schedule.
  int partitions = 0;
  for (int round = 0; round < 10 && partitions < 3; round++) {
    for (int i = 0; i < 1200; i++) {
      uint64_t k = (static_cast<uint64_t>(round) * 1200 + i) * 7919 % 100000;
      ASSERT_TRUE(
          db_->Put(WriteOptions(), test::TestKey(k), test::TestValue(k, 256))
              .ok());
    }
    ASSERT_TRUE(db_->CompactAll().ok());
    std::string np;
    ASSERT_TRUE(db_->GetProperty("db.num-partitions", &np));
    partitions = std::stoi(np);
  }
  ASSERT_GE(partitions, 3);

  // Phase 2: fresh updates into every partition, flushed quietly, so the
  // final CompactAll has a per-partition merge pending everywhere. Only
  // then arm the rendezvous: the first merge's append parks until a
  // second worker's merge is also mid-append.
  for (int i = 0; i < 600; i++) {
    uint64_t k = static_cast<uint64_t>(i) * 7919 % 100000;
    ASSERT_TRUE(
        db_->Put(WriteOptions(), test::TestKey(k), test::TestValue(k + 1, 256))
            .ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  const uint64_t phase2_start = Env::Default()->NowMicros();
  env->armed.store(true, std::memory_order_release);
  ASSERT_TRUE(db_->CompactAll().ok());
  env->armed.store(false, std::memory_order_release);
  db_.reset();  // Close so EVENTS is complete.

  EXPECT_GE(env->max_in_flight.load(), 2)
      << "no two background jobs were ever inside table/vlog appends "
         "simultaneously; the scheduler is serializing independent work";

  // The overlapping work must span partitions: the jobs' own EVENTS log
  // (ts_micros is stamped at completion, so phase-2 jobs are the lines
  // with ts >= phase2_start) shows merges in >= 2 distinct partitions.
  std::set<uint64_t> merged_partitions;
  std::ifstream events(dir_ + "/EVENTS");
  ASSERT_TRUE(events.is_open());
  std::string line;
  while (std::getline(events, line)) {
    uint64_t ts = 0, dur = 0, pid = 0;
    if (!FindUintField(line, "ts_micros", &ts) ||
        !FindUintField(line, "duration_micros", &dur) ||
        !FindUintField(line, "partition", &pid)) {
      continue;
    }
    if (ts < phase2_start) continue;
    merged_partitions.insert(pid);
  }
  EXPECT_GE(merged_partitions.size(), 2u)
      << "phase-2 maintenance did not span multiple partitions";

  // The parallel maintenance must not have lost anything.
  raw = nullptr;
  ASSERT_TRUE(DB::Open(opt, dir_, &raw).ok());
  db_.reset(raw);
  std::string value;
  for (int i = 0; i < 600; i += 29) {
    uint64_t k = static_cast<uint64_t>(i) * 7919 % 100000;
    ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(k), &value).ok()) << k;
    EXPECT_EQ(test::TestValue(k + 1, 256), value);
  }
}

// ----------------------------------------------------------------- sweep

// While armed, the next directory listing parks until released, and
// `entered` says a caller is parked there.
class ListingLatchEnv : public ForwardingEnv {
 public:
  using ForwardingEnv::ForwardingEnv;

  std::atomic<bool> armed{false};
  std::atomic<bool> entered{false};
  std::atomic<bool> released{false};

  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    if (armed.exchange(false)) {
      entered.store(true);
      while (!released.load()) SleepForMicroseconds(1000);
    }
    return base_->GetChildren(dir, result);
  }
};

// The obsolete-file sweep after every background job lists the directory
// off the DB mutex, so a point read, which takes the mutex, never waits
// for the listing.
TEST_F(DbConcurrencyTest, SweepListsTheDirectoryWithoutBlockingReads) {
  auto* env = new ListingLatchEnv(Env::Default());
  env_.reset(env);
  Options opt = BusyOptions();
  opt.env = env;
  opt.background_threads = 1;
  dir_ = test::NewTestDir("conc_sweep_listing");
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(opt, dir_, &raw).ok());
  db_.reset(raw);
  ASSERT_TRUE(db_->Put(WriteOptions(), "key", "value").ok());

  // The flush's sweep parks in its listing; FlushMemTable returns only
  // after that sweep.
  env->armed.store(true);
  Status flushed;
  std::thread flusher([&] { flushed = db_->FlushMemTable(); });
  for (int i = 0; i < 10000 && !env->entered.load(); i++) {
    env->SleepForMicroseconds(1000);
  }
  const bool parked = env->entered.load();

  std::atomic<bool> read{false};
  Status got;
  std::string value;
  std::thread reader([&] {
    got = db_->Get(ReadOptions(), "key", &value);
    read.store(true);
  });
  for (int i = 0; i < 5000 && parked && !read.load(); i++) {
    env->SleepForMicroseconds(1000);
  }
  const bool read_while_parked = read.load();
  env->released.store(true);
  reader.join();
  flusher.join();

  ASSERT_TRUE(parked) << "no sweep listed the directory after the flush";
  EXPECT_TRUE(read_while_parked)
      << "Get waited for the sweep's directory listing";
  EXPECT_TRUE(flushed.ok()) << flushed.ToString();
  ASSERT_TRUE(got.ok()) << got.ToString();
  EXPECT_EQ("value", value);
}

}  // namespace
}  // namespace unikv
