// Dynamic range partitioning tests: splits happen under load, routing
// stays correct across splits, iterators span partitions, and lazy value
// splitting via GC completes.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "core/db.h"
#include "core/filename.h"
#include "util/env.h"
#include "test_util.h"
#include "util/random.h"

namespace unikv {
namespace {

Options SplittyOptions() {
  Options opt;
  opt.write_buffer_size = 32 * 1024;
  opt.unsorted_limit = 128 * 1024;
  opt.partition_size_limit = 512 * 1024;  // Splits after ~0.5 MiB.
  opt.sorted_table_size = 32 * 1024;
  opt.gc_garbage_threshold = 256 * 1024;
  return opt;
}

int NumPartitions(DB* db) {
  std::string v;
  EXPECT_TRUE(db->GetProperty("db.num-partitions", &v));
  return std::stoi(v);
}

class DbPartitionTest : public testing::Test {
 protected:
  void Open(const Options& opt, const std::string& name) {
    opt_ = opt;
    dir_ = test::NewTestDir(name);
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(opt, dir_, &raw).ok());
    db_.reset(raw);
  }
  void Reopen() {
    db_.reset();
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(opt_, dir_, &raw).ok());
    db_.reset(raw);
  }

  Options opt_;
  std::string dir_;
  std::unique_ptr<DB> db_;
};

TEST_F(DbPartitionTest, SplitsHappenAndDataSurvives) {
  Open(SplittyOptions(), "part_split");
  std::map<std::string, std::string> model;
  for (int i = 0; i < 4000; i++) {
    std::string key = test::TestKey(i);
    std::string value = test::TestValue(i, 512);
    ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
    model[key] = value;
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_GT(NumPartitions(db_.get()), 1) << "expected at least one split";

  // Every key still readable (routing by boundary keys works).
  for (int i = 0; i < 4000; i += 17) {
    std::string key = test::TestKey(i);
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), key, &value).ok()) << key;
    EXPECT_EQ(model[key], value);
  }
}

TEST_F(DbPartitionTest, IteratorSpansPartitions) {
  Open(SplittyOptions(), "part_iter");
  std::map<std::string, std::string> model;
  Random rnd(3);
  for (int i = 0; i < 4000; i++) {
    int id = rnd.Uniform(5000);
    std::string key = test::TestKey(id);
    std::string value = test::TestValue(id, 400);
    ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
    model[key] = value;
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  ASSERT_GT(NumPartitions(db_.get()), 1);

  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  auto mit = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++mit) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(mit->first, iter->key().ToString());
    EXPECT_EQ(mit->second, iter->value().ToString());
  }
  EXPECT_EQ(mit, model.end());
}

TEST_F(DbPartitionTest, WritesContinueAcrossSplitBoundaries) {
  Open(SplittyOptions(), "part_writes");
  // Load enough for splits, then write into both halves again.
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), test::TestKey(i), test::TestValue(i, 512))
            .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  int parts = NumPartitions(db_.get());
  ASSERT_GT(parts, 1);

  for (int i = 0; i < 3000; i += 3) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i), "rewritten").ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  for (int i = 0; i < 3000; i++) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(i), &value).ok());
    if (i % 3 == 0) {
      EXPECT_EQ("rewritten", value) << i;
    } else {
      EXPECT_EQ(test::TestValue(i, 512), value) << i;
    }
  }
}

TEST_F(DbPartitionTest, PartitionsSurviveReopen) {
  Open(SplittyOptions(), "part_reopen");
  for (int i = 0; i < 4000; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), test::TestKey(i), test::TestValue(i, 512))
            .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  int parts_before = NumPartitions(db_.get());
  ASSERT_GT(parts_before, 1);

  Reopen();
  EXPECT_EQ(parts_before, NumPartitions(db_.get()));
  for (int i = 0; i < 4000; i += 23) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(i), &value).ok()) << i;
    EXPECT_EQ(test::TestValue(i, 512), value);
  }
}

TEST_F(DbPartitionTest, NoPartitioningAblationNeverSplits) {
  Options opt = SplittyOptions();
  opt.enable_partitioning = false;
  Open(opt, "part_off");
  for (int i = 0; i < 4000; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), test::TestKey(i), test::TestValue(i, 512))
            .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_EQ(1, NumPartitions(db_.get()));
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(100), &value).ok());
}

TEST_F(DbPartitionTest, SplitCountGrowsWithData) {
  Open(SplittyOptions(), "part_growth");
  int last_parts = 1;
  for (int wave = 1; wave <= 3; wave++) {
    for (int i = (wave - 1) * 2000; i < wave * 2000; i++) {
      ASSERT_TRUE(
          db_->Put(WriteOptions(), test::TestKey(i), test::TestValue(i, 512))
              .ok());
    }
    ASSERT_TRUE(db_->CompactAll().ok());
    int parts = NumPartitions(db_.get());
    EXPECT_GE(parts, last_parts);
    last_parts = parts;
  }
  EXPECT_GT(last_parts, 2);
}

// The lower bounds of the partitions in key order, from "db.sstables".
std::vector<std::string> PartitionLowerBounds(DB* db) {
  std::string text;
  EXPECT_TRUE(db->GetProperty("db.sstables", &text));
  std::vector<std::string> bounds;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const size_t open = line.find('['), close = line.find("..)");
    std::string lower = line.substr(open + 1, close - open - 1);
    bounds.push_back(lower == "-inf" ? "" : lower);
  }
  return bounds;
}

// The table files in `dir`, by number.
std::set<uint64_t> TableFiles(const std::string& dir) {
  std::vector<std::string> children;
  EXPECT_TRUE(Env::Default()->GetChildren(dir, &children).ok());
  std::set<uint64_t> tables;
  for (const std::string& child : children) {
    uint64_t number;
    FileType type;
    if (ParseFileName(child, &number, &type) &&
        type == FileType::kTableFile) {
      tables.insert(number);
    }
  }
  return tables;
}

// How many partitions reference table `number` ("db.table-accesses" has
// one unsorted line per reference).
int References(DB* db, uint64_t number) {
  std::string text;
  EXPECT_TRUE(db->GetProperty("db.table-accesses", &text));
  std::istringstream in(text);
  std::string kind;
  uint64_t n, accesses;
  int refs = 0;
  while (in >> kind >> n >> accesses) {
    if (kind == "unsorted" && n == number) refs++;
  }
  return refs;
}

std::string HashIndexEntries(DB* db) {
  std::string v;
  EXPECT_TRUE(db->GetProperty("db.hash-index-entries", &v));
  return v;
}

// A flush writes one table whatever partitions its memtable covers; each
// partition it touches references that table within its own key range.
TEST_F(DbPartitionTest, FlushWritesOneTablePerMemtable) {
  Options opt = SplittyOptions();
  opt.scan_merge_limit = 64;  // No scan-merge between the flushes below.
  Open(opt, "part_one_table");
  for (int i = 0; i < 4000; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), test::TestKey(i), test::TestValue(i, 512))
            .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  // Keep the partitions as they are: no split may add references.
  opt_.partition_size_limit = 1ull << 40;
  Reopen();
  const std::vector<std::string> bounds = PartitionLowerBounds(db_.get());
  ASSERT_GE(bounds.size(), 4u);

  std::set<uint64_t> flushed;
  for (int round = 0; round < 2; round++) {
    SCOPED_TRACE(round);
    const std::set<uint64_t> before = TableFiles(dir_);
    // 40 keys of ~0.5 KiB across the key space stay in one 32 KiB
    // memtable and below every merge trigger.
    std::set<size_t> touched;
    for (int i = round; i < 4000; i += 100) {
      const std::string key = test::TestKey(i);
      ASSERT_TRUE(db_->Put(WriteOptions(), key, "v" + key).ok());
      size_t pi = 0;
      while (pi + 1 < bounds.size() && key >= bounds[pi + 1]) pi++;
      touched.insert(pi);
    }
    ASSERT_GE(touched.size(), 4u);
    ASSERT_TRUE(db_->FlushMemTable().ok());
    const std::set<uint64_t> after = TableFiles(dir_);
    std::vector<uint64_t> added;
    for (uint64_t n : after) {
      if (!before.count(n)) added.push_back(n);
    }
    ASSERT_EQ(1u, added.size());
    EXPECT_EQ(before.size() + 1, after.size());
    EXPECT_EQ(static_cast<int>(touched.size()),
              References(db_.get(), added[0]));
    flushed.insert(added[0]);
  }

  const std::string entries = HashIndexEntries(db_.get());
  EXPECT_NE("0", entries);
  Reopen();
  EXPECT_EQ(entries, HashIndexEntries(db_.get()));
  for (int i = 0; i < 4000; i++) {
    const std::string key = test::TestKey(i);
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), key, &value).ok()) << key;
    EXPECT_EQ(i % 100 < 2 ? "v" + key : test::TestValue(i, 512), value);
  }

  ASSERT_TRUE(db_->CompactAll().ok());
  const std::set<uint64_t> tables = TableFiles(dir_);
  for (uint64_t n : flushed) EXPECT_EQ(0u, tables.count(n)) << n;
}

// Point reads and scans racing flushes whose tables span partitions and
// splits that share those tables between the children. Every key is
// written with one value, so a read sees that value or nothing, and a
// scan sees ascending keys.
TEST_F(DbPartitionTest, ReadsRaceFlushesAndSplits) {
  Open(SplittyOptions(), "part_race");
  constexpr int kKeys = 3000;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    // A stride walk covers the key space on every pass, so each flush
    // spans every partition.
    for (int pass = 0; pass < 7; pass++) {
      for (int i = pass; i < kKeys; i += 7) {
        if (!db_->Put(WriteOptions(), test::TestKey(i),
                      test::TestValue(i, 512))
                 .ok()) {
          failures++;
        }
      }
    }
    done = true;
  });
  auto reader = [&](uint32_t seed) {
    Random rnd(seed);
    while (!done) {
      const int i = rnd.Uniform(kKeys);
      std::string value;
      Status s = db_->Get(ReadOptions(), test::TestKey(i), &value);
      if (!(s.IsNotFound() || (s.ok() && value == test::TestValue(i, 512)))) {
        failures++;
      }
      std::vector<std::pair<std::string, std::string>> rows;
      s = db_->Scan(ReadOptions(), test::TestKey(i), 20, &rows);
      if (!s.ok()) failures++;
      std::string last;
      for (const auto& [key, row_value] : rows) {
        const int id = std::atoi(key.c_str() + key.find_first_of("0123456789"));
        if (key <= last || row_value != test::TestValue(id, 512)) failures++;
        last = key;
      }
    }
  };
  std::thread r1(reader, 1), r2(reader, 2);
  writer.join();
  r1.join();
  r2.join();
  EXPECT_EQ(0, failures.load());
  // Splits ran while the writes did, not only in the drain below.
  EXPECT_GT(NumPartitions(db_.get()), 1);
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_GT(NumPartitions(db_.get()), 2);
}

}  // namespace
}  // namespace unikv
