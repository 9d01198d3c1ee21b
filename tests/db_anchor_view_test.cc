// Differential tests for the sorted anchor view over the UnsortedStore
// (DESIGN.md §12): every ordered read path — full iteration both ways,
// random seeks, Scan() — is compared entry-for-entry against a golden
// std::map and against the forced heap-merge fallback
// (enable_anchor_view=false over the same files), across flush, merge,
// and recovery epochs, with inline and log-separated values, under a
// pinned snapshot, and with scanners racing each other and a concurrent
// flusher to build and publish views. Lifecycle tests check that views
// are built on demand by iterators only, and the sync tests that a view
// which no longer describes its tables fails the read.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/anchor_view.h"
#include "core/db.h"
#include "core/filename.h"
#include "core/table_cache.h"
#include "table/block.h"
#include "table/block_builder.h"
#include "table/format.h"
#include "table/table_builder.h"
#include "test_util.h"
#include "util/env.h"
#include "util/metrics.h"
#include "util/random.h"

namespace unikv {
namespace {

// Stacks many overlapping unsorted tables and keeps them stacked: a tiny
// write buffer, a merge limit the test can't reach, and a scan-merge
// limit high enough that the scans below never trigger consolidation —
// the view (or the fallback heap) stays the component under test.
Options AnchorOptions() {
  Options opt;
  opt.write_buffer_size = 32 * 1024;
  opt.unsorted_limit = 64 * 1024 * 1024;
  opt.partition_size_limit = 256 * 1024 * 1024;
  opt.scan_merge_limit = 100000;
  return opt;
}

double MetricValue(DB* db, const std::string& name) {
  std::string json;
  if (!db->GetProperty("db.metrics.json", &json)) return -1;
  size_t pos = json.find("\"" + name + "\":");
  if (pos == std::string::npos) return -1;
  return std::strtod(json.c_str() + pos + name.size() + 3, nullptr);
}

class DbAnchorViewTest : public testing::Test {
 protected:
  void Open(const Options& opt, const std::string& name) {
    opt_ = opt;
    dir_ = test::NewTestDir(name);
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(opt_, dir_, &raw).ok());
    db_.reset(raw);
  }

  void Reopen(bool enable_anchor_view) {
    db_.reset();
    opt_.enable_anchor_view = enable_anchor_view;
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(opt_, dir_, &raw).ok());
    db_.reset(raw);
  }

  // Ten interleaved batches, one flushed table each, every table spanning
  // the whole key range so the UnsortedStore is maximally overlapping.
  // Values alternate below and above value_separation_threshold so the
  // view is exercised over both inline values and vlog pointers; some
  // keys are overwritten across batches and some deleted.
  void FillManyTables(std::map<std::string, std::string>* model,
                      int batches = 10, uint64_t stride = 977) {
    for (int b = 0; b < batches; b++) {
      for (int i = 0; i < 60; i++) {
        uint64_t id = (static_cast<uint64_t>(i) * stride + b) % 600;
        std::string key = test::TestKey(id);
        std::string value = (i % 3 == 0)
                                ? "inline" + std::to_string(b * 1000 + i)
                                : test::TestValue(b * 1000 + i, 200);
        ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
        (*model)[key] = value;
      }
      for (int i = 0; i < 5; i++) {
        uint64_t id = (static_cast<uint64_t>(b) * 131 + i * 17) % 600;
        std::string key = test::TestKey(id);
        ASSERT_TRUE(db_->Delete(WriteOptions(), key).ok());
        model->erase(key);
      }
      ASSERT_TRUE(db_->FlushMemTable().ok());
    }
  }

  int UnsortedTableCount() {
    std::string text;
    if (!db_->GetProperty("db.sstables", &text)) return -1;
    int total = 0;
    size_t pos = 0;
    while ((pos = text.find("unsorted=", pos)) != std::string::npos) {
      total += std::atoi(text.c_str() + pos + 9);
      pos += 9;
    }
    return total;
  }

  int PartitionCount() {
    std::string text;
    if (!db_->GetProperty("db.sstables", &text)) return -1;
    int n = 0;
    for (size_t pos = 0; (pos = text.find("unsorted=", pos)) !=
                         std::string::npos;
         pos += 9) {
      n++;
    }
    return n;
  }

  void ExpectMatchesModel(const std::map<std::string, std::string>& model) {
    // Full forward pass.
    std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
    auto mit = model.begin();
    for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++mit) {
      ASSERT_NE(mit, model.end());
      ASSERT_EQ(mit->first, iter->key().ToString());
      ASSERT_EQ(mit->second, iter->value().ToString());
    }
    ASSERT_EQ(mit, model.end());
    ASSERT_TRUE(iter->status().ok()) << iter->status().ToString();

    // Full reverse pass.
    auto rit = model.rbegin();
    for (iter->SeekToLast(); iter->Valid(); iter->Prev(), ++rit) {
      ASSERT_NE(rit, model.rend());
      ASSERT_EQ(rit->first, iter->key().ToString());
      ASSERT_EQ(rit->second, iter->value().ToString());
    }
    ASSERT_EQ(rit, model.rend());
    ASSERT_TRUE(iter->status().ok()) << iter->status().ToString();

    // Random seeks + short walks in both directions.
    Random rnd(42);
    for (int trial = 0; trial < 40; trial++) {
      std::string target = test::TestKey(rnd.Uniform(650));
      iter->Seek(target);
      auto lb = model.lower_bound(target);
      if (lb == model.end()) {
        ASSERT_FALSE(iter->Valid()) << target;
        continue;
      }
      ASSERT_TRUE(iter->Valid()) << target;
      ASSERT_EQ(lb->first, iter->key().ToString());
      ASSERT_EQ(lb->second, iter->value().ToString());
      for (int step = 0; step < 5 && iter->Valid(); step++) {
        ++lb;
        iter->Next();
        if (lb == model.end()) {
          ASSERT_FALSE(iter->Valid());
        } else {
          ASSERT_TRUE(iter->Valid());
          ASSERT_EQ(lb->first, iter->key().ToString());
        }
      }
    }

    // Scan().
    for (int trial = 0; trial < 20; trial++) {
      std::string start = test::TestKey(rnd.Uniform(600));
      int count = 1 + rnd.Uniform(80);
      std::vector<std::pair<std::string, std::string>> out;
      ASSERT_TRUE(db_->Scan(ReadOptions(), start, count, &out).ok());
      auto sit = model.lower_bound(start);
      size_t i = 0;
      for (; sit != model.end() && i < static_cast<size_t>(count);
           ++sit, ++i) {
        ASSERT_LT(i, out.size());
        ASSERT_EQ(sit->first, out[i].first);
        ASSERT_EQ(sit->second, out[i].second);
      }
      ASSERT_EQ(i, out.size());
    }
  }

  // A store split into several partitions whose unsorted tables stay
  // stacked (three flushed batches over a merged base), with no view
  // built yet; *model is filled from Get and *stacked counts the
  // partitions with >= 2 unsorted tables.
  void OpenStackedPartitions(const std::string& name,
                             std::map<std::string, std::string>* model,
                             int* stacked) {
    // Split the key space into several partitions first, then reopen with
    // stacking options so every partition keeps its unsorted tables.
    Options split = AnchorOptions();
    split.unsorted_limit = 128 * 1024;
    split.partition_size_limit = 256 * 1024;
    split.sorted_table_size = 32 * 1024;
    Open(split, name);
    for (int i = 0; i < 2000; i++) {
      ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i),
                           test::TestValue(i, 512))
                      .ok());
    }
    ASSERT_TRUE(db_->CompactAll().ok());
    // Dozens of flushes (and merges) without a scan build nothing.
    EXPECT_EQ(0.0, MetricValue(db_.get(), "anchor_view_builds"));
    opt_ = AnchorOptions();
    Reopen(/*enable_anchor_view=*/true);

    for (int b = 0; b < 3; b++) {
      for (int i = b; i < 2000; i += 7) {
        std::string value = test::TestValue(b * 10000 + i, 100);
        ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i), value).ok());
      }
      ASSERT_TRUE(db_->FlushMemTable().ok());
    }
    for (int i = 0; i < 2000; i++) {
      std::string value;
      ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(i), &value).ok());
      (*model)[test::TestKey(i)] = value;
    }

    std::string sstables;
    ASSERT_TRUE(db_->GetProperty("db.sstables", &sstables));
    *stacked = 0;
    for (size_t pos = 0;
         (pos = sstables.find("unsorted=", pos)) != std::string::npos;
         pos += 9) {
      if (std::atoi(sstables.c_str() + pos + 9) >= 2) (*stacked)++;
    }
    ASSERT_GE(*stacked, 2) << sstables;

    EXPECT_EQ(0.0, MetricValue(db_.get(), "anchor_view_builds"));
  }

  Options opt_;
  std::string dir_;
  std::unique_ptr<DB> db_;
};

// The core differential: view-on scans match the golden map across a
// many-table UnsortedStore, then the exact same files reopened with the
// view disabled (forced heap-merge fallback) match too, then a merge
// epoch (CompactAll) and a fresh round of flushes still match.
TEST_F(DbAnchorViewTest, DifferentialAcrossEpochs) {
  Open(AnchorOptions(), "anchor_diff");
  std::map<std::string, std::string> model;
  FillManyTables(&model);
  ASSERT_GE(UnsortedTableCount(), 8);

  ExpectMatchesModel(model);
  EXPECT_GT(MetricValue(db_.get(), "scan_anchor_hits"), 0.0);
  EXPECT_GT(MetricValue(db_.get(), "anchor_view_builds"), 0.0);
  EXPECT_GT(MetricValue(db_.get(), "anchor_view_bytes"), 0.0);

  // Same store, view off: the fallback merging iterator must agree.
  Reopen(/*enable_anchor_view=*/false);
  ASSERT_GE(UnsortedTableCount(), 8);
  ExpectMatchesModel(model);
  EXPECT_EQ(MetricValue(db_.get(), "scan_anchor_hits"), 0.0);

  // View back on: the first iterator rebuilds it from the tables.
  Reopen(/*enable_anchor_view=*/true);
  ExpectMatchesModel(model);
  EXPECT_GT(MetricValue(db_.get(), "scan_anchor_hits"), 0.0);

  // Merge epoch: the unsorted tables drain into the SortedStore and the
  // view retires.
  ASSERT_TRUE(db_->CompactAll().ok());
  ExpectMatchesModel(model);

  // Post-merge flushes: the next scan builds a fresh view over them.
  FillManyTables(&model, 6, 1013);
  ASSERT_GE(UnsortedTableCount(), 6);
  ExpectMatchesModel(model);
}

// ReadOptions::snapshot pins iterators and scans to a point in time.
TEST_F(DbAnchorViewTest, SnapshotPinsIteratorsAndScans) {
  Open(AnchorOptions(), "anchor_snapshot");
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i), "old").ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  std::string seq_str;
  ASSERT_TRUE(db_->GetProperty("db.visible-sequence", &seq_str));
  const uint64_t snapshot = std::strtoull(seq_str.c_str(), nullptr, 10);
  ASSERT_GT(snapshot, 0u);

  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i), "new").ok());
  }
  ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(500), "later-key").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());

  ReadOptions pinned;
  pinned.snapshot = snapshot;
  std::unique_ptr<Iterator> iter(db_->NewIterator(pinned));
  int count = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), count++) {
    EXPECT_EQ("old", iter->value().ToString());
  }
  EXPECT_EQ(200, count);

  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(db_->Scan(pinned, test::TestKey(0), 500, &out).ok());
  ASSERT_EQ(200u, out.size());
  for (const auto& [k, v] : out) EXPECT_EQ("old", v);

  // Unpinned reads see the later writes.
  out.clear();
  ASSERT_TRUE(db_->Scan(ReadOptions(), test::TestKey(0), 500, &out).ok());
  ASSERT_EQ(201u, out.size());
  EXPECT_EQ("new", out[0].second);
}

// Scanners racing each other and a concurrent flusher: every flush
// leaves the cached view behind the partition's tables, so the scanners
// race to extend (or rebuild) and publish the same view while installs land
// (the TSan twin checks the publication). Each scan is a point-in-time
// snapshot, so results must stay sorted and agree with the model for
// every key written before the scan started.
TEST_F(DbAnchorViewTest, ScanRacesConcurrentFlush) {
  Open(AnchorOptions(), "anchor_race");
  std::map<std::string, std::string> base;
  FillManyTables(&base, 4);

  constexpr int kScanners = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> scans{0}, flushes{0};
  std::thread writer([&] {
    // Disjoint key range (>= 1000) so the base model stays authoritative
    // for the scanned range. Installs do not build views, so nothing else
    // paces the flusher: after each flush it waits until at least one
    // scan has started and finished after it (at most kScanners were in
    // flight), so flushes and scans interleave, the table stack stays
    // small, and the scans after the second flush must rebuild a view.
    uint64_t id = 1000;
    while (!stop.load()) {
      for (int i = 0; i < 50; i++) {
        ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(id++), "race")
                        .ok());
      }
      ASSERT_TRUE(db_->FlushMemTable().ok());
      flushes.fetch_add(1);
      const int target = scans.load() + kScanners + 1;
      while (scans.load() < target && !stop.load()) {
        std::this_thread::yield();
      }
    }
  });

  auto scanner = [&](uint32_t seed) {
    Random rnd(seed);
    // At least 60 scans each, and on until three flushes have landed
    // (bounded, in case the writer failed).
    for (int trial = 0;
         trial < 60 || (flushes.load() < 3 && trial < 100000); trial++) {
      std::string start = test::TestKey(rnd.Uniform(600));
      std::vector<std::pair<std::string, std::string>> out;
      ASSERT_TRUE(db_->Scan(ReadOptions(), start, 40, &out).ok());
      scans.fetch_add(1);
      auto mit = base.lower_bound(start);
      size_t i = 0;
      for (; mit != base.end() && i < 40u && i < out.size(); ++mit, ++i) {
        if (mit->first >= test::TestKey(1000)) break;
        ASSERT_EQ(mit->first, out[i].first);
        ASSERT_EQ(mit->second, out[i].second);
      }
    }
  };
  std::vector<std::thread> scanners;
  for (uint32_t seed = 7; seed < 7 + kScanners; seed++) {
    scanners.emplace_back(scanner, seed);
  }
  for (std::thread& t : scanners) t.join();
  stop.store(true);
  writer.join();
  // More builds than partitions: scans rebuilt a view after a flush.
  EXPECT_GT(MetricValue(db_.get(), "anchor_view_builds"), PartitionCount());
}

// Values written in ten merge epochs live in ten value logs, so a scan
// across the interleaved keys needs one span read per log. Two scanners
// then fetch from those logs at once (the TSan twin checks the shared
// log handles).
TEST_F(DbAnchorViewTest, ScanFetchesValuesAcrossEpochs) {
  Open(AnchorOptions(), "anchor_fanout");
  const int kEpochs = 10, kKeys = 400;
  std::map<std::string, std::string> model;
  for (int e = 0; e < kEpochs; e++) {
    for (int i = e; i < kKeys; i += kEpochs) {
      std::string value = test::TestValue(i, 200);
      ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(i), value).ok());
      model[test::TestKey(i)] = value;
    }
    ASSERT_TRUE(db_->CompactAll().ok());
  }

  const double spans_before = MetricValue(db_.get(), "vlog_span_reads");
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(db_->Scan(ReadOptions(), test::TestKey(0), kKeys, &out).ok());
  EXPECT_GE(MetricValue(db_.get(), "vlog_span_reads") - spans_before,
            kEpochs);
  ASSERT_EQ(model.size(), out.size());
  size_t i = 0;
  for (const auto& [key, value] : model) {
    ASSERT_EQ(key, out[i].first);
    ASSERT_EQ(value, out[i].second);
    i++;
  }

  auto scanner = [&](uint32_t seed) {
    Random rnd(seed);
    for (int trial = 0; trial < 10; trial++) {
      std::string start = test::TestKey(rnd.Uniform(kKeys / 2));
      std::vector<std::pair<std::string, std::string>> got;
      ASSERT_TRUE(db_->Scan(ReadOptions(), start, kKeys / 2, &got).ok());
      auto mit = model.lower_bound(start);
      ASSERT_EQ(static_cast<size_t>(kKeys / 2), got.size());
      for (const auto& [key, value] : got) {
        ASSERT_EQ(mit->first, key);
        ASSERT_EQ(mit->second, value);
        ++mit;
      }
    }
  };
  std::thread other(scanner, 11);
  scanner(12);
  other.join();
}

// Views are built on demand by iterators, never by installs: flushes
// alone build nothing; the first scan builds,
// a repeat scan reuses the cache, and after one more flush only the
// partition that flush touched is rebuilt.
TEST_F(DbAnchorViewTest, ViewLifecycleIsDrivenByIterators) {
  std::map<std::string, std::string> model;
  int stacked = 0;
  OpenStackedPartitions("anchor_lifecycle", &model, &stacked);
  if (HasFatalFailure()) return;

  const double views = stacked;
  ExpectMatchesModel(model);
  EXPECT_EQ(views, MetricValue(db_.get(), "anchor_view_builds"));
  EXPECT_GT(MetricValue(db_.get(), "anchor_view_bytes"), 0.0);

  ExpectMatchesModel(model);
  EXPECT_EQ(views, MetricValue(db_.get(), "anchor_view_builds"));

  // One more table in the first partition only.
  ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(0), "one-more").ok());
  model[test::TestKey(0)] = "one-more";
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ExpectMatchesModel(model);
  EXPECT_EQ(views + 1, MetricValue(db_.get(), "anchor_view_builds"));
}

// Partition pruning: a Scan that stays inside one partition builds only
// that partition's child and view, however many other partitions hold
// stacked tables; an iterator that walks across one partition boundary,
// forward or backward, opens exactly the two partitions it touches.
TEST_F(DbAnchorViewTest, ScanConfinedToOnePartitionOpensOnlyIt) {
  std::map<std::string, std::string> model;
  int stacked = 0;
  OpenStackedPartitions("anchor_confined", &model, &stacked);
  if (HasFatalFailure()) return;

  // Each partition's lower bound and unsorted table count.
  struct Part {
    std::string lower;
    int unsorted;
  };
  std::vector<Part> parts;
  std::string sstables;
  ASSERT_TRUE(db_->GetProperty("db.sstables", &sstables));
  for (size_t pos = 0; (pos = sstables.find('[', pos)) != std::string::npos;
       pos++) {
    const size_t end = sstables.find("..)", pos);
    const size_t count = sstables.find("unsorted=", end);
    ASSERT_NE(count, std::string::npos) << sstables;
    std::string lower = sstables.substr(pos + 1, end - pos - 1);
    if (lower == "-inf") lower.clear();
    parts.push_back({lower, std::atoi(sstables.c_str() + count + 9)});
  }
  // A stacked partition with a successor and plenty of keys of its own.
  size_t k = 0;
  auto keys_in = [&](size_t i) {
    auto end = i + 1 < parts.size() ? model.lower_bound(parts[i + 1].lower)
                                    : model.end();
    return std::distance(model.lower_bound(parts[i].lower), end);
  };
  while (k + 1 < parts.size() && (parts[k].unsorted < 2 || keys_in(k) < 10)) {
    k++;
  }
  ASSERT_LT(k + 1, parts.size()) << sstables;

  // A 5-row Scan inside partition k.
  auto first = model.lower_bound(parts[k].lower);
  const double builds = MetricValue(db_.get(), "anchor_view_builds");
  const double opened = MetricValue(db_.get(), "iterator_partitions_opened");
  const double tables = MetricValue(db_.get(), "iterator_tables_opened");
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(db_->Scan(ReadOptions(), first->first, 5, &out).ok());
  ASSERT_EQ(5u, out.size());
  for (const auto& [key, value] : out) {
    ASSERT_EQ(first->first, key);
    ASSERT_EQ(first->second, value);
    ++first;
  }
  EXPECT_EQ(builds + 1, MetricValue(db_.get(), "anchor_view_builds"));
  EXPECT_EQ(opened + 1, MetricValue(db_.get(), "iterator_partitions_opened"));
  EXPECT_GT(MetricValue(db_.get(), "iterator_tables_opened"), tables);

  // Forward across the boundary between partitions k and k + 1.
  auto boundary = model.lower_bound(parts[k + 1].lower);
  ASSERT_NE(boundary, model.end());
  auto last = std::prev(boundary);
  double before = MetricValue(db_.get(), "iterator_partitions_opened");
  {
    std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
    iter->Seek(last->first);
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(last->first, iter->key().ToString());
    EXPECT_EQ(last->second, iter->value().ToString());
    iter->Next();
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(boundary->first, iter->key().ToString());
    EXPECT_EQ(boundary->second, iter->value().ToString());
    EXPECT_TRUE(iter->status().ok()) << iter->status().ToString();
  }
  EXPECT_EQ(before + 2, MetricValue(db_.get(), "iterator_partitions_opened"));

  // And backward across it.
  before = MetricValue(db_.get(), "iterator_partitions_opened");
  {
    std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
    iter->Seek(boundary->first);
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(boundary->first, iter->key().ToString());
    iter->Prev();
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(last->first, iter->key().ToString());
    EXPECT_EQ(last->second, iter->value().ToString());
    EXPECT_TRUE(iter->status().ok()) << iter->status().ToString();
  }
  EXPECT_EQ(before + 2, MetricValue(db_.get(), "iterator_partitions_opened"));
}

// fill_cache=false reads bypass block-cache insertion but return the
// same data.
TEST_F(DbAnchorViewTest, NoFillCacheScanMatches) {
  Open(AnchorOptions(), "anchor_nofill");
  std::map<std::string, std::string> model;
  FillManyTables(&model, 6);

  ReadOptions ro;
  ro.fill_cache = false;
  std::unique_ptr<Iterator> iter(db_->NewIterator(ro));
  auto mit = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++mit) {
    ASSERT_NE(mit, model.end());
    ASSERT_EQ(mit->first, iter->key().ToString());
    ASSERT_EQ(mit->second, iter->value().ToString());
  }
  ASSERT_EQ(mit, model.end());
  ASSERT_TRUE(iter->status().ok());
}


// A view that no longer describes its tables fails the read loudly and
// never returns another entry's value (DESIGN.md §12). Two tables with
// identical layouts (same entry count, key and value lengths) interleave
// their keys, so the views below name real blocks of the wrong table.
class AnchorViewSyncTest : public testing::Test {
 protected:
  AnchorViewSyncTest() : env_(NewMemEnv()) {
    EXPECT_TRUE(env_->CreateDir("/av").ok());
    cache_ = std::make_unique<TableCache>(env_.get(), "/av", TableOptions(),
                                          nullptr);
    for (uint32_t t = 0; t < 2; t++) {
      FileMeta f;
      f.number = t + 1;
      f.size = BuildTable(f.number, t);
      part_.unsorted.push_back(f);
    }
  }

  // Table `t` holds keys k0000+t, k0002+t, ... with values naming `t`.
  uint64_t BuildTable(uint64_t number, uint32_t t) {
    std::unique_ptr<WritableFile> file;
    EXPECT_TRUE(
        env_->NewWritableFile(TableFileName("/av", number), &file).ok());
    TableBuilder builder(TableOptions(), file.get());
    for (int i = 0; i < 200; i++) {
      char key[16];
      std::snprintf(key, sizeof(key), "k%04d", 2 * i + static_cast<int>(t));
      std::string ikey;
      AppendInternalKey(&ikey, ParsedInternalKey(key, 100, kTypeValue));
      const std::string value = Value(t, key);
      builder.Add(ikey, value);
      expected_[key] = value;
    }
    EXPECT_TRUE(builder.Finish().ok());
    EXPECT_TRUE(file->Close().ok());
    return builder.FileSize();
  }

  static std::string Value(uint32_t t, const std::string& key) {
    return std::string(t == 0 ? "A:" : "B:") + key + std::string(90, '.');
  }

  AnchorView Build() {
    AnchorView view;
    EXPECT_TRUE(BuildAnchorView(icmp_, cache_.get(), part_, &view).ok());
    EXPECT_EQ(2u, view.covered.size());
    return view;
  }

  // Walks the view forward, checking every value read; returns the walk's
  // status and counts the entries read in *read.
  Status Walk(AnchorView view, size_t* read) {
    Counter opened;
    std::unique_ptr<Iterator> iter(NewAnchorViewIterator(
        icmp_, std::make_shared<const AnchorView>(std::move(view)),
        true /*fill_cache*/, &opened));
    *read = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      const std::string key = ExtractUserKey(iter->key()).ToString();
      const std::string value = iter->value().ToString();
      if (!iter->status().ok()) break;
      EXPECT_EQ(expected_[key], value) << key;
      ++*read;
    }
    return iter->status();
  }

  std::unique_ptr<MemEnv> env_;
  std::unique_ptr<TableCache> cache_;
  InternalKeyComparator icmp_;
  PartitionState part_;
  std::map<std::string, std::string> expected_;
};

TEST_F(AnchorViewSyncTest, SwappedTablesFailOutOfSync) {
  size_t read = 0;
  ASSERT_TRUE(Walk(Build(), &read).ok());
  EXPECT_EQ(expected_.size(), read);

  AnchorView view = Build();
  std::swap(view.covered[0].table, view.covered[1].table);
  Status s = Walk(std::move(view), &read);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(std::string::npos, s.ToString().find("anchor view out of sync"))
      << s.ToString();
  EXPECT_EQ(0u, read);
}

TEST_F(AnchorViewSyncTest, WrongBlockOffsetFailsChecksum) {
  AnchorView view = Build();
  // Re-encode every anchor one byte past its block.
  BlockBuilder builder(16);
  std::unique_ptr<Iterator> entries(view.block->NewIterator(icmp_));
  std::string payload;
  for (entries->SeekToFirst(); entries->Valid(); entries->Next()) {
    AnchorView::Anchor a;
    ASSERT_TRUE(a.DecodeFrom(entries->value()));
    a.block.set_offset(a.block.offset() + 1);
    payload.clear();
    a.EncodeTo(&payload);
    builder.Add(entries->key(), payload);
  }
  entries.reset();
  const Slice image = builder.Finish();
  view.image = std::make_shared<const std::string>(image.data(), image.size());
  BlockContents contents;
  contents.data = Slice(*view.image);
  contents.cachable = false;
  contents.heap_allocated = false;  // view.image owns the bytes.
  view.block = std::make_shared<Block>(contents);

  size_t read = 0;
  Status s = Walk(std::move(view), &read);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(std::string::npos, s.ToString().find("checksum"))
      << s.ToString();
  EXPECT_EQ(0u, read);
}

}  // namespace
}  // namespace unikv
