// Property-based testing: long randomized operation sequences
// (put/delete/flush/compact/get/multiget/scan/iterator walk/reopen)
// validated against an in-memory model, swept across seeds x engine
// configurations. Tiny limits force many flush/merge/GC/split cycles per
// run.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baseline/baselines.h"
#include "core/db.h"
#include "test_util.h"
#include "util/event_logger.h"
#include "util/random.h"

namespace unikv {
namespace {

struct Config {
  const char* name;
  int engine;  // 0=UniKV, 1=Leveled, 2=Tiered.
  bool hash_index = true;
  bool kv_separation = true;
  bool partitioning = true;
};

const Config kConfigs[] = {
    {"unikv", 0},
    {"unikv_nohash", 0, false, true, true},
    {"unikv_nosep", 0, true, false, true},
    {"unikv_nopart", 0, true, true, false},
    {"leveled", 1},
    {"tiered", 2},
};

class ModelTest
    : public testing::TestWithParam<std::tuple<int, int>> {  // (config, seed)
 protected:
  const Config& Cfg() const { return kConfigs[std::get<0>(GetParam())]; }
  uint32_t Seed() const { return 1000 + std::get<1>(GetParam()); }

  Options MakeOptions() const {
    Options opt;
    opt.write_buffer_size = 16 * 1024;
    opt.unsorted_limit = 48 * 1024;
    opt.partition_size_limit = 32 * 1024;
    opt.sorted_table_size = 16 * 1024;
    opt.gc_garbage_threshold = 32 * 1024;
    opt.scan_merge_limit = 3;
    opt.max_bytes_for_level_base = 64 * 1024;
    opt.l0_compaction_trigger = 3;
    opt.tiered_runs_per_level = 3;
    opt.enable_hash_index = Cfg().hash_index;
    opt.enable_kv_separation = Cfg().kv_separation;
    opt.enable_partitioning = Cfg().partitioning;
    return opt;
  }

  void Open() {
    DB* raw = nullptr;
    Options opt = MakeOptions();
    switch (Cfg().engine) {
      case 0:
        ASSERT_TRUE(DB::Open(opt, dir_, &raw).ok());
        break;
      case 1:
        ASSERT_TRUE(baseline::OpenLeveledDB(opt, dir_, &raw).ok());
        break;
      case 2:
        ASSERT_TRUE(baseline::OpenTieredDB(opt, dir_, &raw).ok());
        break;
    }
    db_.reset(raw);
  }

  // The values of `field` on the store's `event` lines in EVENTS.
  std::vector<uint64_t> EventField(const std::string& event,
                                   const std::string& field) const {
    std::ifstream events(dir_ + "/" + EventLogger::kFileName);
    const std::string tag = "\"event\":\"" + event + "\"";
    const std::string needle = "\"" + field + "\":";
    std::vector<uint64_t> values;
    for (std::string line; std::getline(events, line);) {
      const size_t pos = line.find(needle);
      if (line.find(tag) != std::string::npos && pos != std::string::npos) {
        values.push_back(
            std::strtoull(line.c_str() + pos + needle.size(), nullptr, 10));
      }
    }
    return values;
  }

  std::string dir_;
  std::unique_ptr<DB> db_;
};

TEST_P(ModelTest, RandomOpsMatchModel) {
  dir_ = test::NewTestDir(std::string("model_") + Cfg().name + "_" +
                          std::to_string(Seed()));
  Open();

  std::map<std::string, std::string> model;
  Random rnd(Seed());
  // MultiGet batches draw from their own stream, so the op sequence is
  // the same as with point reads alone.
  Random batch_rnd(Seed() * 7 + 1);
  // So do the iterator walks that ride along with scans.
  Random walk_rnd(Seed() * 11 + 5);
  const int kKeySpace = 200;
  const int kOps = 2500;
  // One vector for every scan: each scan writes its rows over the last
  // one's, so a row left stale shows up against the model.
  std::vector<std::pair<std::string, std::string>> out;

  for (int op = 0; op < kOps; op++) {
    int dice = rnd.Uniform(100);
    if (dice < 55) {
      // Put with variable value sizes (exercises blocks + vlog).
      std::string key = test::TestKey(rnd.Uniform(kKeySpace));
      size_t len = rnd.OneIn(20) ? 2048 + rnd.Uniform(4096)
                                 : 16 + rnd.Uniform(256);
      std::string value = test::TestValue(op, len);
      ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
      model[key] = value;
    } else if (dice < 70) {
      std::string key = test::TestKey(rnd.Uniform(kKeySpace));
      ASSERT_TRUE(db_->Delete(WriteOptions(), key).ok());
      model.erase(key);
    } else if (dice < 85) {
      // Point read.
      std::string key = test::TestKey(rnd.Uniform(kKeySpace));
      std::string value;
      Status s = db_->Get(ReadOptions(), key, &value);
      auto it = model.find(key);
      if (it == model.end()) {
        ASSERT_TRUE(s.IsNotFound()) << key << " op " << op;
      } else {
        ASSERT_TRUE(s.ok()) << key << " op " << op << " " << s.ToString();
        ASSERT_EQ(it->second, value) << key << " op " << op;
      }
      // And a batch of 1-16 keys: repeats of the key above and of each
      // other, and keys beyond the key space that were never written.
      std::vector<std::string> key_bufs;
      const int batch = 1 + batch_rnd.Uniform(16);
      for (int i = 0; i < batch; i++) {
        if (batch_rnd.OneIn(4)) {
          key_bufs.push_back(key_bufs.empty() ? key : key_bufs.back());
        } else {
          key_bufs.push_back(test::TestKey(batch_rnd.Uniform(kKeySpace + 20)));
        }
      }
      const std::vector<Slice> keys(key_bufs.begin(), key_bufs.end());
      std::vector<std::string> values;
      std::vector<Status> statuses;
      ASSERT_TRUE(db_->MultiGet(ReadOptions(), keys, &values, &statuses).ok())
          << "op " << op;
      ASSERT_EQ(keys.size(), statuses.size());
      for (size_t i = 0; i < keys.size(); i++) {
        auto mit = model.find(key_bufs[i]);
        if (mit == model.end()) {
          ASSERT_TRUE(statuses[i].IsNotFound()) << key_bufs[i] << " op " << op;
        } else {
          ASSERT_TRUE(statuses[i].ok())
              << key_bufs[i] << " op " << op << " " << statuses[i].ToString();
          ASSERT_EQ(mit->second, values[i]) << key_bufs[i] << " op " << op;
        }
      }
    } else if (dice < 93) {
      // Short scan.
      std::string start = test::TestKey(rnd.Uniform(kKeySpace));
      int count = 1 + rnd.Uniform(20);
      ASSERT_TRUE(db_->Scan(ReadOptions(), start, count, &out).ok());
      auto it = model.lower_bound(start);
      for (size_t i = 0; i < out.size(); i++, ++it) {
        ASSERT_NE(it, model.end()) << "scan overshot at op " << op;
        ASSERT_EQ(it->first, out[i].first) << "op " << op;
        ASSERT_EQ(it->second, out[i].second) << "op " << op;
      }
      ASSERT_TRUE(out.size() == static_cast<size_t>(count) ||
                  it == model.end());

      // And an iterator walk: a Seek (or SeekToLast), then up to 20 mixed
      // Next/Prev steps, which cross partition boundaries both ways.
      std::unique_ptr<Iterator> walk(db_->NewIterator(ReadOptions()));
      auto wit = model.end();  // model.end() == invalid.
      if (walk_rnd.OneIn(4)) {
        walk->SeekToLast();
        if (!model.empty()) wit = std::prev(model.end());
      } else {
        std::string target = test::TestKey(walk_rnd.Uniform(kKeySpace + 10));
        walk->Seek(target);
        wit = model.lower_bound(target);
      }
      const int steps = walk_rnd.Uniform(21);
      for (int step = 0;; step++) {
        ASSERT_EQ(wit != model.end(), walk->Valid())
            << "walk step " << step << " op " << op;
        if (wit == model.end() || step == steps) break;
        ASSERT_EQ(wit->first, walk->key().ToString()) << "op " << op;
        ASSERT_EQ(wit->second, walk->value().ToString()) << "op " << op;
        if (walk_rnd.OneIn(2)) {
          walk->Next();
          ++wit;
        } else {
          walk->Prev();
          wit = wit == model.begin() ? model.end() : std::prev(wit);
        }
      }
      ASSERT_TRUE(walk->status().ok()) << walk->status().ToString();
    } else if (dice < 97) {
      ASSERT_TRUE(db_->FlushMemTable().ok());
    } else {
      ASSERT_TRUE(db_->CompactAll().ok());
    }
  }

  // Final sweep: full iterator vs model.
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  auto mit = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++mit) {
    ASSERT_NE(mit, model.end());
    ASSERT_EQ(mit->first, iter->key().ToString());
    ASSERT_EQ(mit->second, iter->value().ToString());
  }
  ASSERT_EQ(mit, model.end());
  auto rit = model.rbegin();
  for (iter->SeekToLast(); iter->Valid(); iter->Prev(), ++rit) {
    ASSERT_NE(rit, model.rend());
    ASSERT_EQ(rit->first, iter->key().ToString());
    ASSERT_EQ(rit->second, iter->value().ToString());
  }
  ASSERT_EQ(rit, model.rend());
  ASSERT_TRUE(iter->status().ok()) << iter->status().ToString();
  iter.reset();

  if (Cfg().engine == 0) {
    // scan_merge_limit 3 over flushes of varied sizes: some scan-merge
    // consumed a run and left older or newer tables in place, so the
    // checks above covered partial scan-merges.
    uint64_t kept = 0;
    for (uint64_t n : EventField("scan_merge", "kept_tables")) kept += n;
    EXPECT_GT(kept, 0u) << "no scan-merge left a table in place";
    // Some split divided a partition while a table straddling its boundary
    // was unsorted, so the checks above ran across shared tables.
    if (Cfg().partitioning) {
      uint64_t shared = 0;
      for (uint64_t n : EventField("split", "unsorted_shared")) shared += n;
      EXPECT_GT(shared, 0u) << "no split shared an unsorted table";
    }
  }

  // Reopen and recheck a sample.
  db_.reset();
  Open();
  Random probe(Seed() * 3);
  for (int i = 0; i < 100; i++) {
    std::string key = test::TestKey(probe.Uniform(kKeySpace));
    std::string value;
    Status s = db_->Get(ReadOptions(), key, &value);
    auto it = model.find(key);
    if (it == model.end()) {
      ASSERT_TRUE(s.IsNotFound()) << key;
    } else {
      ASSERT_TRUE(s.ok()) << key << " " << s.ToString();
      ASSERT_EQ(it->second, value) << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigsBySeeds, ModelTest,
    testing::Combine(testing::Range(0, 6), testing::Range(0, 3)),
    [](const testing::TestParamInfo<std::tuple<int, int>>& info) {
      return std::string(kConfigs[std::get<0>(info.param)].name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace unikv
