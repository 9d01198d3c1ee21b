// End-to-end tests of the engine metrics surface: PerfContext tracing
// through Get/Put/Scan, the db.metrics / db.metrics.json properties, the
// stats sampler, every report agreeing with the one metrics registry, and
// GetProperty's contract over known and unknown names.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/db.h"
#include "core/unikv_db.h"
#include "test_util.h"
#include "util/event_logger.h"
#include "util/perf_context.h"

namespace unikv {
namespace {

// All EVENTS lines for a given event name, in file order.
std::vector<std::string> ReadEventLines(const std::string& dir,
                                        const std::string& event_name) {
  std::vector<std::string> matches;
  std::FILE* f =
      std::fopen((dir + "/" + EventLogger::kFileName).c_str(), "r");
  if (f == nullptr) return matches;
  std::string current;
  int c;
  const std::string needle = "\"event\":\"" + event_name + "\"";
  while ((c = std::fgetc(f)) != EOF) {
    if (c == '\n') {
      if (current.find(needle) != std::string::npos) {
        matches.push_back(current);
      }
      current.clear();
    } else {
      current.push_back(static_cast<char>(c));
    }
  }
  std::fclose(f);
  return matches;
}

// Extracts the unsigned value of `"field":<num>` from a JSON line.
uint64_t JsonUint(const std::string& line, const std::string& field) {
  size_t pos = line.find("\"" + field + "\":");
  EXPECT_NE(pos, std::string::npos) << field << " missing from " << line;
  if (pos == std::string::npos) return 0;
  return std::strtoull(line.c_str() + pos + field.size() + 3, nullptr, 10);
}

// Index just past the JSON value starting at json[pos]: a string, a
// nested object/array (brackets inside strings are skipped), or a scalar.
size_t SkipValue(const std::string& json, size_t pos) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = pos; i < json.size(); i++) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        i++;
      } else if (c == '"') {
        in_string = false;
        if (depth == 0) return i + 1;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      depth++;
    } else if (c == '}' || c == ']') {
      if (depth == 0) return i;  // End of the enclosing container.
      if (--depth == 0) return i + 1;
    } else if (c == ',' && depth == 0) {
      return i;
    }
  }
  return json.size();
}

// Top-level members of the JSON object starting at json[pos] == '{', as
// name -> raw value text. Keys are assumed unescaped (all engine keys are).
std::map<std::string, std::string> Members(const std::string& json,
                                           size_t pos) {
  std::map<std::string, std::string> out;
  EXPECT_EQ(json[pos], '{');
  size_t i = pos + 1;
  while (i < json.size() && json[i] == '"') {
    const size_t key_end = json.find('"', i + 1);
    const std::string key = json.substr(i + 1, key_end - i - 1);
    const size_t value_start = key_end + 2;  // Past `":`.
    const size_t value_end = SkipValue(json, value_start);
    out[key] = json.substr(value_start, value_end - value_start);
    i = value_end + (json[value_end] == ',' ? 1 : 0);
  }
  return out;
}

// Member `key` of the top-level object `json`, parsed as an object.
std::map<std::string, std::string> Object(const std::string& json,
                                          const std::string& key) {
  std::map<std::string, std::string> top = Members(json, 0);
  EXPECT_EQ(top.count(key), 1u) << key << " missing from " << json;
  return Members(top[key], 0);
}

// The objects of the JSON array text `array` ("[{...},{...}]").
std::vector<std::map<std::string, std::string>> ArrayObjects(
    const std::string& array) {
  std::vector<std::map<std::string, std::string>> out;
  size_t i = 1;
  while (i < array.size() && array[i] == '{') {
    out.push_back(Members(array, i));
    i = SkipValue(array, i);
    if (array[i] == ',') i++;
  }
  return out;
}

uint64_t ToU64(const std::string& raw) {
  return std::strtoull(raw.c_str(), nullptr, 10);
}

Options SmallOptions() {
  Options opt;
  opt.write_buffer_size = 32 * 1024;
  opt.unsorted_limit = 128 * 1024;
  opt.partition_size_limit = 4 * 1024 * 1024;
  opt.sorted_table_size = 64 * 1024;
  opt.gc_garbage_threshold = 128 * 1024;
  return opt;
}

class DbMetricsTest : public testing::Test {
 protected:
  void OpenDb(const Options& opt, const std::string& suffix = "") {
    dir_ = test::NewTestDir("db_metrics_test" + suffix);
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(opt, dir_, &raw).ok());
    db_.reset(raw);
  }

  // Loads enough data that both stores are populated: flushed tables in
  // the UnsortedStore and (after CompactAll) a merged SortedStore.
  void LoadBothStores() {
    for (int i = 0; i < 1500; i++) {
      ASSERT_TRUE(
          db_->Put(WriteOptions(), test::TestKey(i), test::TestValue(i, 256))
              .ok());
    }
    ASSERT_TRUE(db_->CompactAll().ok());  // -> SortedStore.
    for (int i = 1500; i < 2000; i++) {
      ASSERT_TRUE(
          db_->Put(WriteOptions(), test::TestKey(i), test::TestValue(i, 256))
              .ok());
    }
    ASSERT_TRUE(db_->FlushMemTable().ok());  // -> UnsortedStore tables.
  }

  std::string dir_;
  std::unique_ptr<DB> db_;
};

TEST_F(DbMetricsTest, GetThroughBothStoresBumpsCounters) {
  OpenDb(SmallOptions());
  LoadBothStores();

  PerfContext* perf = GetPerfContext();
  perf->Reset();

  // A key now living in the UnsortedStore: the hash index must be probed
  // and at least one unsorted table touched.
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(1600), &value).ok());
  EXPECT_EQ(value, test::TestValue(1600, 256));
  EXPECT_EQ(perf->gets, 1u);
  EXPECT_GE(perf->hash_index_lookups, 1u);
  EXPECT_GE(perf->hash_index_probes, 1u);
  EXPECT_GE(perf->unsorted_tables_probed, 1u);

  PerfContext before = *perf;
  // A key living only in the SortedStore: one binary-searched table seek.
  ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(10), &value).ok());
  EXPECT_EQ(value, test::TestValue(10, 256));
  PerfContext d = perf->DeltaSince(before);
  EXPECT_EQ(d.gets, 1u);
  EXPECT_GE(d.sorted_seeks, 1u);

  // The same activity must be visible in the engine-wide registry.
  std::string json;
  ASSERT_TRUE(db_->GetProperty("db.metrics.json", &json));
  EXPECT_NE(json.find("\"gets\":"), std::string::npos);
  EXPECT_EQ(json.find("\"gets\":0,"), std::string::npos) << json;
}

TEST_F(DbMetricsTest, MetricsJsonIsParseableAndComplete) {
  OpenDb(SmallOptions(), "_json");
  LoadBothStores();
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(1), &value).ok());
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(db_->Scan(ReadOptions(), test::TestKey(0), 50, &out).ok());

  std::string json;
  ASSERT_TRUE(db_->GetProperty("db.metrics.json", &json));
  ASSERT_TRUE(test::IsValidJson(json)) << json;

  // Top-level sections.
  EXPECT_NE(json.find("\"engine\":"), std::string::npos);
  EXPECT_NE(json.find("\"stats\":"), std::string::npos);
  EXPECT_NE(json.find("\"partitions\":["), std::string::npos);

  // At least 10 engine counters are reported by name.
  const char* counters[] = {
      "\"gets\"",          "\"writes\"",       "\"scans\"",
      "\"memtable_hits\"", "\"hash_index_lookups\"",
      "\"hash_index_probes\"", "\"unsorted_tables_probed\"",
      "\"sorted_seeks\"",  "\"table_cache_hits\"",
      "\"vlog_reads\"",    "\"write_bytes\"",  "\"bloom_checks\""};
  int present = 0;
  for (const char* name : counters) {
    if (json.find(name) != std::string::npos) present++;
  }
  EXPECT_GE(present, 10) << json;

  // Per-partition stats carry structural fields and job counters.
  EXPECT_NE(json.find("\"unsorted_tables\":"), std::string::npos);
  EXPECT_NE(json.find("\"sorted_bytes\":"), std::string::npos);
  EXPECT_NE(json.find("\"vlog_garbage_bytes\":"), std::string::npos);
  EXPECT_NE(json.find("\"garbage_ratio\":"), std::string::npos);
  EXPECT_NE(json.find("\"index_entries\":"), std::string::npos);
  EXPECT_NE(json.find("\"flushes\":"), std::string::npos);

  // Stall fields (satellite of the write-path instrumentation).
  EXPECT_NE(json.find("\"write_stalls\":"), std::string::npos);
  EXPECT_NE(json.find("\"stall_micros\":"), std::string::npos);
}

TEST_F(DbMetricsTest, MetricsTextProperty) {
  OpenDb(SmallOptions(), "_text");
  LoadBothStores();
  std::string text;
  ASSERT_TRUE(db_->GetProperty("db.metrics", &text));
  EXPECT_NE(text.find("writes"), std::string::npos);
  EXPECT_NE(text.find("-- partitions --"), std::string::npos);
  EXPECT_NE(text.find("partition"), std::string::npos);
}

TEST_F(DbMetricsTest, GetPropertyContract) {
  OpenDb(SmallOptions(), "_prop");
  LoadBothStores();

  // Unknown names return false and leave no obligation on *value.
  std::string value;
  EXPECT_FALSE(db_->GetProperty("db.no-such-property", &value));
  EXPECT_FALSE(db_->GetProperty("", &value));
  EXPECT_FALSE(db_->GetProperty("db.metrics.jso", &value));
  EXPECT_FALSE(db_->GetProperty("db.metrics.jsonx", &value));

  // Every supported name returns true with non-empty output.
  const char* props[] = {"db.num-partitions", "db.hash-index-bytes",
                         "db.hash-index-entries", "db.num-files",
                         "db.stats",          "db.sstables",
                         "db.table-accesses", "db.metrics",
                         "db.metrics.json",   "db.stats.history"};
  for (const char* p : props) {
    value.clear();
    EXPECT_TRUE(db_->GetProperty(p, &value)) << p;
    EXPECT_FALSE(value.empty()) << p;
  }

  // db.stats now reports write-stall visibility.
  ASSERT_TRUE(db_->GetProperty("db.stats", &value));
  EXPECT_NE(value.find("write_stalls="), std::string::npos);
  EXPECT_NE(value.find("stall_micros="), std::string::npos);
}

TEST_F(DbMetricsTest, PropertiesRenderLongPartitionBounds) {
  // Regression: db.sstables and db.metrics used to render partition lines
  // through a fixed snprintf buffer, silently truncating a long partition
  // lower bound and everything after it on the line. Force a split with
  // long keys so a partition's lower bound is itself a long key, then
  // check every partition line is complete.
  Options opt = SmallOptions();
  opt.partition_size_limit = 128 * 1024;
  opt.sorted_table_size = 16 * 1024;
  OpenDb(opt, "_longkeys");
  const std::string prefix(300, 'k');
  for (int i = 0; i < 600; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), prefix + test::TestKey(i),
                         test::TestValue(i, 256))
                    .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  std::string np;
  ASSERT_TRUE(db_->GetProperty("db.num-partitions", &np));
  ASSERT_GE(std::stoi(np), 2) << "split did not happen; test is vacuous";

  std::string tables;
  ASSERT_TRUE(db_->GetProperty("db.sstables", &tables));
  // The split partition's lower bound is one of the long keys and must
  // appear in full.
  EXPECT_NE(tables.find(prefix), std::string::npos) << tables;
  // Every partition line must survive past its bound: "[<bound>..):" and
  // the trailing counters.
  size_t start = 0;
  int lines = 0;
  while (start < tables.size()) {
    size_t end = tables.find('\n', start);
    if (end == std::string::npos) end = tables.size();
    std::string line = tables.substr(start, end - start);
    EXPECT_NE(line.find("..): unsorted="), std::string::npos) << line;
    EXPECT_NE(line.find(" vlogs="), std::string::npos) << line;
    lines++;
    start = end + 1;
  }
  EXPECT_GE(lines, 2);

  // The human-readable metrics text renders the same bounds.
  std::string text;
  ASSERT_TRUE(db_->GetProperty("db.metrics", &text));
  EXPECT_NE(text.find(prefix), std::string::npos);
}

TEST_F(DbMetricsTest, ScanAndWriteCountersAdvance) {
  OpenDb(SmallOptions(), "_ops");
  PerfContext* perf = GetPerfContext();
  perf->Reset();

  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), test::TestKey(i), test::TestValue(i, 64))
            .ok());
  }
  EXPECT_EQ(perf->writes, 100u);
  EXPECT_GT(perf->write_memtable_micros + perf->write_wal_micros +
                perf->write_micros,
            0u);

  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(db_->Scan(ReadOptions(), test::TestKey(0), 10, &out).ok());
  EXPECT_EQ(out.size(), 10u);
  EXPECT_EQ(perf->scans, 1u);
  perf->Reset();
}

TEST_F(DbMetricsTest, StatsSamplerOffByDefault) {
  // Options default to stats_sample_interval_ms == 0: no sampler thread,
  // an empty history, and no stats_sample lines in EVENTS.
  OpenDb(SmallOptions(), "_sampler_off");
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), test::TestKey(i), test::TestValue(i, 64))
            .ok());
  }
  Env::Default()->SleepForMicroseconds(60 * 1000);

  std::string history;
  ASSERT_TRUE(db_->GetProperty("db.stats.history", &history));
  EXPECT_EQ(history, "[]");
  EXPECT_TRUE(ReadEventLines(dir_, "stats_sample").empty());
}

TEST_F(DbMetricsTest, StatsSamplerProducesHistoryAndEvents) {
  Options opt = SmallOptions();
  opt.stats_sample_interval_ms = 25;
  OpenDb(opt, "_sampler_on");

  // Several rounds of work with sleeps longer than the interval so the
  // sampler observes distinct cumulative states.
  for (int round = 0; round < 3; round++) {
    for (int i = 0; i < 500; i++) {
      ASSERT_TRUE(db_->Put(WriteOptions(), test::TestKey(round * 500 + i),
                           test::TestValue(i, 256))
                      .ok());
    }
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(round * 500), &value)
                    .ok());
    Env::Default()->SleepForMicroseconds(40 * 1000);
  }

  // The in-memory ring: valid JSON, >= 2 entries, cumulative counters
  // non-decreasing across entries and consistent with the work done.
  std::string history;
  ASSERT_TRUE(db_->GetProperty("db.stats.history", &history));
  ASSERT_TRUE(test::IsValidJson(history)) << history;
  std::vector<size_t> entry_starts;
  for (size_t pos = history.find("{\"ts_micros\":"); pos != std::string::npos;
       pos = history.find("{\"ts_micros\":", pos + 1)) {
    entry_starts.push_back(pos);
  }
  ASSERT_GE(entry_starts.size(), 2u) << history;
  uint64_t prev_writes = 0, prev_ts = 0;
  for (size_t start : entry_starts) {
    std::string entry = history.substr(start);
    uint64_t w = JsonUint(entry, "writes");
    uint64_t ts = JsonUint(entry, "ts_micros");
    EXPECT_GE(w, prev_writes);
    EXPECT_GE(ts, prev_ts);
    prev_writes = w;
    prev_ts = ts;
  }
  EXPECT_LE(prev_writes, 1500u);
  EXPECT_GT(prev_writes, 0u);

  // The sampler diffs the whole registry: every history entry carries
  // every engine-wide counter series, and per-partition series.
  const CounterSnapshot reg =
      static_cast<UniKVDB*>(db_.get())->TEST_metrics().SnapshotCounters();
  ASSERT_GT(reg.engine.count("gcs"), 0u);
  ASSERT_GT(reg.engine.count("vlog_reads"), 0u);
  for (size_t start : entry_starts) {
    const std::map<std::string, std::string> entry = Members(history, start);
    for (const auto& [name, v] : reg.engine) {
      EXPECT_EQ(entry.count(name), 1u) << name << " missing from history";
    }
    const auto parts = ArrayObjects(entry.at("partitions"));
    ASSERT_FALSE(parts.empty());
    EXPECT_EQ(parts[0].count("heat_reads"), 1u);
  }

  // EVENTS carries one stats_sample line per interval; each is valid JSON
  // with the delta/cumulative/heat fields, and for every counter series
  // the deltas telescope exactly to the cumulative values.
  std::vector<std::string> lines = ReadEventLines(dir_, "stats_sample");
  ASSERT_GE(lines.size(), 2u);
  std::map<std::string, uint64_t> d_sum;
  for (const std::string& line : lines) {
    EXPECT_TRUE(test::IsValidJson(line)) << line;
    EXPECT_NE(line.find("\"interval_micros\":"), std::string::npos);
    EXPECT_NE(line.find("\"stall_causes\":{\"memtable_wait\":"),
              std::string::npos);
    EXPECT_NE(line.find("\"cache_hit_ratio\":"), std::string::npos);
    EXPECT_NE(line.find("\"partitions\":["), std::string::npos);
    const std::map<std::string, std::string> m = Members(line, 0);
    for (const auto& [name, v] : reg.engine) {
      ASSERT_EQ(m.count("d_" + name), 1u) << name << " missing from " << line;
      ASSERT_EQ(m.count("cum_" + name), 1u) << name << " missing";
      d_sum[name] += ToU64(m.at("d_" + name));
    }
  }
  const std::map<std::string, std::string> first = Members(lines.front(), 0);
  const std::map<std::string, std::string> last = Members(lines.back(), 0);
  for (const auto& [name, v] : reg.engine) {
    const uint64_t baseline =
        ToU64(first.at("cum_" + name)) - ToU64(first.at("d_" + name));
    EXPECT_EQ(d_sum[name], ToU64(last.at("cum_" + name)) - baseline) << name;
  }
  EXPECT_GT(d_sum["writes"], 0u);

  // Closing the DB joins the sampler thread without hanging; history
  // survives until then.
  db_.reset();
}

TEST_F(DbMetricsTest, MultiGetReusesTableHandlesWithinBatch) {
  // Regression for table-cache handle churn: the looped-Get path does one
  // cache Lookup/Release round-trip per key, so 64 gets cost >= 64 cache
  // lookups even when every key lives in the same table. MultiGet pins
  // each table handle once per batch (TableCache::BatchPin), so the same
  // 64 keys must cost only one lookup per distinct table.
  OpenDb(SmallOptions(), "_mget");
  LoadBothStores();

  // Keys 100..163 were loaded before CompactAll, so they live only in the
  // SortedStore: no unsorted candidates, exactly one table probe per key.
  std::vector<std::string> key_bufs;
  for (int i = 100; i < 164; i++) key_bufs.push_back(test::TestKey(i));
  std::vector<Slice> keys(key_bufs.begin(), key_bufs.end());

  PerfContext* perf = GetPerfContext();
  perf->Reset();
  std::string value;
  for (const Slice& k : keys) {
    ASSERT_TRUE(db_->Get(ReadOptions(), k, &value).ok());
  }
  const uint64_t get_lookups = perf->table_cache_hits + perf->table_cache_misses;
  EXPECT_GE(get_lookups, keys.size()) << "one cache lookup per looped Get";

  PerfContext before = *perf;
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_TRUE(db_->MultiGet(ReadOptions(), keys, &values, &statuses).ok());
  PerfContext d = perf->DeltaSince(before);
  const uint64_t mget_lookups = d.table_cache_hits + d.table_cache_misses;
  // 64 adjacent keys span at most a handful of sorted tables; the batch
  // must do one lookup per table, not per key.
  EXPECT_LT(mget_lookups * 4, get_lookups)
      << "BatchPin no longer suppresses per-key cache churn";
  EXPECT_EQ(d.multigets, 1u);
  EXPECT_EQ(d.multiget_keys, keys.size());
  for (size_t i = 0; i < keys.size(); i++) {
    ASSERT_TRUE(statuses[i].ok());
    EXPECT_EQ(values[i], test::TestValue(static_cast<uint64_t>(i) + 100, 256));
  }

  // The batched-read metrics surface in both metrics properties; adjacent
  // log-resident values coalesce, so the span counters are non-zero.
  std::string json;
  ASSERT_TRUE(db_->GetProperty("db.metrics.json", &json));
  ASSERT_TRUE(test::IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"multigets\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"multiget_latency_us\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"multiget_keys_per_batch\":"), std::string::npos)
      << json;
  EXPECT_EQ(json.find("\"multigets\":0,"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"multiget_coalesced_reads\":0,"), std::string::npos)
      << json;
  EXPECT_EQ(json.find("\"multiget_io_bytes_saved\":0,"), std::string::npos)
      << json;
}

TEST_F(DbMetricsTest, HeatAndAmpGaugesInMetricsJson) {
  OpenDb(SmallOptions(), "_heat");
  LoadBothStores();
  std::string value;
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(i), &value).ok());
  }

  std::string json;
  ASSERT_TRUE(db_->GetProperty("db.metrics.json", &json));
  ASSERT_TRUE(test::IsValidJson(json)) << json;
  // Per-partition heat counters and amplification gauges.
  EXPECT_NE(json.find("\"heat_reads\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"heat_writes\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"write_amp\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"space_amp\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"user_bytes_flushed\":"), std::string::npos) << json;
  // The 50 gets above landed on some partition's read-heat counter.
  EXPECT_EQ(json.find("\"heat_reads\":0,"), std::string::npos) << json;

  // The human-readable db.metrics text renders the same gauges.
  std::string text;
  ASSERT_TRUE(db_->GetProperty("db.metrics", &text));
  EXPECT_NE(text.find("heat_r="), std::string::npos) << text;
  EXPECT_NE(text.find("wamp="), std::string::npos) << text;
  EXPECT_NE(text.find("samp="), std::string::npos) << text;
}

TEST_F(DbMetricsTest, EveryReportRendersTheRegistry) {
  // Several partitions, data in both stores, and every read API, so the
  // job, byte, heat and read-path series are all non-trivial.
  Options opt = SmallOptions();
  opt.partition_size_limit = 256 * 1024;
  OpenDb(opt, "_registry");
  LoadBothStores();
  std::string value;
  for (int i = 0; i < 2000; i += 7) {
    ASSERT_TRUE(db_->Get(ReadOptions(), test::TestKey(i), &value).ok());
  }
  std::vector<std::string> key_bufs;
  for (int i = 0; i < 2000; i += 40) key_bufs.push_back(test::TestKey(i));
  std::vector<Slice> keys(key_bufs.begin(), key_bufs.end());
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_TRUE(db_->MultiGet(ReadOptions(), keys, &values, &statuses).ok());
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(db_->Scan(ReadOptions(), test::TestKey(0), 100, &out).ok());

  // The property read folds this thread's pending PerfContext window. A
  // job the last flush triggered may still install, so the reports are
  // compared with a snapshot only when an equal snapshot was also taken
  // before they rendered: no job moved the registry in between.
  const MetricsRegistry& metrics =
      static_cast<UniKVDB*>(db_.get())->TEST_metrics();
  std::string json, stats_text;
  CounterSnapshot reg;
  for (int attempt = 0;; attempt++) {
    ASSERT_LT(attempt, 1000) << "the registry never held still";
    const CounterSnapshot before = metrics.SnapshotCounters();
    ASSERT_TRUE(db_->GetProperty("db.metrics.json", &json));
    ASSERT_TRUE(db_->GetProperty("db.stats", &stats_text));
    reg = metrics.SnapshotCounters();
    if (before.engine == reg.engine && before.partitions == reg.partitions) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(test::IsValidJson(json)) << json;
  ASSERT_GE(reg.partitions.size(), 2u) << "no split; test is vacuous";

  // Every engine-wide series appears under engine.counters with the same
  // value, and nothing else does.
  const auto counters = Members(Object(json, "engine").at("counters"), 0);
  EXPECT_EQ(counters.size(), reg.engine.size());
  for (const auto& [name, v] : reg.engine) {
    ASSERT_EQ(counters.count(name), 1u) << name;
    EXPECT_EQ(ToU64(counters.at(name)), v) << name;
  }
  EXPECT_GT(reg.engine.at("gets"), 0u);
  EXPECT_GT(reg.engine.at("merges"), 0u);
  EXPECT_GT(reg.engine.at("splits"), 0u);
  EXPECT_GT(reg.engine.at("iterator_partitions_opened"), 0u);
  EXPECT_GT(reg.engine.at("iterator_tables_opened"), 0u);

  // Every key under `stats` names an engine-wide series, same value.
  for (const auto& [name, raw] : Object(json, "stats")) {
    ASSERT_EQ(reg.engine.count(name), 1u) << name;
    EXPECT_EQ(ToU64(raw), reg.engine.at(name)) << name;
  }

  // Every per-partition series appears in its partitions[] entry with the
  // same value; every other key there is structure derived from the
  // version (or a ratio of series) at render time.
  const std::set<std::string> structural = {
      "id",           "lower_bound",        "unsorted_tables",
      "unsorted_bytes", "sorted_tables",    "sorted_bytes",
      "logical_bytes", "vlog_files",        "vlog_bytes",
      "vlog_garbage_bytes", "garbage_ratio", "index_entries",
      "index_bytes",  "write_amp",          "space_amp"};
  const auto parts = ArrayObjects(Members(json, 0).at("partitions"));
  ASSERT_EQ(parts.size(), reg.partitions.size());
  uint64_t heat_reads = 0;
  for (const auto& part : parts) {
    const uint32_t pid = static_cast<uint32_t>(ToU64(part.at("id")));
    ASSERT_EQ(reg.partitions.count(pid), 1u) << pid;
    const auto& series = reg.partitions.at(pid);
    for (const auto& [name, v] : series) {
      ASSERT_EQ(part.count(name), 1u) << name << " of partition " << pid;
      EXPECT_EQ(ToU64(part.at(name)), v) << name << " of partition " << pid;
    }
    for (const auto& [name, raw] : part) {
      EXPECT_TRUE(structural.count(name) == 1 || series.count(name) == 1)
          << name << " of partition " << pid << " is not a registry series";
    }
    heat_reads += series.at("heat_reads");
  }
  // Each Get and each distinct MultiGet key heats one partition.
  EXPECT_EQ(heat_reads, reg.engine.at("gets") + reg.engine.at("multiget_keys"));

  // db.stats renders the same series (sizes in MiB aside).
  for (const char* name : {"flushes", "merges", "scan_merges", "gcs",
                           "splits", "write_stalls", "stall_micros"}) {
    const std::string field = std::string(" ") + name + "=";
    const size_t pos = (" " + stats_text).find(field);
    ASSERT_NE(pos, std::string::npos) << name << " in " << stats_text;
    EXPECT_EQ(std::strtoull(stats_text.c_str() + pos + field.size() - 1,
                            nullptr, 10),
              reg.engine.at(name))
        << name;
  }
}

TEST_F(DbMetricsTest, HeatBumpsRaceReportsAndSampler) {
  // Get and MultiGet threads bump per-partition heat (and a writer drives
  // flushes, merges and splits, registering new partitions) while another
  // thread renders every report and the sampler diffs the registry. Run
  // under ThreadSanitizer by db_metrics_tsan_test.
  Options opt = SmallOptions();
  opt.partition_size_limit = 256 * 1024;
  opt.stats_sample_interval_ms = 5;
  OpenDb(opt, "_race");
  for (int i = 0; i < 400; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), test::TestKey(i), test::TestValue(i, 256))
            .ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int i = 400; i < 1600; i++) {
      ASSERT_TRUE(
          db_->Put(WriteOptions(), test::TestKey(i), test::TestValue(i, 256))
              .ok());
    }
    stop = true;
  });
  threads.emplace_back([&] {
    std::string value;
    for (uint64_t n = 0; !stop; n++) {
      (void)db_->Get(ReadOptions(), test::TestKey(n * 13 % 400), &value);
      reads++;
    }
  });
  threads.emplace_back([&] {
    std::vector<std::string> key_bufs;
    for (int i = 0; i < 400; i += 25) key_bufs.push_back(test::TestKey(i));
    std::vector<Slice> keys(key_bufs.begin(), key_bufs.end());
    std::vector<std::string> values;
    std::vector<Status> statuses;
    while (!stop) {
      (void)db_->MultiGet(ReadOptions(), keys, &values, &statuses);
      reads++;
    }
  });
  threads.emplace_back([&] {
    std::string v;
    while (!stop) {
      EXPECT_TRUE(db_->GetProperty("db.metrics.json", &v));
      EXPECT_TRUE(test::IsValidJson(v));
      EXPECT_TRUE(db_->GetProperty("db.metrics", &v));
      EXPECT_TRUE(db_->GetProperty("db.stats", &v));
      EXPECT_TRUE(db_->GetProperty("db.stats.history", &v));
      EXPECT_TRUE(test::IsValidJson(v));
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_GT(reads.load(), 0u);
  ASSERT_TRUE(db_->CompactAll().ok());

  // Heat counted during the race is all there: quiescent, the registry
  // holds at least one heat bump per completed Get.
  std::string json;
  ASSERT_TRUE(db_->GetProperty("db.metrics.json", &json));
  uint64_t heat_reads = 0;
  for (const auto& part : ArrayObjects(Members(json, 0).at("partitions"))) {
    heat_reads += ToU64(part.at("heat_reads"));
  }
  EXPECT_GT(heat_reads, 0u);
  db_.reset();  // Joins the sampler while history is live.
}

}  // namespace
}  // namespace unikv
