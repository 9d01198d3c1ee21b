// Tests for the structured event logger: standalone JSON-line behavior,
// and end-to-end coverage that UniKV background jobs (flush, merge,
// scan-merge, GC) each append one well-formed JSON event with a measured
// duration to <dbname>/EVENTS.

#include "util/event_logger.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/db.h"
#include "core/unikv_db.h"
#include "test_util.h"

namespace unikv {
namespace {

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return lines;
  std::string current;
  int c;
  while ((c = std::fgetc(f)) != EOF) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current.push_back(static_cast<char>(c));
    }
  }
  if (!current.empty()) lines.push_back(current);
  std::fclose(f);
  return lines;
}

// The unsigned field `name` of an EVENTS line; fails the test if absent.
uint64_t FieldOf(const std::string& line, const std::string& name) {
  const std::string tag = "\"" + name + "\":";
  const size_t pos = line.find(tag);
  EXPECT_NE(pos, std::string::npos) << name << " missing: " << line;
  if (pos == std::string::npos) return 0;
  return std::stoull(line.substr(pos + tag.size()));
}

TEST(EventLoggerTest, WritesOneJsonObjectPerLine) {
  std::string dir = test::NewTestDir("event_logger");
  EventLogger logger(Env::Default(), dir);

  for (int i = 0; i < 3; i++) {
    JsonBuilder ev;
    ev.AddUint("round", i);
    ev.AddString("note", "hello \"world\"\n");
    logger.Log("unit_test", &ev);
  }
  EXPECT_FALSE(logger.disabled());

  std::vector<std::string> lines =
      ReadLines(dir + "/" + EventLogger::kFileName);
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) {
    EXPECT_TRUE(test::IsValidJson(line)) << line;
    EXPECT_NE(line.find("\"event\":\"unit_test\""), std::string::npos);
    EXPECT_NE(line.find("\"ts_micros\":"), std::string::npos);
  }
  EXPECT_NE(lines[2].find("\"round\":2"), std::string::npos);
}

TEST(EventLoggerTest, AppendsAcrossLoggerInstances) {
  std::string dir = test::NewTestDir("event_logger_append");
  {
    EventLogger logger(Env::Default(), dir);
    JsonBuilder ev;
    logger.Log("first", &ev);
  }
  {
    EventLogger logger(Env::Default(), dir);
    JsonBuilder ev;
    logger.Log("second", &ev);
  }
  std::vector<std::string> lines =
      ReadLines(dir + "/" + EventLogger::kFileName);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("first"), std::string::npos);
  EXPECT_NE(lines[1].find("second"), std::string::npos);
}

TEST(EventLoggerTest, DisabledOnUnwritableDir) {
  // A directory that cannot be created (parent missing).
  EventLogger logger(Env::Default(),
                     "/nonexistent-unikv-root/sub/dir");
  JsonBuilder ev;
  logger.Log("ignored", &ev);
  EXPECT_TRUE(logger.disabled());
  // Further logging is a silent no-op, not a crash.
  JsonBuilder ev2;
  logger.Log("ignored2", &ev2);
}

TEST(EventLoggerTest, RotatesAtSizeCap) {
  std::string dir = test::NewTestDir("event_logger_rotate");
  constexpr uint64_t kCap = 512;
  EventLogger logger(Env::Default(), dir, kCap);

  // Each line is ~100 bytes after padding, so the cap fits ~5 of them and
  // 50 events force many rotations.
  const std::string pad(60, 'x');
  const int kEvents = 50;
  for (int i = 0; i < kEvents; i++) {
    JsonBuilder ev;
    ev.AddUint("round", i);
    ev.AddString("pad", pad);
    logger.Log("rotate_test", &ev);
  }
  EXPECT_FALSE(logger.disabled());

  Env* env = Env::Default();
  const std::string cur_path = dir + "/" + EventLogger::kFileName;
  const std::string old_path = dir + "/" + EventLogger::kOldFileName;
  ASSERT_TRUE(env->FileExists(cur_path));
  ASSERT_TRUE(env->FileExists(old_path));

  uint64_t cur_size = 0;
  ASSERT_TRUE(env->GetFileSize(cur_path, &cur_size).ok());
  EXPECT_LE(cur_size, kCap);

  // Both generations hold well-formed JSON lines, and together they cover
  // a contiguous tail of the rounds: EVENTS.old ends exactly where EVENTS
  // begins, and EVENTS ends with the newest round.
  std::vector<std::string> old_lines = ReadLines(old_path);
  std::vector<std::string> cur_lines = ReadLines(cur_path);
  ASSERT_FALSE(old_lines.empty());
  ASSERT_FALSE(cur_lines.empty());
  for (const std::string& line : old_lines) {
    EXPECT_TRUE(test::IsValidJson(line)) << line;
  }
  for (const std::string& line : cur_lines) {
    EXPECT_TRUE(test::IsValidJson(line)) << line;
  }
  auto round_of = [](const std::string& line) {
    size_t pos = line.find("\"round\":");
    EXPECT_NE(pos, std::string::npos) << line;
    return std::stoi(line.substr(pos + 8));
  };
  EXPECT_EQ(round_of(cur_lines.back()), kEvents - 1);
  EXPECT_EQ(round_of(cur_lines.front()), round_of(old_lines.back()) + 1);
  int prev = round_of(old_lines.front());
  for (size_t i = 1; i < old_lines.size(); i++) {
    EXPECT_EQ(round_of(old_lines[i]), prev + 1);
    prev = round_of(old_lines[i]);
  }
}

TEST(EventLoggerTest, DbBackgroundJobsEmitEvents) {
  std::string dir = test::NewTestDir("event_logger_db");
  Options opt;
  opt.write_buffer_size = 32 * 1024;
  opt.unsorted_limit = 128 * 1024;
  opt.sorted_table_size = 64 * 1024;
  opt.gc_garbage_threshold = 64 * 1024;
  opt.scan_merge_limit = 3;  // Scan-merges between the merges.

  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(opt, dir, &raw).ok());
  std::unique_ptr<DB> db(raw);

  // Write enough (with overwrites, so merges create vlog garbage and GC
  // has work) to force flushes, scan-merges and merges, then drain
  // everything.
  const int kKeys = 2000;
  for (int round = 0; round < 2; round++) {
    for (int i = 0; i < kKeys; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), test::TestKey(i),
                          test::TestValue(i ^ round, 256))
                      .ok());
    }
  }
  ASSERT_TRUE(db->CompactAll().ok());

  std::vector<std::string> lines =
      ReadLines(dir + "/" + EventLogger::kFileName);
  ASSERT_FALSE(lines.empty());

  // Merge, scan-merge and GC are one job body; each kind's line keeps its
  // name and carries the same fields, and perfbench sums their
  // bytes_written.
  const char* const kRewriteFields[] = {
      "partition",     "bytes_read",       "bytes_written",
      "input_tables",  "kept_tables",      "input_vlogs",
      "output_tables", "surviving_tables", "vlog_bytes",
      "garbage_added", "dropped_versions", "install_micros"};
  std::map<std::string, int> jobs;
  std::map<std::string, uint64_t> bytes_written;
  for (const std::string& line : lines) {
    EXPECT_TRUE(test::IsValidJson(line)) << line;
    EXPECT_NE(line.find("\"duration_micros\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"ts_micros\":"), std::string::npos) << line;
    for (const char* kind : {"flush", "merge", "scan_merge", "gc"}) {
      if (line.find("\"event\":\"" + std::string(kind) + "\"") ==
          std::string::npos) {
        continue;
      }
      jobs[kind]++;
      if (std::string(kind) == "flush") continue;
      for (const char* field : kRewriteFields) FieldOf(line, field);
      bytes_written[kind] += FieldOf(line, "bytes_written");
    }
    // Every job that installs a version reports how long it held the DB
    // mutex for the install, at most its whole duration.
    for (const char* kind : {"flush", "merge", "scan_merge", "gc", "split"}) {
      if (line.find("\"event\":\"" + std::string(kind) + "\"") ==
          std::string::npos) {
        continue;
      }
      const size_t pos = line.find("\"install_micros\":");
      ASSERT_NE(pos, std::string::npos) << line;
      const uint64_t install = std::stoull(line.substr(pos + 17));
      const uint64_t duration =
          std::stoull(line.substr(line.find("\"duration_micros\":") + 18));
      EXPECT_LE(install, duration) << line;
    }
  }
  EXPECT_GT(jobs["flush"], 0);
  EXPECT_GT(jobs["merge"], 0);
  EXPECT_GT(jobs["scan_merge"], 0);
  EXPECT_GT(jobs["gc"], 0);

  // The event counts match what db.stats reports, one line per job, and
  // each kind's bytes_written sums to its registry series.
  std::string stats;
  ASSERT_TRUE(db->GetProperty("db.stats", &stats));
  EXPECT_NE(stats.find("flushes=" + std::to_string(jobs["flush"])),
            std::string::npos)
      << stats;
  EXPECT_NE(stats.find(" merges=" + std::to_string(jobs["merge"])),
            std::string::npos)
      << stats;
  EXPECT_NE(
      stats.find(" scan_merges=" + std::to_string(jobs["scan_merge"]) + " "),
      std::string::npos)
      << stats;
  EXPECT_NE(stats.find(" gcs=" + std::to_string(jobs["gc"])),
            std::string::npos)
      << stats;
  const CounterSnapshot counters =
      static_cast<UniKVDB*>(db.get())->TEST_metrics().SnapshotCounters();
  EXPECT_EQ(bytes_written["merge"], counters.engine.at("merge_bytes_written"));
  EXPECT_EQ(bytes_written["scan_merge"],
            counters.engine.at("scan_merge_bytes_written"));
  EXPECT_EQ(bytes_written["gc"], counters.engine.at("gc_bytes_written"));

  // EVENTS must survive RemoveObsoleteFiles (it is not a tracked file
  // type) and reopen.
  db.reset();
  ASSERT_TRUE(DB::Open(opt, dir, &raw).ok());
  db.reset(raw);
  EXPECT_TRUE(Env::Default()->FileExists(dir + "/" +
                                         EventLogger::kFileName));
}

// A scan-merge line names the run it consumed (input_tables) and the
// snapshot tables it left in place (kept_tables).
TEST(EventLoggerTest, ScanMergeEventCountsRunAndKeptTables) {
  std::string dir = test::NewTestDir("event_logger_scan_merge");
  Options opt;
  opt.write_buffer_size = 8 << 20;  // Only FlushMemTable flushes.
  opt.unsorted_limit = 64 << 20;    // Never a regular merge.
  opt.scan_merge_limit = 3;

  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(opt, dir, &raw).ok());
  std::unique_ptr<DB> db(raw);
  // One big table, then two small ones: the small pair is the run.
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), test::TestKey(i),
                        test::TestValue(i, 256))
                    .ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  for (int i = 0; i < 2; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), test::TestKey(i), "small").ok());
    ASSERT_TRUE(db->FlushMemTable().ok());
  }
  std::vector<std::string> scan_merges;
  for (int tries = 0; tries < 1000 && scan_merges.empty(); tries++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    for (const std::string& line :
         ReadLines(dir + "/" + EventLogger::kFileName)) {
      if (line.find("\"event\":\"scan_merge\"") != std::string::npos) {
        scan_merges.push_back(line);
      }
    }
  }
  ASSERT_EQ(1u, scan_merges.size());
  EXPECT_TRUE(test::IsValidJson(scan_merges[0])) << scan_merges[0];
  EXPECT_NE(std::string::npos,
            scan_merges[0].find("\"input_tables\":2,\"kept_tables\":1,"))
      << scan_merges[0];
}

}  // namespace
}  // namespace unikv
