// Value-log tests: pointer codec, record round trips via the cache,
// sequential scans, torn-tail handling, and the batched ValueFetcher
// (coalescing, span cap, per-slot failures). The fixture
// runs over MemEnv, whose files have no mapping (the pread fallback), and
// over PosixEnv, whose span reads are served zero-copy from mmap.

#include "vlog/value_log.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/filename.h"
#include "test_util.h"
#include "util/env.h"
#include "util/metrics.h"
#include "vlog/value_fetcher.h"

namespace unikv {
namespace {

TEST(ValuePointer, Codec) {
  ValuePointer ptr;
  ptr.partition = 7;
  ptr.log_number = 123456789;
  ptr.offset = 0xDEADBEEFCAFEull;
  ptr.size = 4096;
  std::string encoded;
  ptr.EncodeTo(&encoded);

  ValuePointer decoded;
  Slice input(encoded);
  ASSERT_TRUE(decoded.DecodeFrom(&input));
  EXPECT_TRUE(input.empty());
  EXPECT_EQ(ptr, decoded);

  // Truncated encodings fail cleanly.
  for (size_t len = 0; len < encoded.size(); len++) {
    ValuePointer bad;
    Slice trunc(encoded.data(), len);
    EXPECT_FALSE(bad.DecodeFrom(&trunc)) << len;
  }
}

using Records = std::vector<std::pair<std::string, std::string>>;

// Parameter: true = PosixEnv in a scratch dir, false = MemEnv.
class ValueLogTest : public testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (UsePosix()) {
      dir_ = test::NewTestDir("value_log");
      env_ = Env::Default();
    } else {
      mem_env_.reset(NewMemEnv());
      env_ = mem_env_.get();
      dir_ = "/db";
      ASSERT_TRUE(env_->CreateDir(dir_).ok());
    }
    cache_ = std::make_unique<ValueLogCache>(env_, dir_);
    cache_->SetCounters(&reads_, &span_reads_, &read_bytes_, &mmap_reads_);
  }

  bool UsePosix() const { return GetParam(); }

  std::unique_ptr<ValueLogWriter> NewWriter(uint64_t log_number) {
    std::unique_ptr<WritableFile> file;
    EXPECT_TRUE(
        env_->NewWritableFile(ValueLogFileName(dir_, log_number), &file)
            .ok());
    return std::make_unique<ValueLogWriter>(std::move(file), 0, log_number);
  }

  // Writes `records` as one complete log and returns their pointers.
  std::vector<ValuePointer> WriteLog(uint64_t log_number,
                                     const Records& records) {
    auto writer = NewWriter(log_number);
    std::vector<ValuePointer> ptrs(records.size());
    for (size_t i = 0; i < records.size(); i++) {
      EXPECT_TRUE(
          writer->Add(records[i].first, records[i].second, &ptrs[i]).ok());
    }
    EXPECT_TRUE(writer->Close().ok());
    return ptrs;
  }

  std::string ReadFile(const std::string& fname) {
    uint64_t size = 0;
    EXPECT_TRUE(env_->GetFileSize(fname, &size).ok());
    std::unique_ptr<RandomAccessFile> reader;
    EXPECT_TRUE(env_->NewRandomAccessFile(fname, &reader).ok());
    std::string contents(size, '\0');
    Slice data;
    EXPECT_TRUE(reader->Read(0, size, &data, contents.data()).ok());
    return data.ToString();
  }

  void RewriteFile(const std::string& fname, const std::string& contents) {
    std::unique_ptr<WritableFile> w;
    ASSERT_TRUE(env_->NewWritableFile(fname, &w).ok());
    ASSERT_TRUE(w->Append(contents).ok());
    ASSERT_TRUE(w->Close().ok());
  }

  // Fetches ptrs[i] expecting keys[i] through the ValueFetcher; slot i of
  // the outputs belongs to ptrs[i] whatever order the fetcher reads in.
  ValueFetcher::Stats Fetch(const std::vector<ValuePointer>& ptrs,
                            const std::vector<std::string>& keys,
                            std::vector<std::string>* values,
                            std::vector<Status>* statuses) {
    values->assign(ptrs.size(), "untouched");
    statuses->assign(ptrs.size(), Status::OK());
    std::vector<ValueFetcher::Item> items;
    for (size_t i = 0; i < ptrs.size(); i++) {
      items.push_back(ValueFetcher::Item{ptrs[i], keys[i], &(*values)[i],
                                         &(*statuses)[i]});
    }
    return ValueFetcher(cache_.get()).Fetch(items.data(), items.size());
  }

  std::unique_ptr<MemEnv> mem_env_;
  Env* env_ = nullptr;
  std::string dir_;
  std::unique_ptr<ValueLogCache> cache_;
  Counter reads_, span_reads_, read_bytes_, mmap_reads_;
};

Records NumberedRecords(int n, size_t value_size, const std::string& tag) {
  Records records;
  for (int i = 0; i < n; i++) {
    records.emplace_back(tag + "k" + std::to_string(i),
                         test::TestValue(i, value_size));
  }
  return records;
}

TEST_P(ValueLogTest, WriteAndFetch) {
  auto writer = NewWriter(5);
  std::vector<ValuePointer> ptrs;
  for (int i = 0; i < 100; i++) {
    ValuePointer ptr;
    ASSERT_TRUE(writer
                    ->Add("key" + std::to_string(i),
                          "value" + std::to_string(i), &ptr)
                    .ok());
    EXPECT_EQ(5u, ptr.log_number);
    ptrs.push_back(ptr);
  }
  ASSERT_TRUE(writer->Flush().ok());

  for (int i = 0; i < 100; i++) {
    std::string value;
    ASSERT_TRUE(cache_->Get(ptrs[i], "key" + std::to_string(i), &value).ok());
    EXPECT_EQ("value" + std::to_string(i), value);
  }
  EXPECT_EQ(100u, reads_.Value());
  EXPECT_EQ(0u, mmap_reads_.Value());  // Point reads never map the log.
}

TEST_P(ValueLogTest, GetChecksStoredKey) {
  auto ptrs = WriteLog(8, {{"a", "value-of-a"}, {"b", "value-of-b"}});
  std::string value = "untouched";
  Status s = cache_->Get(ptrs[1], "a", &value);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("key mismatch"), std::string::npos);
  EXPECT_EQ("untouched", value);
  ASSERT_TRUE(cache_->Get(ptrs[1], "b", &value).ok());
  EXPECT_EQ("value-of-b", value);
}

TEST_P(ValueLogTest, OffsetsAreContiguous) {
  auto writer = NewWriter(1);
  ValuePointer a, b;
  ASSERT_TRUE(writer->Add("k1", "v1", &a).ok());
  ASSERT_TRUE(writer->Add("k2", "v2", &b).ok());
  EXPECT_EQ(0u, a.offset);
  EXPECT_EQ(a.size, b.offset);
  EXPECT_EQ(writer->CurrentOffset(), b.offset + b.size);
}

TEST_P(ValueLogTest, LargeAndEmptyValues) {
  std::string big(1 << 20, 'B');
  auto ptrs = WriteLog(2, {{"big", big}, {"empty", ""}});
  std::string value;
  ASSERT_TRUE(cache_->Get(ptrs[0], "big", &value).ok());
  EXPECT_EQ(big, value);
  ASSERT_TRUE(cache_->Get(ptrs[1], "empty", &value).ok());
  EXPECT_EQ("", value);
}

TEST_P(ValueLogTest, CorruptRecordDetected) {
  auto ptrs = WriteLog(4, {{"key", "value"}});
  const std::string fname = ValueLogFileName(dir_, 4);
  std::string contents = ReadFile(fname);
  contents[contents.size() / 2] ^= 0x10;
  RewriteFile(fname, contents);
  cache_->Evict(4);

  std::string value;
  Status s = cache_->Get(ptrs[0], "key", &value);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_P(ValueLogTest, SequentialScanAndTornTail) {
  auto writer = NewWriter(6);
  for (int i = 0; i < 50; i++) {
    ValuePointer ptr;
    ASSERT_TRUE(
        writer->Add("k" + std::to_string(i), "v" + std::to_string(i), &ptr)
            .ok());
  }
  ASSERT_TRUE(writer->Close().ok());
  const std::string fname = ValueLogFileName(dir_, 6);

  int count = 0;
  ASSERT_TRUE(ScanValueLog(env_, fname,
                           [&](uint64_t, uint32_t, const Slice& key,
                               const Slice& value) {
                             EXPECT_EQ("k" + std::to_string(count),
                                       key.ToString());
                             EXPECT_EQ("v" + std::to_string(count),
                                       value.ToString());
                             count++;
                           })
                  .ok());
  EXPECT_EQ(50, count);

  // Truncate mid-record: the scan stops at the torn tail without error.
  std::string contents = ReadFile(fname);
  contents.resize(contents.size() - 3);
  RewriteFile(fname, contents);

  count = 0;
  ASSERT_TRUE(ScanValueLog(env_, fname,
                           [&](uint64_t, uint32_t, const Slice&,
                               const Slice&) { count++; })
                  .ok());
  EXPECT_EQ(49, count);
}

TEST_P(ValueLogTest, MissingLogFileSurfacesError) {
  ValuePointer ptr;
  ptr.log_number = 999;
  ptr.size = 10;
  std::string value;
  EXPECT_FALSE(cache_->Get(ptr, "key", &value).ok());
}

TEST_P(ValueLogTest, BinaryKeysAndValues) {
  std::string key("\0\xff\n", 3);
  std::string value("\0\0\0\0", 4);
  auto ptrs = WriteLog(7, {{key, value}});
  std::string got_value;
  ASSERT_TRUE(cache_->Get(ptrs[0], key, &got_value).ok());
  EXPECT_EQ(value, got_value);
}

// ---------------------------------------------------------- ValueFetcher

// Duplicate pointers overlap exactly; with a larger neighbour a span's end
// stays at the max of its members' ends. Every slot gets its own answer.
TEST_P(ValueLogTest, FetchDuplicateAndOverlappingPointers) {
  Records records = NumberedRecords(10, 300, "");
  records[4].second = std::string(9000, 'x');  // A wide record mid-span.
  auto ptrs = WriteLog(3, records);

  const std::vector<size_t> pick = {5, 2, 5, 4, 7, 2, 4, 0};
  std::vector<ValuePointer> want;
  std::vector<std::string> keys;
  uint64_t total = 0;
  for (size_t i : pick) {
    want.push_back(ptrs[i]);
    keys.push_back(records[i].first);
    total += ptrs[i].size;
  }
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ValueFetcher::Stats stats = Fetch(want, keys, &values, &statuses);
  for (size_t j = 0; j < pick.size(); j++) {
    ASSERT_TRUE(statuses[j].ok()) << j << " " << statuses[j].ToString();
    EXPECT_EQ(records[pick[j]].second, values[j]) << j;
  }
  EXPECT_EQ(1u, span_reads_.Value());
  EXPECT_EQ(1u, stats.coalesced_spans);
  EXPECT_EQ(total - ptrs[0].size, stats.bytes_saved);  // All but the first.
  EXPECT_EQ(UsePosix() ? 1u : 0u, mmap_reads_.Value());
}

// One item is a point read: a pread, never the mapping (its pages would
// count toward the process's peak RSS). Two items of the same log are a
// span read, zero-copy from the mapping where the Env has one.
TEST_P(ValueLogTest, FetchOfOneItemIsAPointRead) {
  Records records = NumberedRecords(4, 300, "");
  auto ptrs = WriteLog(3, records);

  std::vector<std::string> values;
  std::vector<Status> statuses;
  ValueFetcher::Stats stats =
      Fetch({ptrs[1]}, {records[1].first}, &values, &statuses);
  ASSERT_TRUE(statuses[0].ok()) << statuses[0].ToString();
  EXPECT_EQ(records[1].second, values[0]);
  EXPECT_EQ(1u, reads_.Value());
  EXPECT_EQ(0u, span_reads_.Value());
  EXPECT_EQ(0u, mmap_reads_.Value());
  EXPECT_EQ(0u, stats.coalesced_spans);

  // The point read checks the stored key like a span read does.
  Fetch({ptrs[1]}, {records[2].first}, &values, &statuses);
  EXPECT_TRUE(statuses[0].IsCorruption()) << statuses[0].ToString();
  EXPECT_EQ("untouched", values[0]);

  stats = Fetch({ptrs[1], ptrs[2]}, {records[1].first, records[2].first},
                &values, &statuses);
  for (size_t i = 0; i < 2; i++) {
    ASSERT_TRUE(statuses[i].ok()) << i << " " << statuses[i].ToString();
    EXPECT_EQ(records[i + 1].second, values[i]) << i;
  }
  EXPECT_EQ(2u, reads_.Value());
  EXPECT_EQ(1u, span_reads_.Value());
  EXPECT_EQ(UsePosix() ? 1u : 0u, mmap_reads_.Value());
  EXPECT_EQ(1u, stats.coalesced_spans);
}

// A gap up to kGapBytes is bridged (read and discarded, or never touched
// when zero-copy); a wider one starts a new span.
TEST_P(ValueLogTest, FetchBridgesSmallGapsAndSplitsLargeOnes) {
  const std::string filler(30 * 1024, 'f');
  Records records = {{"a", "value-a"},   {"f1", filler}, {"b", "value-b"},
                     {"f2", filler},     {"f3", filler}, {"f4", filler},
                     {"c", "value-c"}};
  auto ptrs = WriteLog(3, records);
  ASSERT_LE(ptrs[2].offset - (ptrs[0].offset + ptrs[0].size),
            ValueFetcher::kGapBytes);
  ASSERT_GT(ptrs[6].offset - (ptrs[2].offset + ptrs[2].size),
            ValueFetcher::kGapBytes);

  std::vector<std::string> values;
  std::vector<Status> statuses;
  ValueFetcher::Stats stats = Fetch({ptrs[6], ptrs[0], ptrs[2]},
                                    {"c", "a", "b"}, &values, &statuses);
  for (const Status& s : statuses) ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ("value-c", values[0]);
  EXPECT_EQ("value-a", values[1]);
  EXPECT_EQ("value-b", values[2]);
  EXPECT_EQ(2u, span_reads_.Value());  // {a, b} bridged; c alone.
  EXPECT_EQ(1u, stats.coalesced_spans);
  EXPECT_EQ(ptrs[2].size, stats.bytes_saved);
  EXPECT_EQ(UsePosix() ? 2u : 0u, mmap_reads_.Value());
}

// Contiguous records coalesce only up to kMaxSpanBytes per span; a single
// record larger than the cap is still one (oversized) span.
TEST_P(ValueLogTest, FetchCapsSpanBytes) {
  Records records = NumberedRecords(40, 100 * 1024, "");
  records.emplace_back("huge", std::string(3 << 19, 'h'));  // 1.5 MiB.
  auto ptrs = WriteLog(3, records);
  std::vector<std::string> keys;
  for (const auto& r : records) keys.push_back(r.first);

  std::vector<std::string> values;
  std::vector<Status> statuses;
  ValueFetcher::Stats stats = Fetch(ptrs, keys, &values, &statuses);
  for (size_t i = 0; i < records.size(); i++) {
    ASSERT_TRUE(statuses[i].ok()) << i << " " << statuses[i].ToString();
    ASSERT_EQ(records[i].second, values[i]) << i;
  }
  // Ten ~100 KiB records fit under 1 MiB, eleven do not.
  ASSERT_LE(10 * static_cast<uint64_t>(ptrs[0].size),
            ValueFetcher::kMaxSpanBytes);
  ASSERT_GT(11 * static_cast<uint64_t>(ptrs[0].size),
            ValueFetcher::kMaxSpanBytes);
  EXPECT_EQ(5u, span_reads_.Value());  // 4 x 10 records, then the huge one.
  EXPECT_EQ(4u, stats.coalesced_spans);
}

TEST_P(ValueLogTest, FetchAcrossSeveralLogs) {
  Records r3 = NumberedRecords(5, 200, "x"), r4 = NumberedRecords(5, 200, "y"),
          r5 = NumberedRecords(5, 200, "z");
  auto p3 = WriteLog(3, r3), p4 = WriteLog(4, r4), p5 = WriteLog(5, r5);
  // Interleave the logs in request order.
  std::vector<ValuePointer> ptrs;
  std::vector<std::string> keys, expect;
  for (int i = 4; i >= 0; i--) {
    for (auto* set : {&r5, &r3, &r4}) {
      const auto& p = set == &r3 ? p3 : set == &r4 ? p4 : p5;
      ptrs.push_back(p[i]);
      keys.push_back((*set)[i].first);
      expect.push_back((*set)[i].second);
    }
  }
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ValueFetcher::Stats stats = Fetch(ptrs, keys, &values, &statuses);
  for (size_t i = 0; i < ptrs.size(); i++) {
    ASSERT_TRUE(statuses[i].ok()) << i << " " << statuses[i].ToString();
    EXPECT_EQ(expect[i], values[i]) << i;
  }
  EXPECT_EQ(3u, span_reads_.Value());  // One per log.
  EXPECT_EQ(3u, stats.coalesced_spans);
}

// A log that cannot be opened fails every slot it owns, and only those.
TEST_P(ValueLogTest, FetchMissingLogFailsOnlyItsSlots) {
  Records records = NumberedRecords(3, 100, "");
  auto p3 = WriteLog(3, records), p5 = WriteLog(5, records);
  std::vector<ValuePointer> ptrs = {p3[0], p5[1], p3[1], p5[2]};
  for (int i = 0; i < 2; i++) {
    ValuePointer missing = p3[i];
    missing.log_number = 4;
    ptrs.push_back(missing);
  }
  std::vector<std::string> keys = {"k0", "k1", "k1", "k2", "k0", "k1"};
  std::vector<std::string> values;
  std::vector<Status> statuses;
  Fetch(ptrs, keys, &values, &statuses);
  for (size_t i = 0; i < 4; i++) {
    ASSERT_TRUE(statuses[i].ok()) << i << " " << statuses[i].ToString();
    EXPECT_EQ(records[std::stoi(keys[i].substr(1))].second, values[i]);
  }
  for (size_t i = 4; i < 6; i++) {
    EXPECT_FALSE(statuses[i].ok()) << i;
    EXPECT_EQ("untouched", values[i]) << i;
  }
}

// A checksum failure and a record of another key each fail only their own
// slot; their span-mates still resolve.
TEST_P(ValueLogTest, FetchBadRecordsFailOnlyTheirSlots) {
  Records records = NumberedRecords(6, 100, "");
  auto ptrs = WriteLog(3, records);
  const std::string fname = ValueLogFileName(dir_, 3);
  std::string contents = ReadFile(fname);
  contents[ptrs[2].offset + ptrs[2].size - 1] ^= 0x01;  // Value byte.
  RewriteFile(fname, contents);

  std::vector<std::string> keys;
  for (const auto& r : records) keys.push_back(r.first);
  keys[4] = records[3].first;  // Slot 4 expects another key's record.
  std::vector<std::string> values;
  std::vector<Status> statuses;
  Fetch(ptrs, keys, &values, &statuses);
  EXPECT_EQ(1u, span_reads_.Value());
  for (size_t i = 0; i < records.size(); i++) {
    if (i == 2 || i == 4) {
      EXPECT_TRUE(statuses[i].IsCorruption()) << i << " "
                                              << statuses[i].ToString();
      EXPECT_EQ("untouched", values[i]) << i;
    } else {
      ASSERT_TRUE(statuses[i].ok()) << i << " " << statuses[i].ToString();
      EXPECT_EQ(records[i].second, values[i]) << i;
    }
  }
  EXPECT_NE(statuses[2].ToString().find("checksum"), std::string::npos);
  EXPECT_NE(statuses[4].ToString().find("key mismatch"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(MemAndPosix, ValueLogTest, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "Posix" : "Mem";
                         });

}  // namespace
}  // namespace unikv
