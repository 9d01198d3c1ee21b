// SSTable round-trip tests: builder + reader, iterators, point gets,
// bloom filters, key-hash blocks, block cache integration, corruption
// detection.

#include "table/table.h"
#include "table/table_builder.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "table/cache.h"
#include "table/format.h"
#include "util/env.h"
#include "util/random.h"

namespace unikv {
namespace {

std::string IKey(const std::string& user_key, SequenceNumber seq = 100,
                 ValueType type = kTypeValue) {
  std::string result;
  AppendInternalKey(&result, ParsedInternalKey(user_key, seq, type));
  return result;
}

class TableTest : public testing::Test {
 protected:
  TableTest() : env_(NewMemEnv()) { env_->CreateDir("/t"); }

  // Builds a table from sorted user-key kvs; returns its size.
  uint64_t BuildTable(const std::map<std::string, std::string>& kvs,
                      const TableOptions& opt, const std::string& fname,
                      const std::vector<uint64_t>* key_hashes = nullptr) {
    std::unique_ptr<WritableFile> file;
    EXPECT_TRUE(env_->NewWritableFile(fname, &file).ok());
    TableBuilder builder(opt, file.get());
    for (const auto& [key, value] : kvs) {
      builder.Add(IKey(key), value);
    }
    EXPECT_TRUE(builder.Finish(key_hashes).ok());
    EXPECT_TRUE(file->Close().ok());
    EXPECT_EQ(kvs.size(), builder.NumEntries());
    return builder.FileSize();
  }

  Table* OpenTable(const TableOptions& opt, const std::string& fname,
                   uint64_t size, Cache* cache = nullptr) {
    std::unique_ptr<RandomAccessFile> file;
    EXPECT_TRUE(env_->NewRandomAccessFile(fname, &file).ok());
    Table* table = nullptr;
    EXPECT_TRUE(
        Table::Open(opt, std::move(file), size, cache, &table).ok());
    return table;
  }

  std::unique_ptr<MemEnv> env_;
};

TEST_F(TableTest, RoundTrip) {
  std::map<std::string, std::string> kvs;
  Random rnd(11);
  for (int i = 0; i < 2000; i++) {
    kvs["key" + std::to_string(100000 + i)] =
        std::string(rnd.Uniform(200), 'v');
  }
  TableOptions opt;
  uint64_t size = BuildTable(kvs, opt, "/t/1");
  std::unique_ptr<Table> table(OpenTable(opt, "/t/1", size));

  std::unique_ptr<Iterator> iter(table->NewIterator());
  auto mit = kvs.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++mit) {
    ASSERT_NE(mit, kvs.end());
    EXPECT_EQ(mit->first, ExtractUserKey(iter->key()).ToString());
    EXPECT_EQ(mit->second, iter->value().ToString());
  }
  EXPECT_EQ(mit, kvs.end());
  EXPECT_TRUE(iter->status().ok());
}

TEST_F(TableTest, PointGets) {
  std::map<std::string, std::string> kvs;
  for (int i = 0; i < 500; i += 2) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%05d", i);
    kvs[buf] = "value" + std::to_string(i);
  }
  TableOptions opt;
  uint64_t size = BuildTable(kvs, opt, "/t/2");
  std::unique_ptr<Table> table(OpenTable(opt, "/t/2", size));

  for (int i = 0; i < 500; i++) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%05d", i);
    bool found = false;
    std::string key_out, value_out;
    ASSERT_TRUE(table
                    ->Get(IKey(buf, kMaxSequenceNumber, kValueTypeForSeek),
                          &found, &key_out, &value_out)
                    .ok());
    if (i % 2 == 0) {
      ASSERT_TRUE(found);
      EXPECT_EQ(buf, ExtractUserKey(key_out).ToString());
      EXPECT_EQ("value" + std::to_string(i), value_out);
    } else if (found) {
      // Absent keys may land on the next entry; user key must differ.
      EXPECT_NE(buf, ExtractUserKey(key_out).ToString());
    }
  }
  EXPECT_GT(table->AccessCount(), 0u);
}

TEST_F(TableTest, SeekAndReverse) {
  std::map<std::string, std::string> kvs;
  for (int i = 0; i < 1000; i++) {
    kvs["key" + std::to_string(10000 + i)] = std::to_string(i);
  }
  TableOptions opt;
  opt.block_size = 256;  // Many small blocks to exercise the index.
  uint64_t size = BuildTable(kvs, opt, "/t/3");
  std::unique_ptr<Table> table(OpenTable(opt, "/t/3", size));

  std::unique_ptr<Iterator> iter(table->NewIterator());
  iter->Seek(IKey("key10500", kMaxSequenceNumber, kValueTypeForSeek));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("key10500", ExtractUserKey(iter->key()).ToString());
  iter->Prev();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("key10499", ExtractUserKey(iter->key()).ToString());
  iter->SeekToLast();
  EXPECT_EQ("key10999", ExtractUserKey(iter->key()).ToString());

  // Walk the whole table backwards.
  int count = 0;
  for (iter->SeekToLast(); iter->Valid(); iter->Prev()) count++;
  EXPECT_EQ(1000, count);
}

TEST_F(TableTest, BloomFilter) {
  std::map<std::string, std::string> kvs;
  for (int i = 0; i < 1000; i++) {
    kvs["present" + std::to_string(i)] = "v";
  }
  TableOptions opt;
  opt.bloom_bits_per_key = 10;
  uint64_t size = BuildTable(kvs, opt, "/t/4");
  std::unique_ptr<Table> table(OpenTable(opt, "/t/4", size));

  for (int i = 0; i < 1000; i++) {
    EXPECT_TRUE(table->KeyMayMatch("present" + std::to_string(i)));
  }
  int false_positives = 0;
  for (int i = 0; i < 1000; i++) {
    if (table->KeyMayMatch("absent" + std::to_string(i))) false_positives++;
  }
  EXPECT_LT(false_positives, 50);

  // Without a filter, KeyMayMatch is always true.
  TableOptions no_bloom;
  uint64_t size2 = BuildTable(kvs, no_bloom, "/t/4b");
  std::unique_ptr<Table> table2(OpenTable(no_bloom, "/t/4b", size2));
  EXPECT_TRUE(table2->KeyMayMatch("absolutely-absent"));
}

TEST_F(TableTest, BlockCacheSharing) {
  std::map<std::string, std::string> kvs;
  for (int i = 0; i < 2000; i++) {
    kvs["key" + std::to_string(10000 + i)] = std::string(100, 'x');
  }
  TableOptions opt;
  uint64_t size = BuildTable(kvs, opt, "/t/5");
  std::unique_ptr<Cache> cache(NewLRUCache(1 << 20));
  std::unique_ptr<Table> table(OpenTable(opt, "/t/5", size, cache.get()));

  // Two full iterations: the second should be served from the cache.
  for (int round = 0; round < 2; round++) {
    std::unique_ptr<Iterator> iter(table->NewIterator());
    int n = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) n++;
    EXPECT_EQ(2000, n);
  }
  EXPECT_GT(cache->TotalCharge(), 0u);
}

TEST_F(TableTest, EmptyTable) {
  TableOptions opt;
  uint64_t size = BuildTable({}, opt, "/t/6");
  std::unique_ptr<Table> table(OpenTable(opt, "/t/6", size));
  std::unique_ptr<Iterator> iter(table->NewIterator());
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
}

TEST_F(TableTest, HugeValues) {
  std::map<std::string, std::string> kvs;
  kvs["big"] = std::string(1 << 20, 'B');
  TableOptions opt;
  uint64_t size = BuildTable(kvs, opt, "/t/7");
  std::unique_ptr<Table> table(OpenTable(opt, "/t/7", size));
  bool found = false;
  std::string key_out, value_out;
  ASSERT_TRUE(table
                  ->Get(IKey("big", kMaxSequenceNumber, kValueTypeForSeek),
                        &found, &key_out, &value_out)
                  .ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(kvs["big"], value_out);
}

TEST_F(TableTest, CorruptFooterRejected) {
  std::map<std::string, std::string> kvs{{"a", "1"}};
  TableOptions opt;
  uint64_t size = BuildTable(kvs, opt, "/t/8");

  // Truncate: too short to be a table.
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env_->NewRandomAccessFile("/t/8", &file).ok());
  Table* table = nullptr;
  Status s = Table::Open(opt, std::move(file), 10, nullptr, &table);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(nullptr, table);

  // Flip a byte in the footer's magic.
  std::string contents(size, 0);
  {
    std::unique_ptr<RandomAccessFile> reader;
    ASSERT_TRUE(env_->NewRandomAccessFile("/t/8", &reader).ok());
    Slice data;
    reader->Read(0, size, &data, contents.data());
    contents.assign(data.data(), data.size());
  }
  contents[size - 1] ^= 0xff;
  std::unique_ptr<WritableFile> w;
  env_->NewWritableFile("/t/8c", &w);
  w->Append(contents);
  w->Close();
  std::unique_ptr<RandomAccessFile> file2;
  ASSERT_TRUE(env_->NewRandomAccessFile("/t/8c", &file2).ok());
  s = Table::Open(opt, std::move(file2), size, nullptr, &table);
  EXPECT_TRUE(s.IsCorruption());
}

// The key-hash block round-trips without reading a data block; a table
// written without one, or whose block has a flipped byte, is Corruption.
TEST_F(TableTest, KeyHashBlockRoundTripAndFlippedByteRejected) {
  std::map<std::string, std::string> kvs;
  std::vector<uint64_t> hashes;
  for (int i = 0; i < 300; i++) {
    kvs["key" + std::to_string(1000 + i)] = std::string(40, 'v');
    hashes.push_back(0x9E3779B97F4A7C15ull * (i + 1));
  }
  TableOptions opt;
  const uint64_t size = BuildTable(kvs, opt, "/t/10", &hashes);
  {
    std::unique_ptr<Table> table(OpenTable(opt, "/t/10", size));
    std::vector<uint64_t> read;
    ASSERT_TRUE(table->ReadKeyHashes(&read).ok());
    EXPECT_EQ(hashes, read);
  }
  const uint64_t plain_size = BuildTable(kvs, opt, "/t/10p");
  EXPECT_EQ(size, plain_size + hashes.size() * 8 + kBlockTrailerSize);
  {
    std::unique_ptr<Table> plain(OpenTable(opt, "/t/10p", plain_size));
    std::vector<uint64_t> read;
    EXPECT_TRUE(plain->ReadKeyHashes(&read).IsCorruption());
  }

  std::string contents(size, 0);
  {
    std::unique_ptr<RandomAccessFile> reader;
    ASSERT_TRUE(env_->NewRandomAccessFile("/t/10", &reader).ok());
    Slice data;
    ASSERT_TRUE(reader->Read(0, size, &data, contents.data()).ok());
    contents.assign(data.data(), data.size());
  }
  Footer footer;
  Slice footer_input(contents.data() + size - Footer::kEncodedLength,
                     Footer::kEncodedLength);
  ASSERT_TRUE(footer.DecodeFrom(&footer_input).ok());
  ASSERT_EQ(hashes.size() * 8, footer.key_hash_handle().size());
  contents[footer.key_hash_handle().offset() + 100] ^= 0x01;
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(env_->NewWritableFile("/t/10c", &w).ok());
  ASSERT_TRUE(w->Append(contents).ok() && w->Close().ok());
  std::unique_ptr<Table> table(OpenTable(opt, "/t/10c", size));
  std::vector<uint64_t> read;
  EXPECT_TRUE(table->ReadKeyHashes(&read).IsCorruption());
  // The data blocks are untouched and still read.
  bool found = false;
  std::string key_out, value_out;
  ASSERT_TRUE(
      table->Get(IKey("key1100"), &found, &key_out, &value_out).ok());
  EXPECT_TRUE(found);
}

TEST_F(TableTest, CorruptDataBlockDetectedByCrc) {
  std::map<std::string, std::string> kvs;
  for (int i = 0; i < 100; i++) {
    kvs["key" + std::to_string(i)] = std::string(50, 'v');
  }
  TableOptions opt;
  uint64_t size = BuildTable(kvs, opt, "/t/9");
  // Corrupt a byte early in the file (inside the first data block).
  std::string contents(size, 0);
  {
    std::unique_ptr<RandomAccessFile> reader;
    ASSERT_TRUE(env_->NewRandomAccessFile("/t/9", &reader).ok());
    Slice data;
    reader->Read(0, size, &data, contents.data());
    contents.assign(data.data(), data.size());
  }
  contents[20] ^= 0x01;
  std::unique_ptr<WritableFile> w;
  env_->NewWritableFile("/t/9c", &w);
  w->Append(contents);
  w->Close();

  std::unique_ptr<Table> table(OpenTable(opt, "/t/9c", size));
  std::unique_ptr<Iterator> iter(table->NewIterator());
  iter->SeekToFirst();
  // Either the block read fails immediately or the iterator carries a
  // corruption status; silent wrong data is not acceptable.
  bool surfaced_error = !iter->status().ok();
  while (iter->Valid()) {
    iter->Next();
  }
  surfaced_error = surfaced_error || !iter->status().ok();
  EXPECT_TRUE(surfaced_error);
}

}  // namespace
}  // namespace unikv
