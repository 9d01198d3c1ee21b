// VersionEdit codec and VersionSet recovery tests.

#include "core/version.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/coding.h"
#include "util/env.h"

namespace unikv {
namespace {

TEST(VersionEdit, EncodeDecodeRoundTrip) {
  VersionEdit edit;
  edit.SetLogNumber(42);
  edit.SetNextFileNumber(100);
  edit.SetLastSequence(999999);
  edit.AddPartition(0, "");
  edit.AddPartition(3, "mboundary");
  FileMeta f;
  f.number = 10;
  f.size = 12345;
  f.table_id = 7;
  f.smallest = "aaa";
  f.largest = "zzz";
  edit.AddUnsortedFile(0, f);
  edit.RemoveUnsortedFile(0, 9);
  edit.AddSortedFile(3, f);
  edit.RemoveSortedFile(3, 8);
  VlogMeta v;
  v.number = 55;
  v.size = 777;
  edit.AddValueLog(3, v);
  edit.RemoveValueLog(0, 54);

  std::string encoded;
  edit.EncodeTo(&encoded);
  VersionEdit decoded;
  ASSERT_TRUE(decoded.DecodeFrom(Slice(encoded)).ok());
  std::string reencoded;
  decoded.EncodeTo(&reencoded);
  EXPECT_EQ(encoded, reencoded);
}

// Tags 5 (a partition removal), 12 (a hash-index checkpoint) and 13 (a
// persisted anchor view) are retired: an edit carrying one does not
// decode.
TEST(VersionEdit, RetiredTagsDoNotDecode) {
  for (uint32_t tag : {5u, 12u, 13u}) {
    std::string encoded;
    PutVarint32(&encoded, tag);
    PutVarint32(&encoded, 0);
    PutVarint64(&encoded, 11);
    VersionEdit edit;
    EXPECT_TRUE(edit.DecodeFrom(Slice(encoded)).IsCorruption()) << tag;
  }
}

TEST(VersionEdit, DecodeRejectsGarbage) {
  VersionEdit edit;
  EXPECT_FALSE(edit.DecodeFrom(Slice("\x63garbage")).ok());
}

TEST(VersionData, FindPartition) {
  auto make = [](uint32_t id, const char* lower) {
    auto p = std::make_shared<PartitionState>();
    p->id = id;
    p->lower_bound = lower;
    return p;
  };
  VersionData v;
  v.partitions = {make(0, ""), make(1, "g"), make(2, "p")};
  EXPECT_EQ(0, v.FindPartition("a"));
  EXPECT_EQ(0, v.FindPartition(""));
  EXPECT_EQ(0, v.FindPartition("fzzz"));
  EXPECT_EQ(1, v.FindPartition("g"));
  EXPECT_EQ(1, v.FindPartition("h"));
  EXPECT_EQ(1, v.FindPartition("ozzz"));
  EXPECT_EQ(2, v.FindPartition("p"));
  EXPECT_EQ(2, v.FindPartition("zzzz"));
}

TEST(VersionSet, CreateRecoverAndApply) {
  std::unique_ptr<MemEnv> env(NewMemEnv());
  {
    VersionSet versions(env.get(), "/db");
    ASSERT_TRUE(versions.Recover(true, false).ok());
    ASSERT_EQ(1u, versions.current()->partitions.size());
    EXPECT_EQ("", versions.current()->partitions[0]->lower_bound);

    VersionEdit edit;
    FileMeta f;
    f.number = versions.NewFileNumber();
    f.size = 100;
    f.table_id = 0;
    f.smallest = "a";
    f.largest = "m";
    edit.AddUnsortedFile(0, f);
    edit.SetLogNumber(5);
    ASSERT_TRUE(versions.LogAndApply(&edit).ok());
    ASSERT_EQ(1u, versions.current()->partitions[0]->unsorted.size());
  }
  {
    // Reopen: state must come back from the manifest.
    VersionSet versions(env.get(), "/db");
    ASSERT_TRUE(versions.Recover(true, false).ok());
    ASSERT_EQ(1u, versions.current()->partitions.size());
    ASSERT_EQ(1u, versions.current()->partitions[0]->unsorted.size());
    EXPECT_EQ(100u, versions.current()->partitions[0]->unsorted[0].size);
    EXPECT_EQ(5u, versions.LogNumber());
  }
}

// A reference keeps its share and hash slice through a MANIFEST round
// trip, and a kAddUnsorted record (tag 6, written before references)
// decodes as a reference to the whole file. An edit's removals apply
// before its additions, so one edit narrows a reference in place. Each
// partition's upper bound is the next one's lower bound.
TEST(VersionSet, UnsortedReferencesRoundTrip) {
  std::unique_ptr<MemEnv> env(NewMemEnv());
  {
    VersionSet versions(env.get(), "/db");
    ASSERT_TRUE(versions.Recover(true, false).ok());
    std::string legacy;
    PutVarint32(&legacy, 6);  // kAddUnsorted
    PutVarint32(&legacy, 0);  // Partition.
    PutVarint64(&legacy, 7);  // Number.
    PutVarint64(&legacy, 300);  // Size.
    PutVarint64(&legacy, 280);  // Logical bytes.
    PutVarint32(&legacy, 0);  // table_id.
    PutLengthPrefixedSlice(&legacy, Slice("a"));
    PutLengthPrefixedSlice(&legacy, Slice("k"));
    VersionEdit old_record;
    ASSERT_TRUE(old_record.DecodeFrom(Slice(legacy)).ok());
    ASSERT_TRUE(versions.LogAndApply(&old_record).ok());

    FileMeta left;
    left.number = 8;
    left.size = 1000;
    left.table_id = 1;
    left.smallest = "b";
    left.largest = "q";
    left.share = 400;
    left.hash_begin = 3;
    left.hash_end = 9;
    FileMeta right = left;
    right.table_id = 0;
    right.smallest = "m";
    right.share = 600;
    VersionEdit split;
    split.AddPartition(1, "m");
    split.AddUnsortedFile(0, left);
    split.AddUnsortedFile(1, right);
    ASSERT_TRUE(versions.LogAndApply(&split).ok());
    left.share = 200;
    VersionEdit narrow;
    narrow.RemoveUnsortedFile(0, 8);
    narrow.AddUnsortedFile(0, left);
    ASSERT_TRUE(versions.LogAndApply(&narrow).ok());
  }
  VersionSet versions(env.get(), "/db");
  ASSERT_TRUE(versions.Recover(false, false).ok());
  const VersionPtr v = versions.current();
  ASSERT_EQ(2u, v->partitions.size());
  const PartitionState& p0 = *v->partitions[0];
  const PartitionState& p1 = *v->partitions[1];
  EXPECT_EQ("m", p0.upper_bound);
  EXPECT_EQ("", p1.upper_bound);
  EXPECT_TRUE(p0.Contains("l"));
  EXPECT_FALSE(p0.Contains("m"));
  ASSERT_EQ(2u, p0.unsorted.size());
  EXPECT_EQ(7u, p0.unsorted[0].number);
  EXPECT_EQ(300u, p0.unsorted[0].share);
  EXPECT_EQ(0u, p0.unsorted[0].hash_begin);
  EXPECT_EQ(FileMeta::kAllHashes, p0.unsorted[0].hash_end);
  EXPECT_EQ(8u, p0.unsorted[1].number);
  EXPECT_EQ(200u, p0.unsorted[1].share);
  EXPECT_EQ(3u, p0.unsorted[1].hash_begin);
  EXPECT_EQ(9u, p0.unsorted[1].hash_end);
  EXPECT_EQ(500u, p0.UnsortedBytes());
  ASSERT_EQ(1u, p1.unsorted.size());
  EXPECT_EQ("m", p1.unsorted[0].smallest);
  EXPECT_EQ(600u, p1.unsorted[0].share);
  // One file, referenced twice, is live once.
  std::set<uint64_t> live;
  v->AddLiveFiles(&live);
  EXPECT_EQ((std::set<uint64_t>{7, 8}), live);
}

// (table_id, number) of partition 0's unsorted tables, in list order.
std::vector<std::pair<uint32_t, uint64_t>> UnsortedOrder(
    const VersionSet& versions) {
  std::vector<std::pair<uint32_t, uint64_t>> order;
  for (const FileMeta& f : versions.current()->partitions[0]->unsorted) {
    order.emplace_back(f.table_id, f.number);
  }
  return order;
}

FileMeta UnsortedTable(uint64_t number, uint32_t table_id) {
  FileMeta f;
  f.number = number;
  f.size = 100;
  f.table_id = table_id;
  f.smallest = "a";
  f.largest = "z";
  return f;
}

TEST(VersionSet, UnsortedTablesStayInAgeOrder) {
  using Order = std::vector<std::pair<uint32_t, uint64_t>>;
  std::unique_ptr<MemEnv> env(NewMemEnv());
  {
    VersionSet versions(env.get(), "/age");
    ASSERT_TRUE(versions.Recover(true, false).ok());
    // Edits may add tables in any order; the list follows table_id, which
    // is 32 bits wide.
    VersionEdit edit;
    edit.AddUnsortedFile(0, UnsortedTable(10, 70005));
    edit.AddUnsortedFile(0, UnsortedTable(11, 70001));
    edit.AddUnsortedFile(0, UnsortedTable(12, 70003));
    ASSERT_TRUE(versions.LogAndApply(&edit).ok());
    VersionEdit edit2;
    edit2.AddUnsortedFile(0, UnsortedTable(13, 70004));
    edit2.AddUnsortedFile(0, UnsortedTable(14, 70002));
    ASSERT_TRUE(versions.LogAndApply(&edit2).ok());
    EXPECT_EQ((Order{{70001, 11}, {70002, 14}, {70003, 12}, {70004, 13},
                     {70005, 10}}),
              UnsortedOrder(versions));

    // A scan-merge of the run at positions 1-3 adds its output (keeping
    // the run's largest table_id) before removing the run: the output
    // lands in the run's place, between the tables left on either side.
    VersionEdit merge;
    merge.AddUnsortedFile(0, UnsortedTable(20, 70004));
    merge.RemoveUnsortedFile(0, 14);
    merge.RemoveUnsortedFile(0, 12);
    merge.RemoveUnsortedFile(0, 13);
    ASSERT_TRUE(versions.LogAndApply(&merge).ok());
    EXPECT_EQ((Order{{70001, 11}, {70004, 20}, {70005, 10}}),
              UnsortedOrder(versions));
  }
  // MANIFEST replay applies the same edits and keeps the same order.
  VersionSet versions(env.get(), "/age");
  ASSERT_TRUE(versions.Recover(true, false).ok());
  EXPECT_EQ((Order{{70001, 11}, {70004, 20}, {70005, 10}}),
            UnsortedOrder(versions));
  EXPECT_EQ(70006u, versions.current()->partitions[0]->NextTableId());
}

TEST(VersionSet, PartitionSplitOrderingPreserved) {
  std::unique_ptr<MemEnv> env(NewMemEnv());
  VersionSet versions(env.get(), "/db2");
  ASSERT_TRUE(versions.Recover(true, false).ok());

  VersionEdit edit;
  edit.AddPartition(1, "m");
  ASSERT_TRUE(versions.LogAndApply(&edit).ok());
  VersionEdit edit2;
  edit2.AddPartition(2, "e");
  ASSERT_TRUE(versions.LogAndApply(&edit2).ok());

  VersionPtr v = versions.current();
  ASSERT_EQ(3u, v->partitions.size());
  EXPECT_EQ("", v->partitions[0]->lower_bound);
  EXPECT_EQ("e", v->partitions[1]->lower_bound);
  EXPECT_EQ("m", v->partitions[2]->lower_bound);
  EXPECT_EQ(2u, v->partitions[1]->id);
  // Fresh ids continue past the max.
  EXPECT_GE(versions.NewPartitionId(), 3u);
}

TEST(VersionSet, PinnedVersionsKeepFilesLive) {
  std::unique_ptr<MemEnv> env(NewMemEnv());
  VersionSet versions(env.get(), "/db3");
  ASSERT_TRUE(versions.Recover(true, false).ok());

  VersionEdit add;
  FileMeta f;
  f.number = 77;
  f.size = 1;
  f.smallest = "a";
  f.largest = "b";
  add.AddSortedFile(0, f);
  ASSERT_TRUE(versions.LogAndApply(&add).ok());

  VersionPtr pinned = versions.current();  // An iterator would hold this.

  VersionEdit remove;
  remove.RemoveSortedFile(0, 77);
  ASSERT_TRUE(versions.LogAndApply(&remove).ok());

  std::set<uint64_t> live;
  versions.AddLiveFiles(&live);
  EXPECT_TRUE(live.count(77)) << "file pinned by an old version";

  pinned.reset();
  live.clear();
  versions.AddLiveFiles(&live);
  EXPECT_FALSE(live.count(77));
}

TEST(VersionSet, ErrorIfExists) {
  std::unique_ptr<MemEnv> env(NewMemEnv());
  {
    VersionSet versions(env.get(), "/db4");
    ASSERT_TRUE(versions.Recover(true, false).ok());
  }
  VersionSet versions(env.get(), "/db4");
  EXPECT_FALSE(versions.Recover(true, true).ok());
}

TEST(VersionSet, MissingWithoutCreate) {
  std::unique_ptr<MemEnv> env(NewMemEnv());
  VersionSet versions(env.get(), "/db5");
  EXPECT_FALSE(versions.Recover(false, false).ok());
}

}  // namespace
}  // namespace unikv
