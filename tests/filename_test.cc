#include "core/filename.h"

#include <gtest/gtest.h>

namespace unikv {
namespace {

TEST(FileName, Construction) {
  EXPECT_EQ("/db/000007.wal", WalFileName("/db", 7));
  EXPECT_EQ("/db/000008.swal", ShardWalFileName("/db", 8));
  EXPECT_EQ("/db/000123.sst", TableFileName("/db", 123));
  EXPECT_EQ("/db/000045.vlog", ValueLogFileName("/db", 45));
  EXPECT_EQ("/db/MANIFEST-000009", ManifestFileName("/db", 9));
  EXPECT_EQ("/db/CURRENT", CurrentFileName("/db"));
  EXPECT_EQ("/db/000002.tmp", TempFileName("/db", 2));
}

TEST(FileName, ParseRoundTrip) {
  struct Case {
    std::string name;
    uint64_t number;
    FileType type;
  };
  const Case cases[] = {
      {"000007.wal", 7, FileType::kWalFile},
      {"000011.swal", 11, FileType::kShardWalFile},
      {"000123.sst", 123, FileType::kTableFile},
      {"000045.vlog", 45, FileType::kValueLogFile},
      {"MANIFEST-000009", 9, FileType::kManifestFile},
      {"CURRENT", 0, FileType::kCurrentFile},
      {"000002.tmp", 2, FileType::kTempFile},
      {"18446744073709551615.sst", ~0ull, FileType::kTableFile},
  };
  for (const Case& c : cases) {
    uint64_t number;
    FileType type;
    EXPECT_TRUE(ParseFileName(c.name, &number, &type)) << c.name;
    EXPECT_EQ(c.number, number) << c.name;
    EXPECT_EQ(static_cast<int>(c.type), static_cast<int>(type)) << c.name;
  }
}

TEST(FileName, RejectsGarbage) {
  const char* bad[] = {
      "",         "foo",        "foo-dx-100.sst", ".sst",   "",
      "manifest", "CURREN",     "CURRENTX",       "100",    "100.",
      "100.xyz",  "abc.sst",    "MANIFEST",       "MANIFEST-x",
      "100.swa",  ".swal",      "abc.swal",
  };
  for (const char* name : bad) {
    uint64_t number;
    FileType type;
    EXPECT_FALSE(ParseFileName(name, &number, &type)) << "'" << name << "'";
  }
}

}  // namespace
}  // namespace unikv
