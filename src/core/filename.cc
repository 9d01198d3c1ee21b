#include "core/filename.h"

#include <cstdio>

namespace unikv {

static std::string MakeFileName(const std::string& dbname, uint64_t number,
                                const char* suffix) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/%06llu.%s",
                static_cast<unsigned long long>(number), suffix);
  return dbname + buf;
}

std::string WalFileName(const std::string& dbname, uint64_t number) {
  return MakeFileName(dbname, number, "wal");
}

std::string ShardWalFileName(const std::string& dbname, uint64_t number) {
  return MakeFileName(dbname, number, "swal");
}

std::string TableFileName(const std::string& dbname, uint64_t number) {
  return MakeFileName(dbname, number, "sst");
}

std::string ValueLogFileName(const std::string& dbname, uint64_t number) {
  return MakeFileName(dbname, number, "vlog");
}

std::string ManifestFileName(const std::string& dbname, uint64_t number) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/MANIFEST-%06llu",
                static_cast<unsigned long long>(number));
  return dbname + buf;
}

std::string CurrentFileName(const std::string& dbname) {
  return dbname + "/CURRENT";
}

std::string LockFileName(const std::string& dbname) {
  return dbname + "/LOCK";
}

std::string TempFileName(const std::string& dbname, uint64_t number) {
  return MakeFileName(dbname, number, "tmp");
}

bool ParseFileName(const std::string& filename, uint64_t* number,
                   FileType* type) {
  if (filename == "CURRENT") {
    *number = 0;
    *type = FileType::kCurrentFile;
    return true;
  }
  if (filename.rfind("MANIFEST-", 0) == 0) {
    unsigned long long num;
    if (std::sscanf(filename.c_str() + 9, "%llu", &num) != 1) {
      return false;
    }
    *number = num;
    *type = FileType::kManifestFile;
    return true;
  }
  // NNNNNN.suffix
  size_t dot = filename.find('.');
  if (dot == std::string::npos || dot == 0) {
    return false;
  }
  for (size_t i = 0; i < dot; i++) {
    if (filename[i] < '0' || filename[i] > '9') return false;
  }
  unsigned long long num;
  if (std::sscanf(filename.c_str(), "%llu", &num) != 1) {
    return false;
  }
  *number = num;
  const std::string suffix = filename.substr(dot + 1);
  if (suffix == "wal") {
    *type = FileType::kWalFile;
  } else if (suffix == "swal") {
    *type = FileType::kShardWalFile;
  } else if (suffix == "sst") {
    *type = FileType::kTableFile;
  } else if (suffix == "vlog") {
    *type = FileType::kValueLogFile;
  } else if (suffix == "tmp") {
    *type = FileType::kTempFile;
  } else {
    *type = FileType::kUnknown;
    return false;
  }
  return true;
}

}  // namespace unikv
