#ifndef UNIKV_CORE_FILENAME_H_
#define UNIKV_CORE_FILENAME_H_

#include <cstdint>
#include <string>

namespace unikv {

/// File kinds living inside a DB directory.
enum class FileType {
  kWalFile,        // %06llu.wal (the LSM baselines' WAL)
  kShardWalFile,   // %06llu.swal (UniKV's per-shard WAL)
  kTableFile,      // %06llu.sst
  kValueLogFile,   // %06llu.vlog
  kManifestFile,   // MANIFEST-%06llu
  kCurrentFile,    // CURRENT
  kTempFile,       // %06llu.tmp
  kUnknown,
};

std::string WalFileName(const std::string& dbname, uint64_t number);
std::string ShardWalFileName(const std::string& dbname, uint64_t number);
std::string TableFileName(const std::string& dbname, uint64_t number);
std::string ValueLogFileName(const std::string& dbname, uint64_t number);
std::string ManifestFileName(const std::string& dbname, uint64_t number);
std::string CurrentFileName(const std::string& dbname);
std::string LockFileName(const std::string& dbname);
std::string TempFileName(const std::string& dbname, uint64_t number);

/// Parses a bare filename (no directory). On success fills *number (0 for
/// CURRENT) and *type.
bool ParseFileName(const std::string& filename, uint64_t* number,
                   FileType* type);

}  // namespace unikv

#endif  // UNIKV_CORE_FILENAME_H_
