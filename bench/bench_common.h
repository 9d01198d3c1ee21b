#ifndef UNIKV_BENCH_BENCH_COMMON_H_
#define UNIKV_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

#include "benchutil/driver.h"

namespace unikv {
namespace bench {

/// Root scratch directory for a bench binary: `$UNIKV_BENCH_DIR` (default
/// /tmp) + "/unikv_bench/" + name, emptied and created with any missing
/// parents. Exits with a message naming the directory if it cannot be
/// created.
inline std::string BenchRoot(const std::string& name) {
  const char* base = std::getenv("UNIKV_BENCH_DIR");
  const std::string root = std::string(base != nullptr ? base : "/tmp") +
                           "/unikv_bench/" + name;
  // Survivors of a failed cleanup only skew disk accounting.
  (void)RemoveDirRecursively(Env::Default(), root);
  std::error_code ec;
  std::filesystem::create_directories(root, ec);
  if (!std::filesystem::is_directory(root, ec)) {
    std::fprintf(stderr, "cannot create bench directory %s\n", root.c_str());
    std::exit(1);
  }
  return root;
}

/// Laptop-scale options used across the macro benchmarks. The paper's
/// absolute sizes (GBs, 100s of MB limits) are scaled down so every
/// experiment exercises multiple flush/merge/GC/split cycles within the
/// bench budget while preserving the structural ratios
/// (write_buffer < unsorted_limit < partition_size_limit).
inline Options BenchOptions() {
  Options opt;
  opt.write_buffer_size = 1 * 1024 * 1024;
  opt.unsorted_limit = 4 * 1024 * 1024;
  opt.partition_size_limit = 24 * 1024 * 1024;
  opt.sorted_table_size = 1 * 1024 * 1024;
  opt.gc_garbage_threshold = 6 * 1024 * 1024;
  opt.scan_merge_limit = 16;
  opt.block_cache_size = 8 * 1024 * 1024;
  opt.max_bytes_for_level_base = 8 * 1024 * 1024;
  opt.l0_compaction_trigger = 4;
  opt.tiered_runs_per_level = 4;
  return opt;
}

/// Scaled op count helper.
inline uint64_t Scaled(uint64_t n) {
  return static_cast<uint64_t>(n * BenchScale());
}

}  // namespace bench
}  // namespace unikv

#endif  // UNIKV_BENCH_BENCH_COMMON_H_
