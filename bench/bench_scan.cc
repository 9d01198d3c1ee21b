// Experiment F7 — Range-scan performance vs. scan length.
//
// Paper: scans of varying length after sequential and random loads.
// Expected shape: UniKV scans land in the same ballpark as LeveledLSM
// (value-pointer dereferences are recovered by size-based merge and by
// fetching each scan's values as a few coalesced span reads), while
// TieredLSM pays for its many overlapping runs. The optimized Scan() path
// is also compared with a plain iterator loop to isolate those scan
// optimizations.

#include "bench_common.h"

using namespace unikv;
using namespace unikv::bench;

int main() {
  const std::string root = BenchRoot("scan");
  const uint64_t kKeys = Scaled(30000);
  const size_t kValueSize = 1024;

  for (int scan_len : {10, 50, 100, 500}) {
    PrintTableHeader("F7 scans of length " + std::to_string(scan_len) +
                         " (random-loaded dataset)",
                     {"engine", "kentries/s", "p99_us"});
    for (Engine engine :
         {Engine::kUniKV, Engine::kLeveled, Engine::kTiered}) {
      BenchDb bdb(engine, BenchOptions(), root);
      LoadSpec load;
      load.num_keys = kKeys;
      load.value_size = kValueSize;
      RunLoad(&bdb, load);

      ScanSpec spec;
      spec.num_ops = Scaled(300);
      spec.scan_len = scan_len;
      spec.key_space = kKeys;
      PhaseResult r = RunScans(&bdb, spec);
      PrintTableRow({EngineName(engine), Fmt(r.kops_per_sec),
                     Fmt(r.latency_us.Percentile(99), 0)});
    }
  }

  // Ablation of the scan path itself: optimized Scan() vs iterator loop
  // on UniKV.
  PrintTableHeader("F7b UniKV scan path (length 100)",
                   {"path", "kentries/s"});
  {
    BenchDb bdb(Engine::kUniKV, BenchOptions(), root);
    LoadSpec load;
    load.num_keys = kKeys;
    load.value_size = kValueSize;
    RunLoad(&bdb, load);
    for (bool optimized : {true, false}) {
      ScanSpec spec;
      spec.num_ops = Scaled(300);
      spec.scan_len = 100;
      spec.key_space = kKeys;
      spec.use_optimized_scan = optimized;
      PhaseResult r = RunScans(&bdb, spec);
      PrintTableRow({optimized ? "Scan()" : "iterator",
                     Fmt(r.kops_per_sec)});
    }
  }
  return 0;
}
