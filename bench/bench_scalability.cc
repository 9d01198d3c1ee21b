// Experiment F14 — Foreground write-path scalability (sharded write path
// at work; DESIGN.md §10).
//
// Sweeps 1→32 client threads over two configurations of the same UniKV
// engine: the sharded foreground path (write_shards=16; per-shard
// memtable + WAL + group commit) and the single-queue baseline
// (write_shards=1; every writer funnels through one memtable and WAL).
//
// The headline sweep (phases sharded_tN / single_tN) uses durable
// (sync=true) writes: a lone writer pays the full WAL-fsync latency per
// op, while concurrent writers overlap their fsync waits and group
// commit amortizes each shard's sync across the batch — so throughput
// must rise steeply with the thread count. An async sweep
// (*_async_tN) records the CPU-bound fast path, where sharding shows up
// as lower per-op contention rather than thread scaling (on a 1-core
// host the async curve is flat by construction).
//
// Emits BENCH_scalability.json (schema v2: per-phase "threads" field)
// via WriteBenchTrajectory — run from the repo root so the artifact
// lands there.

#include "bench_common.h"

using namespace unikv;
using namespace unikv::bench;

namespace {

Options SweepOptions(int shards) {
  Options opt = BenchOptions();
  opt.write_shards = shards;
  return opt;
}

struct SweepResult {
  std::vector<PhaseResult> phases;
};

SweepResult RunSweep(BenchDb* bdb, const std::string& prefix, bool sync,
                     uint64_t total_ops, const std::vector<int>& threads) {
  SweepResult out;
  uint64_t key_base = sync ? 0 : 1u << 30;  // Sweeps use disjoint key ranges.
  for (int t : threads) {
    ConcurrentWriteSpec spec;
    spec.phase = prefix + "_t" + std::to_string(t);
    spec.threads = t;
    spec.total_ops = total_ops;
    spec.key_base = key_base;
    spec.value_size = 256;
    spec.sync = sync;
    out.phases.push_back(RunConcurrentWrites(bdb, spec));
    key_base += total_ops;        // Distinct keys per phase: no overwrites.
    OrDie(bdb->db()->CompactAll(),  // Settle outside the timed window.
          "CompactAll");
  }
  return out;
}

}  // namespace

int main() {
  const std::string root = BenchRoot("scalability");
  const std::vector<int> kThreads = {1, 2, 4, 8, 16, 32};
  const uint64_t kSyncOps = Scaled(1500);    // Sync ops pay real fsyncs.
  const uint64_t kAsyncOps = Scaled(40000);  // Fixed; split across threads.

  // Single-queue baseline first, sharded second: WriteBenchTrajectory
  // needs a live BenchDb, so the sharded store is kept open until the
  // artifact is written.
  SweepResult single_sync, single_async;
  {
    BenchDb single(Engine::kUniKV, SweepOptions(1), root + "/single");
    single_sync = RunSweep(&single, "single", true, kSyncOps, kThreads);
    single_async = RunSweep(&single, "single_async", false, kAsyncOps,
                            kThreads);
  }

  BenchDb sharded(Engine::kUniKV, SweepOptions(16), root + "/sharded");
  SweepResult sharded_sync =
      RunSweep(&sharded, "sharded", true, kSyncOps, kThreads);
  SweepResult sharded_async =
      RunSweep(&sharded, "sharded_async", false, kAsyncOps, kThreads);

  PrintTableHeader(
      "F14 write scalability (kops/s; sync = durable writes, async = "
      "buffered)",
      {"threads", "shard sync", "single sync", "shard async",
       "single async"});
  for (size_t i = 0; i < kThreads.size(); i++) {
    PrintTableRow({std::to_string(kThreads[i]),
                   Fmt(sharded_sync.phases[i].kops_per_sec),
                   Fmt(single_sync.phases[i].kops_per_sec),
                   Fmt(sharded_async.phases[i].kops_per_sec),
                   Fmt(single_async.phases[i].kops_per_sec)});
  }

  std::vector<PhaseResult> phases;
  for (auto* sweep :
       {&sharded_sync, &sharded_async, &single_sync, &single_async}) {
    phases.insert(phases.end(), sweep->phases.begin(), sweep->phases.end());
  }
  WriteBenchTrajectory("scalability", &sharded, phases);
  return 0;
}
