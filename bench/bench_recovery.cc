// Experiment T3 — Crash-recovery time.
//
// Paper: recovery replays the WAL, reloads partition metadata from the
// MANIFEST, and restores the hash indexes from the latest checkpoints.
// Here every unsorted table carries its keys' hashes (its key-hash
// block), and recovery rebuilds each partition's index from those blocks
// in table-id order, reading no data block (DESIGN.md §2). Expected
// shape: recovery time grows mildly with DB size.

#include "bench_common.h"

using namespace unikv;
using namespace unikv::bench;

int main() {
  const std::string root = BenchRoot("recovery");
  const size_t kValueSize = 1024;

  PrintTableHeader("T3 recovery time vs dataset size",
                   {"keys", "recovery_ms"});
  for (uint64_t keys : {Scaled(10000), Scaled(20000), Scaled(40000)}) {
    Options opt = BenchOptions();
    // Keep data in the UnsortedStore so index recovery has work to do.
    opt.unsorted_limit = 256 * 1024 * 1024;
    opt.partition_size_limit = 1024ull * 1024 * 1024;
    BenchDb bdb(Engine::kUniKV, opt, root);

    // Load WITHOUT CompactAll-driven merges: write directly.
    WriteOptions wo;
    for (uint64_t i = 0; i < keys; i++) {
      OrDie(bdb.db()->Put(wo, KeyGenerator::Key(i), MakeValue(i, kValueSize)),
            "Put");
    }
    OrDie(bdb.db()->FlushMemTable(), "FlushMemTable");

    const double secs = bdb.Reopen();

    // Sanity: data survives.
    std::string value;
    Status s =
        bdb.db()->Get(ReadOptions(), KeyGenerator::Key(keys / 2), &value);
    if (!s.ok()) {
      std::fprintf(stderr, "recovery check failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    PrintTableRow({std::to_string(keys), Fmt(secs * 1000.0, 1)});
  }

  // WAL-replay component: crash with a populated memtable (no flush).
  PrintTableHeader("T3b WAL replay cost (unflushed tail)",
                   {"tail_keys", "reopen_ms"});
  for (uint64_t tail : {Scaled(1000), Scaled(4000)}) {
    Options opt = BenchOptions();
    opt.write_buffer_size = 64 * 1024 * 1024;  // Keep the tail in the WAL.
    BenchDb bdb(Engine::kUniKV, opt, root);
    for (uint64_t i = 0; i < tail; i++) {
      OrDie(bdb.db()->Put(WriteOptions(), KeyGenerator::Key(i),
                          MakeValue(i, kValueSize)),
            "Put");
    }
    double secs = bdb.Reopen();
    PrintTableRow({std::to_string(tail), Fmt(secs * 1000.0, 1)});
  }
  return 0;
}
