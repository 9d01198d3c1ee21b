#ifndef UNIKV_BENCHUTIL_DRIVER_H_
#define UNIKV_BENCHUTIL_DRIVER_H_

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "benchutil/workload.h"
#include "core/db.h"
#include "util/env.h"
#include "util/histogram.h"
#include "util/perf_context.h"

namespace unikv {
namespace bench {

/// Engines compared across experiments (paper: UniKV vs LevelDB, RocksDB,
/// HyperLevelDB, PebblesDB — we build LevelDB/RocksDB-shaped `kLeveled`
/// and HyperLevelDB/PebblesDB-shaped `kTiered` baselines on the same
/// substrates, plus the SkimpyStash-shaped `kHashLog` for motivation).
enum class Engine { kUniKV, kLeveled, kTiered, kHashLog };

const char* EngineName(Engine e);

/// A benchmark that silently drops a failed mutation reports numbers for
/// work it did not do; fail loudly instead.
inline void OrDie(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, s.ToString().c_str());
    std::abort();
  }
}

/// Result of one workload phase against one engine.
struct PhaseResult {
  std::string phase;
  int threads = 1;  // Client threads that drove the phase.
  int batch = 0;    // MultiGet batch size; 0 = not a batched phase.
  double seconds = 0;
  uint64_t ops = 0;
  double kops_per_sec = 0;
  Histogram latency_us;
  // I/O accounting from the instrumented Env over the phase.
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
  uint64_t user_bytes = 0;  // Logical bytes the workload wrote.
  double write_amp = 0;     // bytes_written / user_bytes.
  double read_amp = 0;      // bytes_read / user logical bytes read.
  /// What the engine did during the phase, as seen by this thread's
  /// PerfContext (hash-index probes, bloom checks, vlog reads, ...).
  PerfContext perf;
};

/// A DB under test with an instrumented Env wrapped around the real one.
class BenchDb {
 public:
  /// Opens `engine` at <root>/<engine-name>, destroying previous contents
  /// unless `keep_existing`.
  BenchDb(Engine engine, const Options& base_options,
          const std::string& root, bool keep_existing = false);
  ~BenchDb();

  DB* db() { return db_.get(); }
  Engine engine() const { return engine_; }
  IoStats* io() { return env_->stats(); }
  const std::string& path() const { return path_; }
  const Options& options() const { return options_; }

  /// Closes and reopens (recovery benchmarks). Returns elapsed seconds.
  double Reopen();

 private:
  Engine engine_;
  Options options_;
  std::string path_;
  std::unique_ptr<InstrumentedEnv> env_;
  std::unique_ptr<DB> db_;
};

/// Workload phases -----------------------------------------------------

struct LoadSpec {
  uint64_t num_keys = 100000;
  size_t value_size = 1024;
  bool sequential = false;
  bool sync_every = false;
  uint32_t seed = 1;
};

/// Loads num_keys distinct keys; returns throughput + write amplification.
PhaseResult RunLoad(BenchDb* bdb, const LoadSpec& spec);

struct PointReadSpec {
  std::string phase = "read";  // Phase label in tables and BENCH JSON.
  uint64_t num_ops = 20000;
  uint64_t key_space = 100000;
  Distribution dist = Distribution::kUniform;
  uint32_t seed = 2;
  size_t value_size = 1024;  // For read-amp accounting.
};

PhaseResult RunPointReads(BenchDb* bdb, const PointReadSpec& spec);

struct MultiGetSpec {
  std::string phase = "multiget";
  uint64_t num_keys = 20000;  // Total keys fetched (num_keys/batch batches).
  int batch = 64;
  uint64_t key_space = 100000;
  Distribution dist = Distribution::kUniform;
  uint32_t seed = 7;
};

/// Issues MultiGet batches of `batch` keys until num_keys keys have been
/// fetched. `ops`/`kops_per_sec` count *keys*, not batches, so the phase
/// is directly comparable against a looped-Get phase; the latency
/// histogram is per batch.
PhaseResult RunMultiGet(BenchDb* bdb, const MultiGetSpec& spec);

/// Runs the looped-Get phase and each MultiGet phase as `rounds`
/// interleaved slices (get, mget[0], mget[1], ..., repeated) and merges
/// each phase's slices into one PhaseResult, in input order with the Get
/// phase first. Back-to-back full phases fold machine drift into the
/// comparison — on a busy host, a phase measured during a slow minute
/// loses to one measured during a fast minute regardless of the code
/// under test. Interleaving samples every phase across the same
/// conditions. Each round draws fresh keys (seed advanced per round);
/// ops counts divide evenly across rounds.
std::vector<PhaseResult> RunInterleavedBatchedReads(
    BenchDb* bdb, const PointReadSpec& get_spec,
    const std::vector<MultiGetSpec>& mget_specs, int rounds = 5);

struct ScanSpec {
  std::string phase = "scan";  // Phase label in tables and BENCH JSON.
  uint64_t num_ops = 500;
  int scan_len = 100;
  uint64_t key_space = 100000;
  uint32_t seed = 3;
  bool use_optimized_scan = true;  // DB::Scan vs iterator loop.
};

PhaseResult RunScans(BenchDb* bdb, const ScanSpec& spec);

struct UpdateSpec {
  uint64_t num_ops = 100000;
  uint64_t key_space = 100000;
  size_t value_size = 1024;
  Distribution dist = Distribution::kZipfian;
  uint32_t seed = 4;
};

PhaseResult RunUpdates(BenchDb* bdb, const UpdateSpec& spec);

struct MixedSpec {
  uint64_t num_ops = 50000;
  uint64_t key_space = 100000;
  size_t value_size = 1024;
  double read_fraction = 0.5;
  Distribution dist = Distribution::kZipfian;
  uint32_t seed = 5;
};

PhaseResult RunMixed(BenchDb* bdb, const MixedSpec& spec);

struct ConcurrentWriteSpec {
  std::string phase = "concurrent_write";
  int threads = 1;
  uint64_t total_ops = 40000;  // Split evenly across the threads.
  uint64_t key_base = 0;       // First key id; ids are distinct per op.
  size_t value_size = 256;
  bool sync = false;
};

/// `threads` client threads issue `total_ops / threads` Puts each over
/// disjoint key ranges (so shard spread comes from the key hash, not from
/// overwrites). Per-thread latency histograms are merged after the join;
/// the phase's throughput is wall-clock over all threads — the foreground
/// write-path scalability measurement. Background work is NOT settled
/// inside the timed window; callers wanting a settled store between
/// phases should CompactAll afterwards.
PhaseResult RunConcurrentWrites(BenchDb* bdb, const ConcurrentWriteSpec& spec);

struct YcsbRunSpec {
  char workload = 'A';
  uint64_t num_ops = 30000;
  uint64_t key_space = 100000;
  size_t value_size = 1024;
  uint32_t seed = 6;
};

PhaseResult RunYcsb(BenchDb* bdb, const YcsbRunSpec& spec);

/// Output helpers ------------------------------------------------------

/// Prints the phase's nonzero PerfContext counters, one indented line.
void PrintPhasePerf(const char* engine, const PhaseResult& r);

/// Writes GetProperty("db.metrics.json") to `<db path>.metrics.json`
/// (next to the bench DB directory). No-op for engines that do not
/// support the property. Returns the path written, or "" on failure.
std::string DumpMetricsJson(BenchDb* bdb);

/// Benchmark-trajectory emitter. Every bench run can persist a
/// schema-versioned JSON document capturing what ran, where, and how
/// fast, so the repo's performance over time is diffable. The schema is
/// documented in DESIGN.md §9 ("Observability v2").

/// Bumped whenever a field in the BENCH JSON changes shape.
/// v2: phases[] entries carry "threads" (client threads driving the
/// phase), params carries "write_shards".
/// v3: phases[] entries carry "batch" (MultiGet batch size; 0 for
/// non-batched phases, whose ops are single keys).
/// v4: params carries "scan_merge_limit" and "enable_anchor_view" (the
/// sorted anchor view over the UnsortedStore, DESIGN.md §12).
constexpr int kBenchJsonSchemaVersion = 4;

/// Renders the BENCH JSON document for one workload run: schema_version,
/// workload name, engine, environment (cores, build type, sanitizer,
/// bench scale), engine params, per-phase results (driver-side latency
/// histograms, throughput, write/read amp), run totals, stall totals,
/// and the live DB's full db.metrics.json (in-engine histograms with
/// p50/p95/p99/p999) under "engine_metrics".
std::string BenchTrajectoryJson(const std::string& workload, BenchDb* bdb,
                                const std::vector<PhaseResult>& phases);

/// Writes BenchTrajectoryJson() to `<out_dir>/BENCH_<workload>.json`.
/// With an empty `out_dir`, $UNIKV_BENCH_OUT is used when set, else the
/// current directory (run the trajectory suite from the repo root to
/// accumulate BENCH_*.json there). Returns the path written, or "" on
/// failure (a warning is printed; failures never abort the bench).
std::string WriteBenchTrajectory(const std::string& workload, BenchDb* bdb,
                                 const std::vector<PhaseResult>& phases,
                                 const std::string& out_dir = "");

/// Prints a paper-style table: header row then one row per entry.
void PrintTableHeader(const std::string& title,
                      const std::vector<std::string>& columns);
void PrintTableRow(const std::vector<std::string>& cells);

std::string Fmt(double v, int precision = 1);

/// Benchmark scale factor from UNIKV_BENCH_SCALE (default 1.0): every
/// bench multiplies its op counts by this, so `UNIKV_BENCH_SCALE=10` runs
/// the full-size experiments.
double BenchScale();

}  // namespace bench
}  // namespace unikv

#endif  // UNIKV_BENCHUTIL_DRIVER_H_
