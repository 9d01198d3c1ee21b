#include "benchutil/driver.h"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "baseline/baselines.h"
#include "util/metrics.h"

namespace unikv {
namespace bench {

const char* EngineName(Engine e) {
  switch (e) {
    case Engine::kUniKV:
      return "UniKV";
    case Engine::kLeveled:
      return "LeveledLSM";
    case Engine::kTiered:
      return "TieredLSM";
    case Engine::kHashLog:
      return "HashLog";
  }
  return "?";
}

BenchDb::BenchDb(Engine engine, const Options& base_options,
                 const std::string& root, bool keep_existing)
    : engine_(engine), options_(base_options) {
  Env* base_env =
      base_options.env != nullptr ? base_options.env : Env::Default();
  env_ = std::make_unique<InstrumentedEnv>(base_env);
  options_.env = env_.get();
  (void)base_env->CreateDir(root);  // Usually exists across runs.
  path_ = root + "/" + EngineName(engine);
  if (!keep_existing) {
    // Best-effort scratch cleanup; a survivor only skews disk accounting.
    (void)RemoveDirRecursively(env_.get(), path_);
  }

  DB* raw = nullptr;
  Status s;
  switch (engine) {
    case Engine::kUniKV:
      s = DB::Open(options_, path_, &raw);
      break;
    case Engine::kLeveled:
      s = baseline::OpenLeveledDB(options_, path_, &raw);
      break;
    case Engine::kTiered:
      s = baseline::OpenTieredDB(options_, path_, &raw);
      break;
    case Engine::kHashLog:
      s = baseline::OpenHashLogDB(options_, path_, &raw);
      break;
  }
  if (!s.ok()) {
    std::fprintf(stderr, "FATAL: cannot open %s at %s: %s\n",
                 EngineName(engine), path_.c_str(), s.ToString().c_str());
    std::abort();
  }
  db_.reset(raw);
}

BenchDb::~BenchDb() = default;

double BenchDb::Reopen() {
  db_.reset();
  Env* env = options_.env;
  uint64_t start = env->NowMicros();
  DB* raw = nullptr;
  Status s;
  switch (engine_) {
    case Engine::kUniKV:
      s = DB::Open(options_, path_, &raw);
      break;
    case Engine::kLeveled:
      s = baseline::OpenLeveledDB(options_, path_, &raw);
      break;
    case Engine::kTiered:
      s = baseline::OpenTieredDB(options_, path_, &raw);
      break;
    case Engine::kHashLog:
      s = baseline::OpenHashLogDB(options_, path_, &raw);
      break;
  }
  uint64_t elapsed = env->NowMicros() - start;
  if (!s.ok()) {
    std::fprintf(stderr, "FATAL: reopen failed: %s\n", s.ToString().c_str());
    std::abort();
  }
  db_.reset(raw);
  return elapsed / 1e6;
}

namespace {

struct PhaseTimer {
  BenchDb* bdb;
  PhaseResult* result;
  uint64_t start_us;
  uint64_t start_written, start_read;
  PerfContext start_perf;

  PhaseTimer(BenchDb* b, PhaseResult* r) : bdb(b), result(r) {
    start_us = Env::Default()->NowMicros();
    start_written = bdb->io()->bytes_written.load();
    start_read = bdb->io()->bytes_read.load();
    start_perf = *GetPerfContext();
  }

  void Finish(uint64_t ops) {
    result->seconds = (Env::Default()->NowMicros() - start_us) / 1e6;
    result->ops = ops;
    result->kops_per_sec =
        result->seconds > 0 ? ops / result->seconds / 1000.0 : 0;
    result->bytes_written = bdb->io()->bytes_written.load() - start_written;
    result->bytes_read = bdb->io()->bytes_read.load() - start_read;
    result->perf = GetPerfContext()->DeltaSince(start_perf);
  }
};

}  // namespace

PhaseResult RunLoad(BenchDb* bdb, const LoadSpec& spec) {
  PhaseResult r;
  r.phase = "load";
  PhaseTimer timer(bdb, &r);
  Env* env = Env::Default();
  Random shuffle_rnd(spec.seed);

  // A permuted id sequence for random loads.
  std::vector<uint32_t> order;
  if (!spec.sequential) {
    order.resize(spec.num_keys);
    for (uint64_t i = 0; i < spec.num_keys; i++) order[i] = i;
    for (uint64_t i = spec.num_keys; i > 1; i--) {
      std::swap(order[i - 1], order[shuffle_rnd.Next64() % i]);
    }
  }

  WriteOptions wo;
  wo.sync = spec.sync_every;
  uint64_t user_bytes = 0;
  for (uint64_t i = 0; i < spec.num_keys; i++) {
    uint64_t id = spec.sequential ? i : order[i];
    std::string key = KeyGenerator::Key(id);
    std::string value = MakeValue(id, spec.value_size);
    user_bytes += key.size() + value.size();
    uint64_t t0 = env->NowMicros();
    Status s = bdb->db()->Put(wo, key, value);
    r.latency_us.Add(env->NowMicros() - t0);
    if (!s.ok()) {
      std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
      std::abort();
    }
  }
  // Settle all background work so write amplification is fully counted
  // (the paper counts GC cost in write performance).
  OrDie(bdb->db()->CompactAll(), "CompactAll");
  timer.Finish(spec.num_keys);
  r.user_bytes = user_bytes;
  r.write_amp = user_bytes > 0
                    ? static_cast<double>(r.bytes_written) / user_bytes
                    : 0;
  return r;
}

PhaseResult RunPointReads(BenchDb* bdb, const PointReadSpec& spec) {
  PhaseResult r;
  r.phase = spec.phase;
  // Keys are drawn and formatted before the timer starts: the phase
  // measures the DB, not snprintf and the zipfian generator's pow().
  KeyGenerator gen(spec.dist, spec.key_space, spec.seed);
  std::vector<std::string> key_bufs(spec.num_ops);
  for (uint64_t i = 0; i < spec.num_ops; i++) {
    key_bufs[i] = KeyGenerator::Key(gen.NextId());
  }
  PhaseTimer timer(bdb, &r);
  Env* env = Env::Default();
  std::string value;
  uint64_t found = 0, logical = 0;
  for (uint64_t i = 0; i < spec.num_ops; i++) {
    const std::string& key = key_bufs[i];
    uint64_t t0 = env->NowMicros();
    Status s = bdb->db()->Get(ReadOptions(), key, &value);
    r.latency_us.Add(env->NowMicros() - t0);
    if (s.ok()) {
      found++;
      logical += key.size() + value.size();
    }
  }
  timer.Finish(spec.num_ops);
  r.user_bytes = logical;
  r.read_amp =
      logical > 0 ? static_cast<double>(r.bytes_read) / logical : 0;
  (void)found;
  return r;
}

PhaseResult RunMultiGet(BenchDb* bdb, const MultiGetSpec& spec) {
  PhaseResult r;
  r.phase = spec.phase;
  r.batch = spec.batch < 1 ? 1 : spec.batch;
  // Same methodology as RunPointReads: all batches' keys are drawn and
  // formatted before the timer starts, so the two phases compare DB time
  // against DB time.
  KeyGenerator gen(spec.dist, spec.key_space, spec.seed);
  const uint64_t batches =
      (spec.num_keys + r.batch - 1) / static_cast<uint64_t>(r.batch);
  std::vector<std::string> key_bufs(batches * r.batch);
  for (uint64_t i = 0; i < batches * r.batch; i++) {
    key_bufs[i] = KeyGenerator::Key(gen.NextId());
  }
  PhaseTimer timer(bdb, &r);
  Env* env = Env::Default();
  std::vector<Slice> keys(r.batch);
  std::vector<std::string> values;
  std::vector<Status> statuses;
  uint64_t logical = 0, keys_fetched = 0;
  for (uint64_t b = 0; b < batches; b++) {
    for (int i = 0; i < r.batch; i++) {
      keys[i] = Slice(key_bufs[b * r.batch + i]);
    }
    uint64_t t0 = env->NowMicros();
    Status s = bdb->db()->MultiGet(ReadOptions(), keys, &values, &statuses);
    r.latency_us.Add(env->NowMicros() - t0);
    if (!s.ok()) {
      std::fprintf(stderr, "multiget failed: %s\n", s.ToString().c_str());
      std::abort();
    }
    keys_fetched += keys.size();
    for (size_t i = 0; i < statuses.size(); i++) {
      if (statuses[i].ok()) logical += keys[i].size() + values[i].size();
    }
  }
  timer.Finish(keys_fetched);
  r.user_bytes = logical;
  r.read_amp =
      logical > 0 ? static_cast<double>(r.bytes_read) / logical : 0;
  return r;
}

namespace {

// Folds one interleaved slice into its phase's running total. Rates and
// amplification are recomputed from the accumulated sums, so the merged
// result weighs every slice by its actual duration.
void MergePhaseSlice(const PhaseResult& slice, PhaseResult* into) {
  if (into->phase.empty()) {
    *into = slice;
    return;
  }
  into->seconds += slice.seconds;
  into->ops += slice.ops;
  into->latency_us.Merge(slice.latency_us);
  into->bytes_written += slice.bytes_written;
  into->bytes_read += slice.bytes_read;
  into->user_bytes += slice.user_bytes;
  into->perf.Add(slice.perf);
  into->kops_per_sec =
      into->seconds > 0 ? into->ops / into->seconds / 1000.0 : 0;
  into->read_amp =
      into->user_bytes > 0
          ? static_cast<double>(into->bytes_read) / into->user_bytes
          : 0;
}

}  // namespace

std::vector<PhaseResult> RunInterleavedBatchedReads(
    BenchDb* bdb, const PointReadSpec& get_spec,
    const std::vector<MultiGetSpec>& mget_specs, int rounds) {
  if (rounds < 1) rounds = 1;
  std::vector<PhaseResult> out(1 + mget_specs.size());
  for (int r = 0; r < rounds; r++) {
    PointReadSpec g = get_spec;
    g.num_ops = get_spec.num_ops / rounds;
    g.seed = get_spec.seed + static_cast<uint32_t>(r) * 1000003u;
    MergePhaseSlice(RunPointReads(bdb, g), &out[0]);
    for (size_t m = 0; m < mget_specs.size(); m++) {
      MultiGetSpec s = mget_specs[m];
      s.num_keys = mget_specs[m].num_keys / rounds;
      s.seed = mget_specs[m].seed + static_cast<uint32_t>(r) * 1000003u;
      MergePhaseSlice(RunMultiGet(bdb, s), &out[1 + m]);
    }
  }
  return out;
}

PhaseResult RunScans(BenchDb* bdb, const ScanSpec& spec) {
  PhaseResult r;
  r.phase = spec.phase;
  PhaseTimer timer(bdb, &r);
  Env* env = Env::Default();
  Random rnd(spec.seed);
  uint64_t entries = 0;
  for (uint64_t i = 0; i < spec.num_ops; i++) {
    uint64_t start_id = rnd.Next64() % spec.key_space;
    std::string start = KeyGenerator::Key(start_id);
    uint64_t t0 = env->NowMicros();
    if (spec.use_optimized_scan) {
      std::vector<std::pair<std::string, std::string>> out;
      OrDie(bdb->db()->Scan(ReadOptions(), start, spec.scan_len, &out),
            "Scan");
      entries += out.size();
    } else {
      std::unique_ptr<Iterator> iter(bdb->db()->NewIterator(ReadOptions()));
      int left = spec.scan_len;
      for (iter->Seek(start); iter->Valid() && left > 0;
           iter->Next(), left--) {
        entries += 1;
        // Touch the value as a consumer would.
        volatile size_t sink = iter->value().size();
        (void)sink;
      }
    }
    r.latency_us.Add(env->NowMicros() - t0);
  }
  timer.Finish(entries);  // Throughput = entries/sec for scans.
  return r;
}

PhaseResult RunUpdates(BenchDb* bdb, const UpdateSpec& spec) {
  PhaseResult r;
  r.phase = "update";
  PhaseTimer timer(bdb, &r);
  Env* env = Env::Default();
  KeyGenerator gen(spec.dist, spec.key_space, spec.seed);
  uint64_t user_bytes = 0;
  for (uint64_t i = 0; i < spec.num_ops; i++) {
    uint64_t id = gen.NextId();
    std::string key = KeyGenerator::Key(id);
    std::string value = MakeValue(id ^ i, spec.value_size);
    user_bytes += key.size() + value.size();
    uint64_t t0 = env->NowMicros();
    Status s = bdb->db()->Put(WriteOptions(), key, value);
    r.latency_us.Add(env->NowMicros() - t0);
    if (!s.ok()) {
      std::fprintf(stderr, "update failed: %s\n", s.ToString().c_str());
      std::abort();
    }
  }
  OrDie(bdb->db()->CompactAll(), "CompactAll");  // GC cost is part of
                                                 // write performance.
  timer.Finish(spec.num_ops);
  r.user_bytes = user_bytes;
  r.write_amp = user_bytes > 0
                    ? static_cast<double>(r.bytes_written) / user_bytes
                    : 0;
  return r;
}

PhaseResult RunMixed(BenchDb* bdb, const MixedSpec& spec) {
  PhaseResult r;
  r.phase = "mixed";
  PhaseTimer timer(bdb, &r);
  Env* env = Env::Default();
  KeyGenerator gen(spec.dist, spec.key_space, spec.seed);
  Random rnd(spec.seed * 31 + 7);
  std::string value;
  for (uint64_t i = 0; i < spec.num_ops; i++) {
    uint64_t id = gen.NextId();
    std::string key = KeyGenerator::Key(id);
    bool is_read = (rnd.Next() % 1000) < spec.read_fraction * 1000;
    uint64_t t0 = env->NowMicros();
    if (is_read) {
      // NotFound is a legitimate mixed-workload outcome (random key).
      (void)bdb->db()->Get(ReadOptions(), key, &value);
    } else {
      OrDie(bdb->db()->Put(WriteOptions(), key,
                           MakeValue(id ^ i, spec.value_size)),
            "Put");
    }
    r.latency_us.Add(env->NowMicros() - t0);
  }
  timer.Finish(spec.num_ops);
  return r;
}

PhaseResult RunConcurrentWrites(BenchDb* bdb,
                                const ConcurrentWriteSpec& spec) {
  PhaseResult r;
  r.phase = spec.phase;
  r.threads = spec.threads > 0 ? spec.threads : 1;
  PhaseTimer timer(bdb, &r);
  Env* env = Env::Default();

  const uint64_t per_thread = spec.total_ops / r.threads;
  std::vector<Histogram> latencies(r.threads);
  std::vector<uint64_t> thread_bytes(r.threads, 0);
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(r.threads);
  for (int t = 0; t < r.threads; t++) {
    workers.emplace_back([&, t] {
      WriteOptions wo;
      wo.sync = spec.sync;
      for (uint64_t i = 0; i < per_thread; i++) {
        const uint64_t id =
            spec.key_base + static_cast<uint64_t>(t) * per_thread + i;
        std::string key = KeyGenerator::Key(id);
        std::string value = MakeValue(id, spec.value_size);
        thread_bytes[t] += key.size() + value.size();
        const uint64_t t0 = env->NowMicros();
        Status s = bdb->db()->Put(wo, key, value);
        latencies[t].Add(env->NowMicros() - t0);
        if (!s.ok()) {
          failures.fetch_add(1);
          break;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  if (failures.load() != 0) {
    std::fprintf(stderr, "concurrent write phase %s failed\n",
                 spec.phase.c_str());
    std::abort();
  }
  timer.Finish(per_thread * r.threads);
  uint64_t user_bytes = 0;
  for (int t = 0; t < r.threads; t++) {
    r.latency_us.Merge(latencies[t]);
    user_bytes += thread_bytes[t];
  }
  r.user_bytes = user_bytes;
  r.write_amp = user_bytes > 0
                    ? static_cast<double>(r.bytes_written) / user_bytes
                    : 0;
  return r;
}

PhaseResult RunYcsb(BenchDb* bdb, const YcsbRunSpec& spec) {
  PhaseResult r;
  r.phase = std::string("ycsb-") + spec.workload;
  const YcsbSpec* ycsb = GetYcsbSpec(spec.workload);
  if (ycsb == nullptr) {
    std::fprintf(stderr, "unknown YCSB workload %c\n", spec.workload);
    std::abort();
  }
  PhaseTimer timer(bdb, &r);
  Env* env = Env::Default();
  KeyGenerator gen(ycsb->dist, spec.key_space, spec.seed);
  Random rnd(spec.seed * 131 + 13);
  uint64_t insert_frontier = spec.key_space;
  std::string value;

  for (uint64_t i = 0; i < spec.num_ops; i++) {
    double dice = (rnd.Next() % 1000000) / 1e6;
    uint64_t t0 = env->NowMicros();
    if (dice < ycsb->read_ratio) {
      // NotFound is a legitimate YCSB outcome (zipfian tail key).
      (void)bdb->db()->Get(ReadOptions(), KeyGenerator::Key(gen.NextId()),
                           &value);
    } else if (dice < ycsb->read_ratio + ycsb->update_ratio) {
      uint64_t id = gen.NextId();
      OrDie(bdb->db()->Put(WriteOptions(), KeyGenerator::Key(id),
                           MakeValue(id ^ i, spec.value_size)),
            "Put");
    } else if (dice < ycsb->read_ratio + ycsb->update_ratio +
                          ycsb->insert_ratio) {
      uint64_t id = insert_frontier++;
      gen.SetFrontier(insert_frontier);
      OrDie(bdb->db()->Put(WriteOptions(), KeyGenerator::Key(id),
                           MakeValue(id, spec.value_size)),
            "Put");
    } else if (dice < ycsb->read_ratio + ycsb->update_ratio +
                          ycsb->insert_ratio + ycsb->scan_ratio) {
      int len = 1 + static_cast<int>(rnd.Uniform(ycsb->scan_max_len));
      std::vector<std::pair<std::string, std::string>> out;
      OrDie(bdb->db()->Scan(ReadOptions(), KeyGenerator::Key(gen.NextId()),
                            len, &out),
            "Scan");
    } else {
      // Read-modify-write.
      uint64_t id = gen.NextId();
      std::string key = KeyGenerator::Key(id);
      (void)bdb->db()->Get(ReadOptions(), key, &value);  // May be absent.
      OrDie(bdb->db()->Put(WriteOptions(), key,
                           MakeValue(id ^ i, spec.value_size)),
            "Put");
    }
    r.latency_us.Add(env->NowMicros() - t0);
  }
  timer.Finish(spec.num_ops);
  return r;
}

void PrintPhasePerf(const char* engine, const PhaseResult& r) {
  std::string s = r.perf.ToString();
  if (s.empty()) return;
  std::printf("  [perf %s/%s] %s\n", engine, r.phase.c_str(), s.c_str());
  std::fflush(stdout);
}

namespace {

/// Writes `contents` to `path`, replacing it. fwrite/fclose results are
/// checked: a short write yields a loud warning rather than a silently
/// truncated artifact that looks complete.
bool WriteFileWarnOnError(const std::string& path,
                          const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  const size_t n = std::fwrite(contents.data(), 1, contents.size(), f);
  const bool write_ok = (n == contents.size());
  const bool close_ok = (std::fclose(f) == 0);
  if (!write_ok || !close_ok) {
    std::fprintf(stderr,
                 "warning: truncated write to %s (%zu/%zu bytes%s)\n",
                 path.c_str(), n, contents.size(),
                 close_ok ? "" : ", close failed");
    return false;
  }
  return true;
}

}  // namespace

std::string DumpMetricsJson(BenchDb* bdb) {
  std::string json;
  if (!bdb->db()->GetProperty("db.metrics.json", &json)) return "";
  json.push_back('\n');
  std::string path = bdb->path() + ".metrics.json";
  return WriteFileWarnOnError(path, json) ? path : "";
}

// --------------------------------------------- benchmark trajectory JSON

namespace {

std::string HistogramJson(const Histogram& h) {
  JsonBuilder j;
  j.AddUint("count", h.Count());
  j.AddDouble("avg", h.Average());
  j.AddDouble("p50", h.Percentile(50));
  j.AddDouble("p95", h.Percentile(95));
  j.AddDouble("p99", h.Percentile(99));
  j.AddDouble("p999", h.Percentile(99.9));
  j.AddDouble("min", h.Count() > 0 ? h.Min() : 0);
  j.AddDouble("max", h.Count() > 0 ? h.Max() : 0);
  return j.Finish();
}

const char* SanitizerState() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

const char* BuildType() {
#if defined(NDEBUG)
  return "release";
#else
  return "debug";
#endif
}

/// Extracts `field=<number>` from the db.stats text property (0 when the
/// engine lacks the property or the field).
uint64_t StatsFieldValue(DB* db, const std::string& field) {
  std::string stats;
  if (!db->GetProperty("db.stats", &stats)) return 0;
  const size_t pos = stats.find(field + "=");
  if (pos == std::string::npos) return 0;
  return std::strtoull(stats.c_str() + pos + field.size() + 1, nullptr, 10);
}

}  // namespace

std::string BenchTrajectoryJson(const std::string& workload, BenchDb* bdb,
                                const std::vector<PhaseResult>& phases) {
  JsonBuilder root;
  root.AddUint("schema_version", kBenchJsonSchemaVersion);
  root.AddString("workload", workload);
  root.AddString("engine", EngineName(bdb->engine()));
  root.AddUint("ts_micros", Env::Default()->NowMicros());

  JsonBuilder environment;
  environment.AddUint("cores", std::thread::hardware_concurrency());
  environment.AddString("build_type", BuildType());
  environment.AddString("sanitizer", SanitizerState());
  environment.AddDouble("bench_scale", BenchScale());
  environment.AddUint("pointer_bits", sizeof(void*) * 8);
  root.AddRaw("environment", environment.Finish());

  const Options& opt = bdb->options();
  JsonBuilder params;
  params.AddUint("write_buffer_size", opt.write_buffer_size);
  params.AddUint("block_cache_size", opt.block_cache_size);
  params.AddUint("unsorted_limit", opt.unsorted_limit);
  params.AddUint("partition_size_limit", opt.partition_size_limit);
  params.AddUint("sorted_table_size", opt.sorted_table_size);
  params.AddUint("gc_garbage_threshold", opt.gc_garbage_threshold);
  params.AddUint("value_separation_threshold",
                 opt.value_separation_threshold);
  params.AddInt("value_fetch_threads", opt.value_fetch_threads);
  params.AddInt("background_threads", opt.background_threads);
  params.AddInt("write_shards", opt.write_shards);
  params.AddInt("scan_merge_limit", opt.scan_merge_limit);
  params.AddBool("enable_anchor_view", opt.enable_anchor_view);
  root.AddRaw("params", params.Finish());

  std::string phase_array = "[";
  double total_seconds = 0;
  uint64_t total_ops = 0, total_written = 0, total_read = 0;
  bool first = true;
  for (const PhaseResult& r : phases) {
    total_seconds += r.seconds;
    total_ops += r.ops;
    total_written += r.bytes_written;
    total_read += r.bytes_read;
    JsonBuilder pj;
    pj.AddString("phase", r.phase);
    pj.AddInt("threads", r.threads);
    pj.AddInt("batch", r.batch);
    pj.AddUint("ops", r.ops);
    pj.AddDouble("seconds", r.seconds);
    pj.AddDouble("kops_per_sec", r.kops_per_sec);
    pj.AddRaw("latency_us", HistogramJson(r.latency_us));
    pj.AddUint("bytes_written", r.bytes_written);
    pj.AddUint("bytes_read", r.bytes_read);
    pj.AddUint("user_bytes", r.user_bytes);
    pj.AddDouble("write_amp", r.write_amp);
    pj.AddDouble("read_amp", r.read_amp);
    if (!first) phase_array += ',';
    first = false;
    phase_array += pj.Finish();
  }
  phase_array += ']';
  root.AddRaw("phases", phase_array);

  JsonBuilder totals;
  totals.AddUint("ops", total_ops);
  totals.AddDouble("seconds", total_seconds);
  totals.AddDouble("ops_per_sec",
                   total_seconds > 0 ? total_ops / total_seconds : 0);
  totals.AddUint("bytes_written", total_written);
  totals.AddUint("bytes_read", total_read);
  root.AddRaw("totals", totals.Finish());

  JsonBuilder stalls;
  stalls.AddUint("write_stalls", StatsFieldValue(bdb->db(), "write_stalls"));
  stalls.AddUint("stall_micros", StatsFieldValue(bdb->db(), "stall_micros"));
  root.AddRaw("stalls", stalls.Finish());

  // The live engine's full metrics surface — the in-engine latency
  // histograms (get/write/scan/..., with p50..p999) live here under
  // engine_metrics.engine.histograms. null for engines without the
  // property (baselines).
  std::string engine_json;
  if (!bdb->db()->GetProperty("db.metrics.json", &engine_json)) {
    engine_json = "null";
  }
  root.AddRaw("engine_metrics", engine_json);
  return root.Finish();
}

std::string WriteBenchTrajectory(const std::string& workload, BenchDb* bdb,
                                 const std::vector<PhaseResult>& phases,
                                 const std::string& out_dir) {
  std::string dir = out_dir;
  if (dir.empty()) {
    const char* env_dir = std::getenv("UNIKV_BENCH_OUT");
    dir = (env_dir != nullptr && env_dir[0] != '\0') ? env_dir : ".";
  }
  std::string json = BenchTrajectoryJson(workload, bdb, phases);
  json.push_back('\n');
  const std::string path = dir + "/BENCH_" + workload + ".json";
  if (!WriteFileWarnOnError(path, json)) return "";
  std::printf("wrote %s\n", path.c_str());
  std::fflush(stdout);
  return path;
}

void PrintTableHeader(const std::string& title,
                      const std::vector<std::string>& columns) {
  std::printf("\n=== %s ===\n", title.c_str());
  for (const std::string& col : columns) {
    std::printf("%-16s", col.c_str());
  }
  std::printf("\n");
  for (size_t i = 0; i < columns.size(); i++) {
    std::printf("%-16s", "---------------");
  }
  std::printf("\n");
}

void PrintTableRow(const std::vector<std::string>& cells) {
  for (const std::string& cell : cells) {
    std::printf("%-16s", cell.c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
}

std::string Fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

double BenchScale() {
  const char* s = std::getenv("UNIKV_BENCH_SCALE");
  if (s == nullptr) return 1.0;
  double v = std::atof(s);
  return v > 0 ? v : 1.0;
}

}  // namespace bench
}  // namespace unikv
