// Closed-loop workloads against the public unikv::DB API, for run.py.
//
//   unikv_perfbench --workload mixed_zipf|read_uniform|scan_insert
//                   --seed N --seconds S --trace 0|1 --dir DIR
//                   [--keys N] [--setups K] [--corrupt-vlog-every N]
//
// Builds the store (timed as set-up, K times, keeping the last), runs the
// timed phase, drains the background debt it left with CompactAll, checks
// every result against a model, and prints one JSON object of raw
// measurements on its last stdout line. run.py derives the metrics.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "mem/write_batch.h"
#include "trace_env.h"
#include "util/env.h"
#include "util/perf_context.h"

namespace perfbench {
namespace {

using unikv::DB;
using unikv::PerfContext;
using unikv::ReadOptions;
using unikv::Slice;
using unikv::Status;
using unikv::WriteOptions;
using Clock = std::chrono::steady_clock;

constexpr size_t kKeySize = 16;
constexpr size_t kValueSize = 1024;
constexpr int kMultiGetBatch = 16;
constexpr int kGetsPerMultiGet = 16;
constexpr int kMaxScanLength = 100;
constexpr uint64_t kInsertBurst = 8;
constexpr uint64_t kInsertCycle = 20 * kInsertBurst;  // 5% inserts.
constexpr int kLoadBatch = 64;
constexpr double kZipfTheta = 0.99;
constexpr int64_t kTraceSliceNs = 250'000'000;
constexpr uint64_t kIntervalNs = 1'000'000'000;

// ---------------------------------------------------------------- inputs

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Mix(uint64_t x) { return SplitMix(&x); }

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(Mix(seed)) {}
  uint64_t Next() { return SplitMix(&state_); }
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  double Unit() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }

 private:
  uint64_t state_;
};

/// YCSB's zipfian generator (Gray et al.), ranks scrambled by a hash so the
/// hot keys are spread over the key space and its partitions.
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    double zeta_n = 0;
    for (uint64_t i = 1; i <= n; i++) zeta_n += 1.0 / std::pow(i, theta);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    alpha_ = 1.0 / (1.0 - theta);
    zeta_n_ = zeta_n;
    eta_ = (1.0 - std::pow(2.0 / n, 1.0 - theta)) / (1.0 - zeta2 / zeta_n);
  }

  uint64_t Next(Rng* rng) const {
    const double u = rng->Unit();
    const double uz = u * zeta_n_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, theta_)) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(n_ * std::pow(eta_ * u - eta_ + 1, alpha_));
    }
    if (rank >= n_) rank = n_ - 1;
    return Mix(rank) % n_;
  }

 private:
  uint64_t n_;
  double theta_;
  double alpha_ = 0;
  double zeta_n_ = 0;
  double eta_ = 0;
};

void FormatKey(uint64_t id, char* buf) {
  char tmp[32];
  std::snprintf(tmp, sizeof(tmp), "user%012" PRIu64, id);
  std::memcpy(buf, tmp, kKeySize);
}

bool ParseKey(const Slice& key, uint64_t* id) {
  if (key.size() != kKeySize || std::memcmp(key.data(), "user", 4) != 0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = 4; i < kKeySize; i++) {
    const char c = key.data()[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *id = v;
  return true;
}

void PutFixed64(char* dst, uint64_t v) { std::memcpy(dst, &v, 8); }
uint64_t GetFixed64(const char* src) {
  uint64_t v;
  std::memcpy(&v, src, 8);
  return v;
}

/// A value encodes its key id, the key's version and a checksum of the
/// filler bytes, which are derived from (run seed, id, version).
class ValueCodec {
 public:
  explicit ValueCodec(uint64_t seed) : seed_(seed) {}

  void Make(uint64_t id, uint32_t version, char* out) const {
    uint64_t state = Mix(seed_ ^ Mix(id * 0x100000001B3ull + version));
    uint64_t sum = 0;
    for (size_t off = 24; off < kValueSize; off += 8) {
      const uint64_t w = SplitMix(&state);
      PutFixed64(out + off, w);
      sum = Mix(sum ^ w);
    }
    PutFixed64(out, id);
    PutFixed64(out + 8, version);
    PutFixed64(out + 16, sum);
  }

  /// True when `value` is exactly the value of key `id` at a version in
  /// [lo, hi].
  bool Check(uint64_t id, const Slice& value, uint32_t lo,
             uint32_t hi) const {
    if (value.size() != kValueSize) return false;
    if (GetFixed64(value.data()) != id) return false;
    const uint64_t v = GetFixed64(value.data() + 8);
    if (v < lo || v > hi) return false;
    char expect[kValueSize];
    Make(id, static_cast<uint32_t>(v), expect);
    return std::memcmp(expect, value.data(), kValueSize) == 0;
  }

 private:
  uint64_t seed_;
};

// ----------------------------------------------------------------- model

/// Per-key versions. `issued` is raised before a Put is sent and `acked`
/// after it is acknowledged, so a read that loads `acked` before the call
/// and `issued` after it must see a version in between. For a key the
/// reading client owns the two are equal: the exact last acked version.
struct VersionModel {
  explicit VersionModel(uint64_t n) : acked(n), issued(n) {}
  std::vector<std::atomic<uint32_t>> acked;
  std::vector<std::atomic<uint32_t>> issued;
};

// ------------------------------------------------------------ collection

/// Latency histogram with 1/256 relative resolution. Its memory is fixed,
/// so the benchmark's own footprint does not grow with throughput (peak
/// RSS is one of the metrics). Percentiles interpolate within a bucket by
/// rank.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}

  void Add(uint64_t ns) {
    counts_[Index(std::min(ns, kMaxNs))]++;
    n_++;
  }
  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < kBuckets; i++) counts_[i] += other.counts_[i];
    n_ += other.n_;
  }
  uint64_t count() const { return n_; }

  double Percentile(double q) const {
    if (n_ == 0) return 0;
    const double rank = q * static_cast<double>(n_);
    uint64_t below = 0;
    for (size_t i = 0; i < kBuckets; i++) {
      if (counts_[i] == 0) continue;
      if (static_cast<double>(below + counts_[i]) >= rank) {
        uint64_t lo, width;
        Bounds(i, &lo, &width);
        const double within =
            (rank - static_cast<double>(below)) / static_cast<double>(counts_[i]);
        return static_cast<double>(lo) +
               static_cast<double>(width) * std::clamp(within, 0.0, 1.0);
      }
      below += counts_[i];
    }
    return static_cast<double>(kMaxNs);
  }

 private:
  static constexpr int kSubBits = 8;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr uint64_t kMaxNs = (uint64_t{1} << 36) - 1;  // ~68 s.
  static constexpr size_t kBuckets = (36 - kSubBits + 1) * kSub;

  static size_t Index(uint64_t v) {
    if (v < 2 * kSub) return static_cast<size_t>(v);
    const int shift = 63 - __builtin_clzll(v) - kSubBits;
    return static_cast<size_t>((shift + 1) * kSub + ((v >> shift) - kSub));
  }
  static void Bounds(size_t i, uint64_t* lo, uint64_t* width) {
    if (i < 2 * kSub) {
      *lo = i;
      *width = 1;
      return;
    }
    const int shift = static_cast<int>(i / kSub) - 1;
    *lo = (i % kSub + kSub) << shift;
    *width = uint64_t{1} << shift;
  }

  std::vector<uint32_t> counts_;
  uint64_t n_ = 0;
};

enum OpKind { kOpGet, kOpMultiGet, kOpPut, kOpScan, kNumOps };
const char* const kOpNames[kNumOps] = {"get", "mget", "put", "scan"};
const Attrib kOpAttrib[kNumOps] = {kGet, kMultiGet, kPut, kScan};

struct OpStats {
  uint64_t calls = 0;
  uint64_t ok_keys = 0;   // Acknowledged keys (MultiGet counts keys).
  uint64_t failed = 0;    // Calls with a non-OK status or a wrong result.
  uint64_t entries = 0;   // Scan: rows returned.
  uint64_t total_ns = 0;
  LatencyHistogram latency;
  std::vector<LatencyHistogram> per_second;  // One per second of the phase.
  // Traced ops only.
  uint64_t traced_calls = 0;
  int64_t unattributed_ns = 0;
  PerfContext perf;
};

struct ClientResult {
  OpStats ops[kNumOps];
  uint64_t slice_ops[2] = {0, 0};  // [untraced, traced] acknowledged keys.
  std::vector<uint64_t> interval_keys;  // Acknowledged keys per second.
  ClientTrace trace;
  std::string first_error;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  uint64_t keys = 0;
  int setups = 3;
  uint64_t corrupt_vlog_every = 0;
};

uint64_t ElapsedNs(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(ElapsedNs(a, b)) / 1e9;
}

unikv::Options EngineOptions(unikv::Env* env) {
  // Engine defaults with sizes scaled as the repo's macro benchmarks scale
  // them, so every run cycles through flush, merge, GC and split.
  unikv::Options opt;
  opt.env = env;
  opt.write_buffer_size = 1 << 20;
  opt.unsorted_limit = 4 << 20;
  opt.partition_size_limit = 24 << 20;
  opt.sorted_table_size = 1 << 20;
  opt.gc_garbage_threshold = 6 << 20;
  opt.block_cache_size = 8 << 20;
  opt.value_fetch_threads = 4;
  return opt;
}

// --------------------------------------------------------------- the run

class Bench {
 public:
  explicit Bench(const Options& o) : opt_(o), codec_(o.seed) {
    if (o.workload == "mixed_zipf") {
      clients_ = 2;
      keys_ = o.keys != 0 ? o.keys : 200000;
      id_space_ = keys_;
    } else if (o.workload == "read_uniform") {
      clients_ = 4;
      keys_ = o.keys != 0 ? o.keys : 200000;
      id_space_ = keys_;
    } else {
      clients_ = 1;
      keys_ = o.keys != 0 ? o.keys : 100000;
      id_space_ = 2 * keys_;  // Even ids loaded; odd ids inserted.
    }
    db_path_ = opt_.dir + "/db";
  }

  ~Bench() { CloseDb(); }

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  int Run();

 private:
  bool scan_insert() const { return opt_.workload == "scan_insert"; }
  bool mixed() const { return opt_.workload == "mixed_zipf"; }

  void CloseDb() {
    delete db_;
    db_ = nullptr;
  }
  Status Setup(double* seconds);
  Status Load();
  Status LoadOverlap();
  void WaitQuiet();
  void Client(int index, Clock::time_point start, Clock::time_point deadline,
              ClientResult* out);
  bool VerifyAfterDrain(std::string* error);
  uint64_t DirBytes();
  std::string Property(const char* name);
  std::string ReadEventsSince(uint64_t offset);
  uint64_t EventsSize();

  const Options opt_;
  const ValueCodec codec_;
  int clients_ = 1;
  uint64_t keys_ = 0;
  uint64_t id_space_ = 0;
  std::string db_path_;
  std::unique_ptr<TraceEnv> env_;
  DB* db_ = nullptr;
  std::unique_ptr<VersionModel> versions_;
  std::vector<uint8_t> present_;  // scan_insert: ids in the store.
  std::unique_ptr<Zipf> zipf_;
  uint64_t user_bytes_ = 0;       // Key + value bytes loaded.
  std::vector<uint64_t> user_bytes_phase_;  // Per client, acked in phase.
};

Status Bench::Load() {
  // All keys, in a seeded random order, in batches.
  std::vector<uint64_t> ids;
  ids.reserve(keys_);
  for (uint64_t i = 0; i < keys_; i++) ids.push_back(scan_insert() ? 2 * i : i);
  Rng rng(opt_.seed ^ 0x10AD);
  for (uint64_t i = ids.size(); i > 1; i--) {
    std::swap(ids[i - 1], ids[rng.Uniform(i)]);
  }
  unikv::WriteBatch batch;
  char key[kKeySize];
  char value[kValueSize];
  for (size_t i = 0; i < ids.size(); i++) {
    FormatKey(ids[i], key);
    codec_.Make(ids[i], 1, value);
    batch.Put(Slice(key, kKeySize), Slice(value, kValueSize));
    if (batch.Count() == kLoadBatch || i + 1 == ids.size()) {
      Status s = db_->Write(WriteOptions(), &batch);
      if (!s.ok()) return s;
      batch.Clear();
    }
  }
  user_bytes_ = keys_ * (kKeySize + kValueSize);
  return Status::OK();
}

Status Bench::Setup(double* seconds) {
  CloseDb();
  env_.reset();
  unikv::Env* base = unikv::Env::Default();
  Status s = unikv::RemoveDirRecursively(base, db_path_);
  if (!s.ok()) return s;
  const Clock::time_point t0 = Clock::now();
  env_ = std::make_unique<TraceEnv>(base, opt_.corrupt_vlog_every);
  s = DB::Open(EngineOptions(env_.get()), db_path_, &db_);
  if (!s.ok()) return s;
  versions_ = std::make_unique<VersionModel>(id_space_);
  present_.assign(id_space_, 0);
  for (uint64_t i = 0; i < keys_; i++) {
    const uint64_t id = scan_insert() ? 2 * i : i;
    versions_->acked[id].store(1, std::memory_order_relaxed);
    versions_->issued[id].store(1, std::memory_order_relaxed);
    present_[id] = 1;
  }
  zipf_ = std::make_unique<Zipf>(id_space_, kZipfTheta);
  s = Load();
  if (s.ok()) s = db_->CompactAll();
  if (s.ok() && scan_insert()) s = LoadOverlap();
  *seconds = Seconds(t0, Clock::now());
  return s;
}

Status Bench::LoadOverlap() {
  // Leaves overlapping UnsortedStore tables in every partition for the
  // scans to meet: a few memtables of uniformly drawn odd ids, flushed,
  // below both the merge and the scan-merge triggers.
  Rng rng(opt_.seed ^ 0x0DD5);
  unikv::WriteBatch batch;
  char key[kKeySize];
  char value[kValueSize];
  const uint64_t n = keys_ / 12;
  for (uint64_t i = 0; i < n; i++) {
    uint64_t id;
    do {
      id = 2 * rng.Uniform(keys_) + 1;
    } while (present_[id] != 0);
    present_[id] = 1;
    versions_->acked[id].store(1, std::memory_order_relaxed);
    versions_->issued[id].store(1, std::memory_order_relaxed);
    FormatKey(id, key);
    codec_.Make(id, 1, value);
    batch.Put(Slice(key, kKeySize), Slice(value, kValueSize));
    if (batch.Count() == kLoadBatch || i + 1 == n) {
      Status s = db_->Write(WriteOptions(), &batch);
      if (!s.ok()) return s;
      batch.Clear();
    }
  }
  user_bytes_ += n * (kKeySize + kValueSize);
  Status s = db_->FlushMemTable();
  if (s.ok()) WaitQuiet();
  return s;
}

void Bench::WaitQuiet() {
  // A flush can push a partition over its merge or split trigger. Start
  // the phase only once the EVENTS log, where every background job ends
  // with a line, has been still for a while.
  constexpr int kPollMs = 50;
  constexpr int kQuietPolls = 6;
  uint64_t last = EventsSize();
  for (int quiet = 0, polls = 0; quiet < kQuietPolls && polls < 200; polls++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
    const uint64_t now = EventsSize();
    quiet = now == last ? quiet + 1 : 0;
    last = now;
  }
}

void Bench::Client(int index, Clock::time_point start,
                   Clock::time_point deadline, ClientResult* out) {
  ClientTrace& ct = out->trace;
  SetClientTrace(&ct);
  Rng rng(opt_.seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(index) + 1);
  VersionModel& vm = *versions_;

  char key[kKeySize];
  char value[kValueSize];
  std::string got;
  std::vector<std::string> mget_keys(kMultiGetBatch, std::string(kKeySize, 0));
  std::vector<uint64_t> mget_ids(kMultiGetBatch);
  std::vector<Slice> mget_slices(kMultiGetBatch);
  std::vector<std::string> mget_values;
  std::vector<Status> mget_status;
  std::vector<std::pair<std::string, std::string>> rows;
  uint32_t mget_lo[kMultiGetBatch];
  uint64_t step = 0;

  auto fail = [&](const std::string& what) {
    if (out->first_error.empty()) out->first_error = what;
  };

  for (;;) {
    // ---- Draw the op and its inputs outside the timed window.
    OpKind op;
    uint64_t id = 0;
    int scan_len = 0;
    uint32_t put_version = 0;
    if (mixed()) {
      op = rng.Uniform(2) == 0 ? kOpGet : kOpPut;
      id = zipf_->Next(&rng);
      if (op == kOpPut) {
        // Clients update only the keys they own: id mod clients == index.
        id = id - id % clients_ + static_cast<uint64_t>(index);
        if (id >= id_space_) id -= clients_;
      }
    } else if (scan_insert()) {
      op = kOpScan;
      // 5% inserts, in bursts of kInsertBurst back-to-back Puts. A lone Put
      // after a run of scans finds the write path cold, and its latency
      // then tracks the host's load more than the engine's work.
      if (step++ % kInsertCycle < kInsertBurst) {
        // Insert an odd id never written (a few draws; scan if all taken).
        for (int tries = 0; tries < 64 && op == kOpScan; tries++) {
          id = 2 * rng.Uniform(keys_) + 1;
          if (present_[id] == 0) op = kOpPut;
        }
      }
      if (op == kOpScan) {
        id = zipf_->Next(&rng);
        scan_len = 1 + static_cast<int>(rng.Uniform(kMaxScanLength));
      }
    } else {
      op = (step++ % (kGetsPerMultiGet + 1) == kGetsPerMultiGet) ? kOpMultiGet
                                                                 : kOpGet;
      id = rng.Uniform(keys_);
    }
    FormatKey(id, key);
    if (op == kOpPut) {
      put_version = vm.issued[id].load(std::memory_order_relaxed) + 1;
      codec_.Make(id, put_version, value);
      vm.issued[id].store(put_version, std::memory_order_release);
    } else if (op == kOpMultiGet) {
      for (int i = 0; i < kMultiGetBatch; i++) {
        mget_ids[i] = i == 0 ? id : rng.Uniform(keys_);
        FormatKey(mget_ids[i], mget_keys[i].data());
        mget_slices[i] = Slice(mget_keys[i]);
        mget_lo[i] = vm.acked[mget_ids[i]].load(std::memory_order_acquire);
      }
    }
    const uint32_t lo =
        op == kOpGet ? vm.acked[id].load(std::memory_order_acquire) : 0;

    OpStats& st = out->ops[op];
    const Clock::time_point due = Clock::now();
    if (due >= deadline) {
      if (op == kOpPut) vm.issued[id].store(put_version - 1);
      break;
    }
    // The op's one-second interval and trace slice, by when it starts.
    const size_t interval = ElapsedNs(start, due) / kIntervalNs;
    if (st.per_second.size() <= interval) st.per_second.resize(interval + 1);
    if (out->interval_keys.size() <= interval) {
      out->interval_keys.resize(interval + 1, 0);
    }
    const int parity =
        opt_.trace ? static_cast<int>((ElapsedNs(start, due) / kTraceSliceNs) % 2)
                   : 0;
    const bool traced = parity == 1;
    PerfContext before;
    if (traced) {
      before = *unikv::GetPerfContext();
      ct.op = kOpAttrib[op];
      ct.op_env_ns = 0;
      ct.op_wal_ns = 0;
      ct.traced = true;
    }
    const Clock::time_point t0 = Clock::now();

    // ---- The timed call.
    Status s;
    switch (op) {
      case kOpGet:
        s = db_->Get(ReadOptions(), Slice(key, kKeySize), &got);
        break;
      case kOpMultiGet:
        s = db_->MultiGet(ReadOptions(), mget_slices, &mget_values,
                          &mget_status);
        break;
      case kOpPut:
        s = db_->Put(WriteOptions(), Slice(key, kKeySize),
                     Slice(value, kValueSize));
        break;
      case kOpScan:
        s = db_->Scan(ReadOptions(), Slice(key, kKeySize), scan_len, &rows);
        break;
      default:
        break;
    }
    const Clock::time_point t1 = Clock::now();
    const uint64_t ns = ElapsedNs(t0, t1);

    if (traced) {
      ct.traced = false;
      ct.op = kBackground;
      const PerfContext d = unikv::GetPerfContext()->DeltaSince(before);
      st.perf.Add(d);
      st.traced_calls++;
      // Covered time: child Env spans, plus, for writes, the engine's own
      // WAL/memtable/stall timers (the WAL timer already holds the WAL
      // file spans, so those are not counted twice).
      int64_t covered = static_cast<int64_t>(ct.op_env_ns);
      if (op == kOpPut) {
        covered -= static_cast<int64_t>(ct.op_wal_ns);
        covered += static_cast<int64_t>(
            (d.write_wal_micros + d.write_memtable_micros +
             d.write_stall_micros) * 1000);
      }
      st.unattributed_ns += static_cast<int64_t>(ns) - covered;
    }
    st.calls++;
    st.total_ns += ns;
    st.latency.Add(ns);
    st.per_second[interval].Add(ns);

    // ---- Check the result outside the timed window.
    bool ok = true;
    uint64_t acked_keys = 1;
    switch (op) {
      case kOpGet: {
        const uint32_t hi = vm.issued[id].load(std::memory_order_acquire);
        if (!s.ok()) {
          fail("get " + std::to_string(id) + ": " + s.ToString());
          ok = false;
        } else if (!codec_.Check(id, got, lo, hi)) {
          fail("get " + std::to_string(id) + ": wrong value");
          ok = false;
        }
        break;
      }
      case kOpMultiGet: {
        acked_keys = 0;
        bool all = s.ok() && mget_values.size() == kMultiGetBatch &&
                   mget_status.size() == kMultiGetBatch;
        for (int i = 0; all && i < kMultiGetBatch; i++) {
          const uint32_t hi =
              vm.issued[mget_ids[i]].load(std::memory_order_acquire);
          if (mget_status[i].ok() &&
              codec_.Check(mget_ids[i], mget_values[i], mget_lo[i], hi)) {
            acked_keys++;
          } else {
            all = false;
            fail("mget " + std::to_string(mget_ids[i]) + ": " +
                 (mget_status[i].ok() ? std::string("wrong value")
                                      : mget_status[i].ToString()));
          }
        }
        if (!s.ok()) fail("mget: " + s.ToString());
        ok = all;
        break;
      }
      case kOpPut:
        if (!s.ok()) {
          fail("put " + std::to_string(id) + ": " + s.ToString());
          ok = false;
        } else {
          vm.acked[id].store(put_version, std::memory_order_release);
          if (scan_insert()) present_[id] = 1;
          user_bytes_phase_[index] += kKeySize + kValueSize;
        }
        break;
      case kOpScan: {
        if (!s.ok()) {
          fail("scan: " + s.ToString());
          ok = false;
          break;
        }
        // The next scan_len ids present in the model, from the start id:
        // strictly ascending, no gap, the full count unless the key space
        // ends first.
        uint64_t next = id;
        for (const auto& row : rows) {
          while (next < id_space_ && present_[next] == 0) next++;
          uint64_t got_id = 0;
          if (next >= id_space_ || !ParseKey(Slice(row.first), &got_id) ||
              got_id != next ||
              !codec_.Check(got_id, Slice(row.second), 1, 1)) {
            ok = false;
            break;
          }
          next++;
        }
        if (ok && static_cast<int>(rows.size()) < scan_len) {
          while (next < id_space_ && present_[next] == 0) next++;
          ok = next >= id_space_;
        }
        if (!ok) fail("scan from " + std::to_string(id) + ": wrong rows");
        st.entries += rows.size();
        break;
      }
      default:
        break;
    }
    if (ok) {
      st.ok_keys += acked_keys;
      out->slice_ops[parity] += acked_keys;
      out->interval_keys[interval] += acked_keys;
    } else {
      st.failed++;
    }
  }
  SetClientTrace(nullptr);
}

bool Bench::VerifyAfterDrain(std::string* error) {
  // Every key of a seeded sample must read back at its last acked version
  // once the background work has settled.
  Rng rng(opt_.seed ^ 0xD7A1);
  std::string got;
  char key[kKeySize];
  for (int i = 0; i < 4096; i++) {
    const uint64_t id = rng.Uniform(id_space_);
    FormatKey(id, key);
    Status s = db_->Get(ReadOptions(), Slice(key, kKeySize), &got);
    if (present_[id] == 0) {
      if (!s.IsNotFound()) {
        *error = "absent id " + std::to_string(id) + " found after drain";
        return false;
      }
      continue;
    }
    const uint32_t lo = versions_->acked[id].load();
    const uint32_t hi = versions_->issued[id].load();
    if (!s.ok() || !codec_.Check(id, got, lo, hi)) {
      *error = "id " + std::to_string(id) + " wrong after drain: " +
               s.ToString();
      return false;
    }
  }
  return true;
}

uint64_t Bench::DirBytes() {
  unikv::Env* env = unikv::Env::Default();
  std::vector<std::string> children;
  if (!env->GetChildren(db_path_, &children).ok()) return 0;
  uint64_t total = 0;
  for (const std::string& c : children) {
    uint64_t size = 0;
    if (c != "." && c != ".." && env->GetFileSize(db_path_ + "/" + c, &size).ok()) {
      total += size;
    }
  }
  return total;
}

std::string Bench::Property(const char* name) {
  std::string v;
  if (!db_->GetProperty(name, &v)) return "";
  return v;
}

uint64_t Bench::EventsSize() {
  uint64_t size = 0;
  if (!unikv::Env::Default()->GetFileSize(db_path_ + "/EVENTS", &size).ok()) {
    return 0;
  }
  return size;
}

std::string Bench::ReadEventsSince(uint64_t offset) {
  std::string out;
  FILE* f = std::fopen((db_path_ + "/EVENTS").c_str(), "rb");
  if (f == nullptr) return out;
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0) {
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  }
  std::fclose(f);
  return out;
}

// ------------------------------------------------------------ JSON output

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Num(uint64_t v) { return std::to_string(v); }

std::string SpansJson(const SpanTable& t, int attrib) {
  static const char* const kCalls[kNumCallKinds] = {
      "open", "read", "zero_copy", "append", "flush", "sync", "rename",
      "remove"};
  std::string out = "{";
  bool first_file = true;
  for (int f = 0; f < kNumFileKinds; f++) {
    std::string calls;
    for (int c = 0; c < kNumCallKinds; c++) {
      const CallTotals& x = t.at(attrib, f, c);
      if (x.count == 0) continue;
      if (!calls.empty()) calls += ",";
      calls += std::string("\"") + kCalls[c] + "\":[" + Num(x.count) + "," +
               Num(x.bytes) + "," + Num(x.ns) + "]";
    }
    if (calls.empty()) continue;
    if (!first_file) out += ",";
    first_file = false;
    out += std::string("\"") + FileKindName(f) + "\":{" + calls + "}";
  }
  return out + "}";
}

SpanTable Minus(const SpanTable& a, const SpanTable& b) {
  SpanTable out = a;
  for (int x = 0; x < kNumAttribs; x++) {
    for (int f = 0; f < kNumFileKinds; f++) {
      for (int c = 0; c < kNumCallKinds; c++) {
        out.at(x, f, c).count -= b.at(x, f, c).count;
        out.at(x, f, c).bytes -= b.at(x, f, c).bytes;
        out.at(x, f, c).ns -= b.at(x, f, c).ns;
      }
    }
  }
  return out;
}

std::string BytesByKindJson(const std::array<uint64_t, kNumFileKinds>& b) {
  std::string out = "{";
  for (int f = 0; f < kNumFileKinds; f++) {
    if (f > 0) out += ",";
    out += std::string("\"") + FileKindName(f) + "\":" + Num(b[f]);
  }
  return out + "}";
}

const double kQuantiles[] = {0.50, 0.90, 0.95, 0.99, 0.999};

std::string PercentilesJson(const LatencyHistogram& h) {
  std::string out;
  for (double q : kQuantiles) {
    if (!out.empty()) out += ",";
    out += Num(h.Percentile(q));
  }
  return out;
}

int Bench::Run() {
  // ---- Set-up, repeated; the last store is the one measured.
  std::vector<double> setup_s;
  for (int i = 0; i < std::max(1, opt_.setups); i++) {
    double secs = 0;
    Status s = Setup(&secs);
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      return 1;
    }
    setup_s.push_back(secs);
  }
  // Let the kernel write back the set-up's dirty pages now rather than
  // during the timed phase.
  ::sync();
  const uint64_t user_bytes_setup = user_bytes_;
  const std::string stats_before = Property("db.stats");
  const std::string metrics_before = Property("db.metrics.json");
  const uint64_t events_offset = EventsSize();
  user_bytes_phase_.assign(clients_, 0);

  // ---- The timed phase.
  std::vector<ClientResult> results(clients_);
  if (opt_.trace) env_->SetBackgroundTracing(true);
  const SpanTable bg_before = env_->BackgroundSpans();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::nanoseconds(static_cast<int64_t>(opt_.seconds * 1e9));
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < clients_; i++) {
      threads.emplace_back(
          [this, i, start, deadline, &results] {
            Client(i, start, deadline, &results[i]);
          });
    }
    for (std::thread& t : threads) t.join();
  }
  const Clock::time_point end = Clock::now();
  const SpanTable bg_phase = Minus(env_->BackgroundSpans(), bg_before);
  const std::string stats_phase = Property("db.stats");
  const std::string metrics_phase = Property("db.metrics.json");
  const std::string index_bytes = Property("db.hash-index-bytes");

  // ---- Drain the background debt the phase left.
  const Clock::time_point drain_start = Clock::now();
  Status drain = db_->CompactAll();
  const Clock::time_point drain_end = Clock::now();
  const SpanTable bg_total = Minus(env_->BackgroundSpans(), bg_before);
  env_->SetBackgroundTracing(false);
  if (!drain.ok()) {
    std::fprintf(stderr, "drain failed: %s\n", drain.ToString().c_str());
    return 1;
  }
  std::string verify_error;
  const bool verified = VerifyAfterDrain(&verify_error);
  const uint64_t dir_bytes = DirBytes();
  const std::string events = ReadEventsSince(events_offset);

  uint64_t live = 0;
  for (uint8_t p : present_) live += p;
  uint64_t user_bytes_phase = 0;
  for (uint64_t b : user_bytes_phase_) user_bytes_phase += b;

  // ---- Raw report: one JSON object on the last line.
  std::string j = "{";
  j += "\"workload\":" + JsonString(opt_.workload);
  j += ",\"seed\":" + Num(opt_.seed);
  j += ",\"clients\":" + Num(static_cast<uint64_t>(clients_));
  j += ",\"keys\":" + Num(keys_);
  j += ",\"trace\":" + std::string(opt_.trace ? "true" : "false");
  j += ",\"build\":{\"type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
       ",\"compiler\":" + JsonString(PERFBENCH_COMPILER) + ",\"ndebug\":" +
#ifdef NDEBUG
       "true"
#else
       "false"
#endif
       + ",\"sanitized\":" +
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
       "true"
#else
       "false"
#endif
       + "}";
  j += ",\"setup_s\":[";
  for (size_t i = 0; i < setup_s.size(); i++) {
    j += (i > 0 ? "," : "") + Num(setup_s[i]);
  }
  j += "]";
  j += ",\"phase_s\":" + Num(Seconds(start, end));
  j += ",\"drain_s\":" + Num(Seconds(drain_start, drain_end));

  const size_t full_intervals = ElapsedNs(start, end) / kIntervalNs;
  std::vector<uint64_t> interval_keys(full_intervals, 0);
  for (ClientResult& r : results) {
    for (size_t k = 0; k < full_intervals && k < r.interval_keys.size(); k++) {
      interval_keys[k] += r.interval_keys[k];
    }
  }
  j += ",\"interval_keys\":[";
  for (size_t k = 0; k < full_intervals; k++) {
    j += (k > 0 ? "," : "") + Num(interval_keys[k]);
  }
  j += "]";

  uint64_t attempted = 0, failed = 0;
  std::string first_error;
  j += ",\"ops\":{";
  bool first = true;
  for (int op = 0; op < kNumOps; op++) {
    OpStats all;
    for (ClientResult& r : results) {
      OpStats& s = r.ops[op];
      all.calls += s.calls;
      all.ok_keys += s.ok_keys;
      all.failed += s.failed;
      all.entries += s.entries;
      all.total_ns += s.total_ns;
      all.traced_calls += s.traced_calls;
      all.unattributed_ns += s.unattributed_ns;
      all.perf.Add(s.perf);
      all.latency.Merge(s.latency);
    }
    if (all.calls == 0) continue;
    attempted += all.calls;
    failed += all.failed;
    // Percentiles of each full one-second interval, for medians that a
    // short burst of host noise cannot move.
    std::string intervals;
    for (size_t k = 0; k < full_intervals; k++) {
      LatencyHistogram in;
      for (ClientResult& r : results) {
        if (k < r.ops[op].per_second.size()) in.Merge(r.ops[op].per_second[k]);
      }
      intervals += std::string(k > 0 ? "," : "") + "[" + Num(in.count()) +
                   "," + PercentilesJson(in) + "]";
    }
    if (!first) j += ",";
    first = false;
    j += std::string("\"") + kOpNames[op] + "\":{";
    j += "\"calls\":" + Num(all.calls);
    j += ",\"ok_keys\":" + Num(all.ok_keys);
    j += ",\"failed\":" + Num(all.failed);
    j += ",\"entries\":" + Num(all.entries);
    j += ",\"mean_ns\":" + Num(static_cast<double>(all.total_ns) / all.calls);
    j += ",\"percentiles_ns\":[" + PercentilesJson(all.latency) + "]";
    j += ",\"intervals\":[" + intervals + "]";
    j += ",\"traced_calls\":" + Num(all.traced_calls);
    j += ",\"unattributed_ns\":" +
         std::to_string(static_cast<long long>(all.unattributed_ns));
    j += ",\"perf\":" + JsonString(all.perf.ToString(true));
    j += "}";
  }
  j += "}";
  for (ClientResult& r : results) {
    if (first_error.empty()) first_error = r.first_error;
  }
  if (!verified) {
    attempted++;
    failed++;
    if (first_error.empty()) first_error = verify_error;
  }
  j += ",\"attempted\":" + Num(attempted);
  j += ",\"failed\":" + Num(failed);
  j += ",\"first_error\":" + JsonString(first_error);
  j += ",\"corrupted_reads\":" + Num(env_->corrupted_reads());

  uint64_t slice_ops[2] = {0, 0};
  SpanTable client_spans;
  for (ClientResult& r : results) {
    slice_ops[0] += r.slice_ops[0];
    slice_ops[1] += r.slice_ops[1];
    client_spans.Add(r.trace.spans);
  }
  j += ",\"slice_ops\":[" + Num(slice_ops[0]) + "," + Num(slice_ops[1]) + "]";
  j += ",\"slice_ns\":" + Num(static_cast<uint64_t>(kTraceSliceNs));

  j += ",\"user_bytes_setup\":" + Num(user_bytes_setup);
  j += ",\"user_bytes_phase\":" + Num(user_bytes_phase);
  j += ",\"written_total\":" + BytesByKindJson(env_->BytesWritten());
  j += ",\"dir_bytes\":" + Num(dir_bytes);
  j += ",\"live_bytes\":" + Num(live * (kKeySize + kValueSize));
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  j += ",\"peak_rss_kb\":" + Num(static_cast<uint64_t>(ru.ru_maxrss));
  j += ",\"hash_index_bytes\":" + JsonString(index_bytes);
  j += ",\"stats\":{\"before\":" + JsonString(stats_before) +
       ",\"phase\":" + JsonString(stats_phase) + "}";
  if (opt_.trace) {
    j += ",\"spans\":{";
    for (int op = 0; op < kNumOps; op++) {
      j += std::string("\"") + kOpNames[op] + "\":" +
           SpansJson(client_spans, kOpAttrib[op]) + ",";
    }
    j += "\"bg_phase\":" + SpansJson(bg_phase, kBackground);
    j += ",\"bg_total\":" + SpansJson(bg_total, kBackground) + "}";
    j += ",\"metrics\":{\"before\":" + metrics_before +
         ",\"phase\":" + metrics_phase + "}";
    j += ",\"events\":" + JsonString(events);
  }
  j += "}";
  std::printf("%s\n", j.c_str());
  std::fflush(stdout);
  CloseDb();
  return 0;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      o->workload = v;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      o->trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--dir") {
      o->dir = v;
    } else if (flag == "--keys") {
      o->keys = std::strtoull(v, nullptr, 10);
    } else if (flag == "--setups") {
      o->setups = std::atoi(v);
    } else if (flag == "--corrupt-vlog-every") {
      o->corrupt_vlog_every = std::strtoull(v, nullptr, 10);
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !o->dir.empty() && o->seconds > 0 &&
         (o->workload == "mixed_zipf" || o->workload == "read_uniform" ||
          o->workload == "scan_insert");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload mixed_zipf|read_uniform|scan_insert "
                 "--seed N --seconds S --trace 0|1 --dir DIR [--keys N] "
                 "[--setups K] [--corrupt-vlog-every N]\n",
                 argv[0]);
    return 2;
  }
  perfbench::Bench bench(opt);
  return bench.Run();
}
