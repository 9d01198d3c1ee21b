#ifndef UNIKV_UTIL_METRICS_H_
#define UNIKV_UTIL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "util/histogram.h"
#include "util/slice.h"
#include "util/sync.h"

namespace unikv {

/// Monotonic event counter. The hot path is a single relaxed fetch_add:
/// no ordering is implied between counters, which is fine because they
/// are only ever read for reporting.
class Counter {
 public:
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Inc() { Add(1); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// An instantaneous value that can move both ways (e.g. live file count).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(int64_t n) { value_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Thread-safe, mergeable latency histogram for hot paths. Add() is a
/// few relaxed atomic RMWs on per-thread-sharded exponential buckets
/// (no mutex, recording threads land on different cache lines); the
/// cross-shard merge is lazy — deferred to Snapshot(), which folds every
/// shard into a plain Histogram for percentile queries. Snapshot() and
/// Reset() racing an in-flight Add() can miss that single sample; the
/// per-sample fields themselves are always internally consistent enough
/// for reporting (count/sum may disagree transiently by one sample).
class ConcurrentHistogram {
 public:
  ConcurrentHistogram();
  ConcurrentHistogram(const ConcurrentHistogram&) = delete;
  ConcurrentHistogram& operator=(const ConcurrentHistogram&) = delete;

  /// Lock-free; safe from any number of concurrent threads.
  void Add(double value);
  /// Folds a plain histogram (e.g. a driver-side per-phase histogram)
  /// into this one. Safe against concurrent Add/Snapshot.
  void Merge(const Histogram& other);
  /// Merges all shards into one Histogram.
  Histogram Snapshot() const;
  void Reset();

 private:
  static constexpr int kShards = 8;
  // One cache-line-aligned shard per recording-thread slot; threads are
  // assigned to shards round-robin on first use.
  struct alignas(64) Shard {
    std::atomic<uint64_t> buckets[Histogram::kNumBuckets] = {};
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> sum_squares{0.0};
    std::atomic<double> min{0.0};  // Reset() installs the real sentinel.
    std::atomic<double> max{0.0};
  };

  Shard* ShardForThisThread() const;

  std::unique_ptr<Shard[]> shards_;
};

/// Minimal one-object JSON emitter shared by `db.metrics.json` and the
/// EVENTS logger. Produces {"k":v,...}; nested objects/arrays are added
/// pre-rendered via AddRaw.
class JsonBuilder {
 public:
  JsonBuilder() : out_("{") {}

  void AddUint(const Slice& key, uint64_t v);
  void AddInt(const Slice& key, int64_t v);
  void AddDouble(const Slice& key, double v);
  void AddBool(const Slice& key, bool v);
  void AddString(const Slice& key, const Slice& v);
  /// Adds `raw` verbatim as the value (must itself be valid JSON).
  void AddRaw(const Slice& key, const Slice& raw);

  /// Closes the object and returns it. The builder is spent afterwards.
  std::string Finish();

  /// Appends `s` to *dst as a quoted JSON string with escaping.
  static void AppendEscaped(std::string* dst, const Slice& s);

 private:
  void Key(const Slice& key);

  std::string out_;
  bool first_ = true;
};

/// The value of every counter series at one instant: engine-wide series
/// by name, per-partition series by partition id, then name.
struct CounterSnapshot {
  std::map<std::string, uint64_t> engine;
  std::map<uint32_t, std::map<std::string, uint64_t>> partitions;
};

/// Named counters/gauges/histograms for one engine instance. Lookup by
/// name happens once at registration; returned pointers are stable for
/// the registry's lifetime, so hot paths hold raw pointers and never
/// touch the map again.
///
/// A counter series is either engine-wide (`GetCounter(name)`) or
/// belongs to one partition (`GetCounter(name, partition)`); the same
/// name may exist at both levels (e.g. `merges`).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Counter* GetCounter(const std::string& name, uint32_t partition);
  Gauge* GetGauge(const std::string& name);
  ConcurrentHistogram* GetHistogram(const std::string& name);

  /// Number of engine-wide counter series.
  size_t NumCounters() const;

  /// Every counter series, engine-wide and per-partition.
  CounterSnapshot SnapshotCounters() const;

  /// Human-readable dump of the engine-wide series, one per line.
  std::string ToString() const;
  /// {"counters":{...},"gauges":{...},"histograms":{...}} over the
  /// engine-wide series; per-partition series are rendered by the owner
  /// next to each partition's structure.
  std::string ToJson() const;

 private:
  // mu_ guards the name->metric maps only; the Counter/Gauge/Histogram
  // objects they own are internally synchronized (lock-free atomics) and
  // are handed out as raw pointers that outlive the lock.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<uint32_t, std::map<std::string, std::unique_ptr<Counter>>>
      partition_counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<ConcurrentHistogram>> histograms_
      GUARDED_BY(mu_);
};

}  // namespace unikv

#endif  // UNIKV_UTIL_METRICS_H_
