#include "util/metrics.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace unikv {

// ---------------------------------------------------- ConcurrentHistogram

namespace {

// CAS helpers: atomic<double>::fetch_add is C++20-only and min/max RMWs
// do not exist at all, so all double accumulation goes through explicit
// compare-exchange loops. Relaxed ordering everywhere — the histograms
// are reporting-only, no cross-metric ordering is implied.
void AtomicAddDouble(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (!a->compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void AtomicMinDouble(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (cur > v &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (cur < v &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

ConcurrentHistogram::ConcurrentHistogram() : shards_(new Shard[kShards]) {
  Reset();
}

ConcurrentHistogram::Shard* ConcurrentHistogram::ShardForThisThread() const {
  // Round-robin shard assignment on first use, shared by every histogram
  // in the process: with kShards a power of two this spreads recording
  // threads evenly without per-histogram thread state.
  static std::atomic<unsigned> next_slot{0};
  thread_local unsigned slot =
      next_slot.fetch_add(1, std::memory_order_relaxed);
  return &shards_[slot % kShards];
}

void ConcurrentHistogram::Add(double value) {
  Shard* s = ShardForThisThread();
  s->buckets[Histogram::BucketIndex(value)].fetch_add(
      1, std::memory_order_relaxed);
  s->count.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&s->sum, value);
  AtomicAddDouble(&s->sum_squares, value * value);
  AtomicMinDouble(&s->min, value);
  AtomicMaxDouble(&s->max, value);
}

void ConcurrentHistogram::Merge(const Histogram& other) {
  if (other.num_ == 0) return;
  // Bulk merges are rare (one per bench phase / background fold); folding
  // everything into shard 0 keeps Add() contention-free.
  Shard* s = &shards_[0];
  for (int b = 0; b < Histogram::kNumBuckets; b++) {
    const uint64_t n = static_cast<uint64_t>(other.buckets_[b]);
    if (n != 0) s->buckets[b].fetch_add(n, std::memory_order_relaxed);
  }
  s->count.fetch_add(other.num_, std::memory_order_relaxed);
  AtomicAddDouble(&s->sum, other.sum_);
  AtomicAddDouble(&s->sum_squares, other.sum_squares_);
  AtomicMinDouble(&s->min, other.min_);
  AtomicMaxDouble(&s->max, other.max_);
}

Histogram ConcurrentHistogram::Snapshot() const {
  Histogram h;  // Clear()ed: min_ holds the empty sentinel.
  for (int si = 0; si < kShards; si++) {
    const Shard& s = shards_[si];
    for (int b = 0; b < Histogram::kNumBuckets; b++) {
      h.buckets_[b] += static_cast<double>(
          s.buckets[b].load(std::memory_order_relaxed));
    }
    h.num_ += s.count.load(std::memory_order_relaxed);
    h.sum_ += s.sum.load(std::memory_order_relaxed);
    h.sum_squares_ += s.sum_squares.load(std::memory_order_relaxed);
    const double mn = s.min.load(std::memory_order_relaxed);
    const double mx = s.max.load(std::memory_order_relaxed);
    if (mn < h.min_) h.min_ = mn;
    if (mx > h.max_) h.max_ = mx;
  }
  return h;
}

void ConcurrentHistogram::Reset() {
  const double kMinSentinel =
      Histogram::kBucketLimit[Histogram::kNumBuckets - 1];
  for (int si = 0; si < kShards; si++) {
    Shard& s = shards_[si];
    for (int b = 0; b < Histogram::kNumBuckets; b++) {
      s.buckets[b].store(0, std::memory_order_relaxed);
    }
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0.0, std::memory_order_relaxed);
    s.sum_squares.store(0.0, std::memory_order_relaxed);
    s.min.store(kMinSentinel, std::memory_order_relaxed);
    s.max.store(0.0, std::memory_order_relaxed);
  }
}

// ------------------------------------------------------------ JsonBuilder

void JsonBuilder::AppendEscaped(std::string* dst, const Slice& s) {
  dst->push_back('"');
  for (size_t i = 0; i < s.size(); i++) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    switch (c) {
      case '"':
        dst->append("\\\"");
        break;
      case '\\':
        dst->append("\\\\");
        break;
      case '\n':
        dst->append("\\n");
        break;
      case '\r':
        dst->append("\\r");
        break;
      case '\t':
        dst->append("\\t");
        break;
      default:
        if (c < 0x20 || c >= 0x7F) {
          // Escape control and non-ASCII bytes; user keys are arbitrary
          // binary and must not corrupt the JSON line.
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          dst->append(buf);
        } else {
          dst->push_back(static_cast<char>(c));
        }
    }
  }
  dst->push_back('"');
}

void JsonBuilder::Key(const Slice& key) {
  if (!first_) out_.push_back(',');
  first_ = false;
  AppendEscaped(&out_, key);
  out_.push_back(':');
}

void JsonBuilder::AddUint(const Slice& key, uint64_t v) {
  Key(key);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out_.append(buf);
}

void JsonBuilder::AddInt(const Slice& key, int64_t v) {
  Key(key);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out_.append(buf);
}

void JsonBuilder::AddDouble(const Slice& key, double v) {
  Key(key);
  if (!std::isfinite(v)) {
    out_.append("0");
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out_.append(buf);
}

void JsonBuilder::AddBool(const Slice& key, bool v) {
  Key(key);
  out_.append(v ? "true" : "false");
}

void JsonBuilder::AddString(const Slice& key, const Slice& v) {
  Key(key);
  AppendEscaped(&out_, v);
}

void JsonBuilder::AddRaw(const Slice& key, const Slice& raw) {
  Key(key);
  out_.append(raw.data(), raw.size());
}

std::string JsonBuilder::Finish() {
  out_.push_back('}');
  return std::move(out_);
}

// -------------------------------------------------------- MetricsRegistry

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     uint32_t partition) {
  MutexLock lock(&mu_);
  auto& slot = partition_counters_[partition][name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

ConcurrentHistogram* MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<ConcurrentHistogram>();
  return slot.get();
}

size_t MetricsRegistry::NumCounters() const {
  MutexLock lock(&mu_);
  return counters_.size();
}

CounterSnapshot MetricsRegistry::SnapshotCounters() const {
  MutexLock lock(&mu_);
  CounterSnapshot snap;
  for (const auto& [name, c] : counters_) snap.engine[name] = c->Value();
  for (const auto& [partition, series] : partition_counters_) {
    auto& out = snap.partitions[partition];
    for (const auto& [name, c] : series) out[name] = c->Value();
  }
  return snap;
}

std::string MetricsRegistry::ToString() const {
  MutexLock lock(&mu_);
  std::string out;
  char buf[256];
  for (const auto& [name, c] : counters_) {
    std::snprintf(buf, sizeof(buf), "%-28s %" PRIu64 "\n", name.c_str(),
                  c->Value());
    out += buf;
  }
  for (const auto& [name, g] : gauges_) {
    std::snprintf(buf, sizeof(buf), "%-28s %" PRId64 "\n", name.c_str(),
                  g->Value());
    out += buf;
  }
  for (const auto& [name, h] : histograms_) {
    Histogram snap = h->Snapshot();
    if (snap.Count() == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "%-28s count=%" PRIu64 " avg=%.1f p50=%.1f p95=%.1f"
                  " p99=%.1f p999=%.1f max=%.1f\n",
                  name.c_str(), snap.Count(), snap.Average(),
                  snap.Percentile(50), snap.Percentile(95),
                  snap.Percentile(99), snap.Percentile(99.9), snap.Max());
    out += buf;
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  MutexLock lock(&mu_);
  JsonBuilder counters;
  for (const auto& [name, c] : counters_) {
    counters.AddUint(name, c->Value());
  }
  JsonBuilder gauges;
  for (const auto& [name, g] : gauges_) {
    gauges.AddInt(name, g->Value());
  }
  JsonBuilder hists;
  for (const auto& [name, h] : histograms_) {
    Histogram snap = h->Snapshot();
    JsonBuilder one;
    one.AddUint("count", snap.Count());
    one.AddDouble("avg", snap.Average());
    one.AddDouble("p50", snap.Percentile(50));
    one.AddDouble("p95", snap.Percentile(95));
    one.AddDouble("p99", snap.Percentile(99));
    one.AddDouble("p999", snap.Percentile(99.9));
    one.AddDouble("min", snap.Count() > 0 ? snap.Min() : 0);
    one.AddDouble("max", snap.Count() > 0 ? snap.Max() : 0);
    hists.AddRaw(name, one.Finish());
  }
  JsonBuilder root;
  root.AddRaw("counters", counters.Finish());
  root.AddRaw("gauges", gauges.Finish());
  root.AddRaw("histograms", hists.Finish());
  return root.Finish();
}

}  // namespace unikv
