// The StatsSampler: a background thread (off by default, enabled with
// Options::stats_sample_interval_ms > 0) that periodically snapshots every
// counter series in the metrics registry under the DB mutex, keeps the
// snapshots in a bounded in-memory ring served by the `db.stats.history`
// property, and appends one `stats_sample` line per interval to the
// EVENTS log carrying both the interval deltas (d_*) and the cumulative
// values (cum_*) of every series — so the deltas across any run of lines
// telescope exactly to the cumulative counters, and a dropped line costs
// at most one interval of history.

#include <chrono>

#include "core/unikv_db.h"

namespace unikv {

namespace {

using Series = std::map<std::string, uint64_t>;

// Adds `prefix + name` for every series in `cur`: its value minus the
// same series in `base` (absent = 0), or the plain value without `base`.
void AddSeries(JsonBuilder* j, const char* prefix, const Series& cur,
               const Series* base) {
  for (const auto& [name, v] : cur) {
    uint64_t b = 0;
    if (base != nullptr) {
      auto it = base->find(name);
      if (it != base->end()) b = it->second;
    }
    j->AddUint(prefix + name, v - b);
  }
}

// [{"id":..,<prefix><series>:..},...] over the partitions of `cur`,
// delta'd against `base` when given. Partitions absent from `base`
// (created mid-interval) delta against zero.
std::string PartitionsJson(const CounterSnapshot& cur, const char* prefix,
                           const CounterSnapshot* base) {
  static const Series kNone;
  std::string out = "[";
  for (const auto& [pid, series] : cur.partitions) {
    const Series* b = nullptr;
    if (base != nullptr) {
      auto it = base->partitions.find(pid);
      b = it == base->partitions.end() ? &kNone : &it->second;
    }
    JsonBuilder one;
    one.AddUint("id", pid);
    AddSeries(&one, prefix, series, b);
    if (out.size() > 1) out += ',';
    out += one.Finish();
  }
  out += ']';
  return out;
}

}  // namespace

void UniKVDB::StatsSamplerThread() {
  const auto interval =
      std::chrono::milliseconds(options_.stats_sample_interval_ms);
  auto take = [this] {
    return Sample{env_->NowMicros(), metrics_.registry.SnapshotCounters()};
  };
  MutexLock lock(&mu_);
  // Baseline snapshot: the first logged interval reports deltas against
  // engine state at sampler start, not against zero.
  Sample prev = take();
  while (!shutting_down_) {
    // Deadline loop: spurious wakeups re-wait for the remainder of the
    // interval, and a shutdown signal ends the wait early.
    const auto deadline = std::chrono::steady_clock::now() + interval;
    while (!shutting_down_ && std::chrono::steady_clock::now() < deadline) {
      sampler_cv_.TimedWaitUntil(deadline);
    }
    if (shutting_down_) break;
    // Under mu_, so a sample never splits a background install's job and
    // byte counts.
    Sample cur = take();
    stats_history_.push_back(cur);
    while (stats_history_.size() > options_.stats_history_size) {
      stats_history_.pop_front();
    }
    // The event logger serializes on its own mutex; logging under mu_
    // matches every background-job event site.
    LogStatsSample(prev, cur);
    prev = std::move(cur);
  }
}

void UniKVDB::LogStatsSample(const Sample& prev, const Sample& cur) {
  const Series& c = cur.counters.engine;
  const Series& p = prev.counters.engine;
  auto delta = [&](const char* name) { return c.at(name) - p.at(name); };

  JsonBuilder ev;
  ev.AddUint("interval_micros", cur.ts_micros - prev.ts_micros);
  AddSeries(&ev, "d_", c, &p);
  AddSeries(&ev, "cum_", c, nullptr);

  const uint64_t d_hits = delta("block_cache_hits");
  const uint64_t d_misses = delta("block_cache_misses");
  ev.AddDouble("cache_hit_ratio",
               d_hits + d_misses == 0
                   ? 0.0
                   : static_cast<double>(d_hits) / (d_hits + d_misses));

  // Cause breakdown of the interval's stalls. The engine currently has a
  // single stall cause — writers waiting on the in-flight memtable flush
  // — so the breakdown has one entry; new causes get new keys here.
  JsonBuilder causes;
  causes.AddUint("memtable_wait", delta("write_stalls"));
  ev.AddRaw("stall_causes", causes.Finish());

  // Every per-partition series (heat, jobs, bytes) moved this interval.
  ev.AddRaw("partitions", PartitionsJson(cur.counters, "d_", &prev.counters));

  event_log_->Log("stats_sample", &ev);
}

std::string UniKVDB::StatsHistoryJsonLocked() const {
  std::string out = "[";
  for (const Sample& s : stats_history_) {
    JsonBuilder one;
    one.AddUint("ts_micros", s.ts_micros);
    AddSeries(&one, "", s.counters.engine, nullptr);
    one.AddRaw("partitions", PartitionsJson(s.counters, "", nullptr));
    if (out.size() > 1) out += ',';
    out += one.Finish();
  }
  out += ']';
  return out;
}

}  // namespace unikv
