#ifndef UNIKV_UTIL_PERF_CONTEXT_H_
#define UNIKV_UTIL_PERF_CONTEXT_H_

#include <cstdint>
#include <string>

#include "util/env.h"

namespace unikv {

/// Per-thread, per-operation tracing counters (RocksDB-style PerfContext).
///
/// Every field is a plain uint64_t in thread-local storage: instrumentation
/// sites on the read/write hot paths do `GetPerfContext()->field++` with no
/// atomics and no locks. Counters accumulate across operations on the same
/// thread until Reset(); callers that want per-operation numbers snapshot
/// the struct before the operation and subtract (DeltaSince).
///
/// An operation's work, value fetches included, runs on its calling
/// thread, and a background job's on its worker, so each lands in that
/// thread's context. The engine-wide MetricsRegistry counters (see
/// util/metrics.h) cover every thread; PerfContext is for tracing what
/// the calling thread did.
struct PerfContext {
  // Operation counts.
  uint64_t gets = 0;
  uint64_t writes = 0;
  uint64_t scans = 0;
  uint64_t multigets = 0;        // MultiGet batches.
  uint64_t multiget_keys = 0;    // Keys across those batches.

  // Read-path breakdown.
  uint64_t memtable_hits = 0;
  uint64_t hash_index_lookups = 0;    // HashIndex::Lookup calls.
  uint64_t hash_index_probes = 0;     // Buckets + overflow entries examined.
  uint64_t hash_index_candidates = 0; // Candidate positions returned.
  uint64_t bloom_checks = 0;          // Filter consultations (filter present).
  uint64_t bloom_negatives = 0;       // Filter said "definitely absent".
  uint64_t bloom_false_positives = 0; // Filter passed but key absent.
  uint64_t unsorted_tables_probed = 0;// UnsortedStore tables Get() touched.
  uint64_t sorted_seeks = 0;          // SortedStore table seeks.
  uint64_t table_cache_hits = 0;
  uint64_t table_cache_misses = 0;    // Table reader opened from disk.
  uint64_t block_cache_hits = 0;
  uint64_t block_cache_misses = 0;
  uint64_t block_reads = 0;           // Data blocks read from disk.
  uint64_t vlog_reads = 0;            // Point fetches from value logs.
  uint64_t vlog_span_reads = 0;       // Coalesced span reads (scans).
  uint64_t vlog_read_bytes = 0;
  uint64_t vlog_mmap_reads = 0;       // Span reads served zero-copy (mmap).
  // MultiGet value-log coalescing: spans that served >= 2 pointers, and
  // the record bytes those merged members would have re-read as separate
  // point preads (both counted on the batch's calling thread).
  uint64_t multiget_coalesced_reads = 0;
  uint64_t multiget_io_bytes_saved = 0;

  // Timers (microseconds), accumulated via StopwatchGuard. Per-point-get
  // timing is sampled (1 in ~32 gets take the clock), so get_micros is an
  // estimate of ~1/32 of the true total; the other timers are exact.
  uint64_t get_micros = 0;
  uint64_t write_micros = 0;
  uint64_t write_wal_micros = 0;
  uint64_t write_memtable_micros = 0;
  uint64_t write_stall_micros = 0;
  uint64_t scan_micros = 0;
  uint64_t multiget_micros = 0;  // Exact (timed per batch, not sampled).

  // Generation counter: bumped by Reset() instead of being zeroed, so code
  // holding an older snapshot of this context can tell that a Reset()
  // happened in between and must not subtract across it. Not a tracing
  // field: excluded from ToString(), and DeltaSince() leaves it zero.
  uint64_t resets = 0;

  void Reset() {
    const uint64_t generation = resets + 1;
    *this = PerfContext();
    resets = generation;
  }

  /// Applies `fn(name, member_pointer)` to every tracing field (not
  /// `resets`), so code that walks the fields — delta, print, the
  /// engine's registry fold — cannot drift from the field list.
  template <typename Fn>
  static void ForEachField(Fn fn) {
    fn("gets", &PerfContext::gets);
    fn("writes", &PerfContext::writes);
    fn("scans", &PerfContext::scans);
    fn("multigets", &PerfContext::multigets);
    fn("multiget_keys", &PerfContext::multiget_keys);
    fn("memtable_hits", &PerfContext::memtable_hits);
    fn("hash_index_lookups", &PerfContext::hash_index_lookups);
    fn("hash_index_probes", &PerfContext::hash_index_probes);
    fn("hash_index_candidates", &PerfContext::hash_index_candidates);
    fn("bloom_checks", &PerfContext::bloom_checks);
    fn("bloom_negatives", &PerfContext::bloom_negatives);
    fn("bloom_false_positives", &PerfContext::bloom_false_positives);
    fn("unsorted_tables_probed", &PerfContext::unsorted_tables_probed);
    fn("sorted_seeks", &PerfContext::sorted_seeks);
    fn("table_cache_hits", &PerfContext::table_cache_hits);
    fn("table_cache_misses", &PerfContext::table_cache_misses);
    fn("block_cache_hits", &PerfContext::block_cache_hits);
    fn("block_cache_misses", &PerfContext::block_cache_misses);
    fn("block_reads", &PerfContext::block_reads);
    fn("vlog_reads", &PerfContext::vlog_reads);
    fn("vlog_span_reads", &PerfContext::vlog_span_reads);
    fn("vlog_read_bytes", &PerfContext::vlog_read_bytes);
    fn("vlog_mmap_reads", &PerfContext::vlog_mmap_reads);
    fn("multiget_coalesced_reads", &PerfContext::multiget_coalesced_reads);
    fn("multiget_io_bytes_saved", &PerfContext::multiget_io_bytes_saved);
    fn("get_micros", &PerfContext::get_micros);
    fn("write_micros", &PerfContext::write_micros);
    fn("write_wal_micros", &PerfContext::write_wal_micros);
    fn("write_memtable_micros", &PerfContext::write_memtable_micros);
    fn("write_stall_micros", &PerfContext::write_stall_micros);
    fn("scan_micros", &PerfContext::scan_micros);
    fn("multiget_micros", &PerfContext::multiget_micros);
  }

  /// Field-wise `*this - before`; both must come from the same thread's
  /// context (or copies of it).
  PerfContext DeltaSince(const PerfContext& before) const;

  /// Field-wise `*this += other` (tracing fields only; `resets` is left
  /// alone). For folding per-slice deltas into a phase total.
  void Add(const PerfContext& other);

  /// Space-separated `name=value` pairs; zero fields are skipped unless
  /// `include_zeros`.
  std::string ToString(bool include_zeros = false) const;
};

namespace internal {
extern constinit thread_local PerfContext tls_perf_context;
}  // namespace internal

/// The calling thread's context. Never null; valid for the thread's
/// lifetime. Header-inline on purpose: instrumentation sites sit on paths
/// where a sub-microsecond op may touch the context half a dozen times,
/// and an out-of-line call per touch is measurable; inline, each touch is
/// a thread-pointer-relative access.
inline PerfContext* GetPerfContext() { return &internal::tls_perf_context; }

/// Accumulates wall-clock time into *target while in scope. `env` supplies
/// the clock so tests can substitute; pass nullptr to use Env::Default().
class StopwatchGuard {
 public:
  StopwatchGuard(Env* env, uint64_t* target)
      : env_(env != nullptr ? env : Env::Default()),
        target_(target),
        start_(env_->NowMicros()) {}
  ~StopwatchGuard() { *target_ += ElapsedMicros(); }

  StopwatchGuard(const StopwatchGuard&) = delete;
  StopwatchGuard& operator=(const StopwatchGuard&) = delete;

  uint64_t ElapsedMicros() const { return env_->NowMicros() - start_; }

 private:
  Env* env_;
  uint64_t* target_;
  uint64_t start_;
};

}  // namespace unikv

#endif  // UNIKV_UTIL_PERF_CONTEXT_H_
