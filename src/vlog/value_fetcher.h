#ifndef UNIKV_VLOG_VALUE_FETCHER_H_
#define UNIKV_VLOG_VALUE_FETCHER_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/slice.h"
#include "util/status.h"
#include "vlog/value_log.h"

namespace unikv {

class ThreadPool;

/// Value-log reads for point lookups and scans: the one path Get, MultiGet
/// and Scan use to fetch separated values (DESIGN.md §11). One item is a
/// point read (ValueLogCache::Get: a pread into a private buffer, never
/// the log's mapping). Several items are sorted by (log, offset); pointers
/// into the same log whose records overlap or lie within kGapBytes of each
/// other share one span read (capped at kMaxSpanBytes). Each log is pinned
/// once and each span read zero-copy from the log's mapping when the Env
/// offers one, else pread into a grow-only scratch buffer. Every record is
/// checksum- and key-verified on its own, so a bad record — or a failed
/// span or log — fails only the slots it serves.
class ValueFetcher {
 public:
  /// Pointers within this many bytes of the current span join it (the gap
  /// bytes are read and discarded, or never touched when zero-copy).
  static constexpr uint64_t kGapBytes = 64 * 1024;
  /// Upper bound on the bytes one span read covers.
  static constexpr uint64_t kMaxSpanBytes = 1 << 20;
  /// Spans are fanned out over the pool only above this many.
  static constexpr size_t kMinSpansToFanOut = 8;

  /// One value to fetch. `key` (the user key the pointer was found under)
  /// must stay valid for the duration of Fetch; the record's value lands in
  /// *value and the outcome in *status.
  struct Item {
    ValuePointer ptr;
    Slice key;
    std::string* value = nullptr;
    Status* status = nullptr;
  };

  /// How the items coalesced, for callers that report it.
  struct Stats {
    size_t coalesced_spans = 0;  // Spans that served two or more items.
    uint64_t bytes_saved = 0;    // Record bytes those extra items would
                                 // have re-read as separate point reads.
  };

  /// `pool` may be null (every fetch runs on the calling thread).
  ValueFetcher(ValueLogCache* cache, ThreadPool* pool)
      : cache_(cache), pool_(pool) {}

  /// Fetches items[0..n), reordering them. A single item is a point read
  /// (no span, no mapping). With more than
  /// kMinSpansToFanOut spans and `max_tasks` > 1, the spans are split into
  /// at most min(max_tasks, pool size) contiguous chunks that run on the
  /// pool; otherwise all of them run on the calling thread. Each item needs
  /// its own output slots.
  Stats Fetch(Item* items, size_t n, int max_tasks);

 private:
  struct Span {
    size_t first = 0, last = 0;  // Item range [first, last).
    uint64_t log_number = 0;
    uint64_t begin = 0, end = 0;  // Byte range in the log.
  };

  void FetchSpans(const Item* items, const Span* spans, size_t n);

  ValueLogCache* const cache_;
  ThreadPool* const pool_;
};

}  // namespace unikv

#endif  // UNIKV_VLOG_VALUE_FETCHER_H_
