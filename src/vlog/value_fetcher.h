#ifndef UNIKV_VLOG_VALUE_FETCHER_H_
#define UNIKV_VLOG_VALUE_FETCHER_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/slice.h"
#include "util/status.h"
#include "vlog/value_log.h"

namespace unikv {

/// Value-log reads: the one path Get, MultiGet, Scan and GC use to fetch
/// separated values (DESIGN.md §11), always on the calling thread. One
/// item is a point read (ValueLogCache::Get: a pread into a private
/// buffer, never the log's mapping). Several items are sorted by (log,
/// offset); pointers into the same log whose records overlap or lie within
/// kGapBytes of each other share one span read (capped at kMaxSpanBytes).
/// Each log is pinned once and each span read as its Spans mode says.
/// Every record is checksum- and key-verified on its own, so a bad record
/// — or a failed span or log — fails only the slots it serves.
class ValueFetcher {
 public:
  /// How span reads reach the log. kMapped reads zero-copy from the log's
  /// mapping when the Env offers one (foreground reads); kCopied always
  /// preads into a grow-only scratch buffer, so a caller that sweeps whole
  /// logs (GC) never faults their pages into the process, where ru_maxrss
  /// would count them.
  enum class Spans { kMapped, kCopied };

  /// Pointers within this many bytes of the current span join it (the gap
  /// bytes are read and discarded, or never touched when zero-copy).
  static constexpr uint64_t kGapBytes = 64 * 1024;
  /// Upper bound on the bytes one span read covers.
  static constexpr uint64_t kMaxSpanBytes = 1 << 20;

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

  ValueFetcher(ValueLogCache* cache, Spans spans)
      : cache_(cache), spans_(spans) {}

  /// Fetches items[0..n), reordering them. A single item is a point read
  /// (no span, no mapping). Each item needs its own output slots.
  Stats Fetch(Item* items, size_t n);

 private:
  ValueLogCache* const cache_;
  const Spans spans_;
};

}  // namespace unikv

#endif  // UNIKV_VLOG_VALUE_FETCHER_H_
