#include "vlog/value_fetcher.h"

#include <algorithm>
#include <memory>
#include <vector>

namespace unikv {

namespace {

// One read serving the consecutive sorted items [first, last).
struct Span {
  size_t first = 0, last = 0;
  uint64_t log_number = 0;
  uint64_t begin = 0, end = 0;  // Byte range in the log.
};

}  // namespace

ValueFetcher::Stats ValueFetcher::Fetch(Item* items, size_t n) {
  Stats stats;
  if (n == 1) {
    // A lone value is a point read. Reading it through the mapping would
    // fault its pages into the process, and ru_maxrss counts them.
    *items->status = cache_->Get(items->ptr, items->key, items->value);
    return stats;
  }
  std::sort(items, items + n, [](const Item& a, const Item& b) {
    if (a.ptr.log_number != b.ptr.log_number) {
      return a.ptr.log_number < b.ptr.log_number;
    }
    return a.ptr.offset < b.ptr.offset;
  });

  // Sorted items coalesce into spans of consecutive items. Ranges may
  // overlap (a batch can repeat a pointer), so a span grows to the max end
  // of its members rather than requiring disjoint ascending records.
  std::vector<Span> spans;
  for (size_t i = 0; i < n; i++) {
    const ValuePointer& ptr = items[i].ptr;
    const uint64_t end = ptr.offset + ptr.size;
    if (!spans.empty()) {
      Span& last = spans.back();
      if (last.log_number == ptr.log_number &&
          ptr.offset <= last.end + kGapBytes &&
          std::max(end, last.end) - last.begin <= kMaxSpanBytes) {
        last.last = i + 1;
        last.end = std::max(last.end, end);
        stats.bytes_saved += ptr.size;
        continue;
      }
    }
    spans.push_back(Span{i, i + 1, ptr.log_number, ptr.offset, end});
  }
  for (const Span& sp : spans) {
    if (sp.last - sp.first > 1) stats.coalesced_spans++;
  }

  // Spans are log-sorted, so each log is pinned once per call; a log
  // that fails to open fails every span it owns without being retried.
  std::shared_ptr<RandomAccessFile> file;
  uint64_t pinned_log = 0;
  Status pin_status;
  for (size_t si = 0; si < spans.size(); si++) {
    const Span& sp = spans[si];
    if (si == 0 || sp.log_number != pinned_log) {
      pinned_log = sp.log_number;
      pin_status = cache_->PinLog(sp.log_number, &file);
    }
    Status s = pin_status;
    Slice data;
    if (s.ok()) {
      s = cache_->GetSpanPinned(file.get(), sp.begin,
                                static_cast<size_t>(sp.end - sp.begin),
                                spans_ == Spans::kMapped, &data, &scratch_);
    }
    for (size_t i = sp.first; i < sp.last; i++) {
      const Item& item = items[i];
      Status rs = s;
      if (rs.ok()) {
        Slice value;
        rs = DecodeValueRecord(
            Slice(data.data() + (item.ptr.offset - sp.begin), item.ptr.size),
            item.key, &value);
        if (rs.ok()) item.value->assign(value.data(), value.size());
      }
      *item.status = rs;
    }
  }
  return stats;
}

}  // namespace unikv
