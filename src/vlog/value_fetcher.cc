#include "vlog/value_fetcher.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "util/thread_pool.h"

namespace unikv {

ValueFetcher::Stats ValueFetcher::Fetch(Item* items, size_t n,
                                        int max_tasks) {
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

  const int tasks =
      pool_ == nullptr ? 1 : std::min(max_tasks, pool_->num_threads());
  if (spans.size() <= kMinSpansToFanOut || tasks <= 1) {
    FetchSpans(items, spans.data(), spans.size());
    return stats;
  }
  // The pool is shared with other readers and background GC, so wait on
  // this call's own completion group, never on the whole pool.
  ThreadPool::TaskGroup group;
  const size_t chunk = (spans.size() + tasks - 1) / tasks;
  for (size_t begin = 0; begin < spans.size(); begin += chunk) {
    const size_t count = std::min(chunk, spans.size() - begin);
    pool_->Schedule(&group, [this, items, &spans, begin, count] {
      FetchSpans(items, spans.data() + begin, count);
    });
  }
  group.Wait();
  return stats;
}

void ValueFetcher::FetchSpans(const Item* items, const Span* spans,
                              size_t n) {
  // Spans arrive log-sorted, so each log is pinned once per call; a log
  // that fails to open fails every span it owns without being retried.
  std::shared_ptr<RandomAccessFile> file;
  uint64_t pinned_log = 0;
  Status pin_status;
  // Grow-only scratch for the pread fallback: a std::string would
  // zero-fill on every resize.
  std::unique_ptr<char[]> scratch;
  size_t scratch_cap = 0;
  for (size_t si = 0; si < n; si++) {
    const Span& sp = spans[si];
    if (si == 0 || sp.log_number != pinned_log) {
      pinned_log = sp.log_number;
      pin_status = cache_->PinLog(sp.log_number, &file);
    }
    Status s = pin_status;
    Slice data;
    if (s.ok()) {
      const size_t len = static_cast<size_t>(sp.end - sp.begin);
      if (len > scratch_cap) {
        scratch_cap = std::max(len, scratch_cap * 2);
        scratch.reset(new char[scratch_cap]);
      }
      s = cache_->GetSpanPinned(file.get(), sp.begin, len, &data,
                                scratch.get());
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
}

}  // namespace unikv
