#include "core/anchor_view.h"

#include <cassert>
#include <memory>
#include <string>
#include <vector>

#include "core/table_cache.h"
#include "table/block.h"
#include "table/block_builder.h"
#include "table/format.h"
#include "table/table.h"
#include "util/coding.h"
#include "util/metrics.h"

namespace unikv {

namespace {

constexpr int kAnchorRestartInterval = 16;

struct Anchor {
  uint32_t ordinal = 0;
  uint64_t block_offset = 0;
  uint32_t restart_index = 0;
};

void EncodeAnchor(std::string* dst, const Anchor& a) {
  PutVarint32(dst, a.ordinal);
  PutVarint64(dst, a.block_offset);
  PutVarint32(dst, a.restart_index);
}

bool DecodeAnchor(Slice value, Anchor* a) {
  return GetVarint32(&value, &a->ordinal) &&
         GetVarint64(&value, &a->block_offset) &&
         GetVarint32(&value, &a->restart_index);
}

/// Walks one table block by block (via its index block), so every entry
/// comes with the file offset of its data block and a restart slot hint.
/// Only the entries whose user key lies in [lower, upper) are yielded (an
/// empty `upper` is no bound); the walk starts at the block holding
/// `lower`.
class TableSource {
 public:
  TableSource(TableCache* cache, const FileMeta& meta, uint32_t ordinal,
              int restart_interval, const Slice& lower, const Slice& upper)
      : ordinal_(ordinal),
        restart_interval_(restart_interval < 1 ? 1 : restart_interval),
        lower_(lower),
        upper_(upper) {
    const Table* table = nullptr;
    // The iterator is kept solely as the table-cache pin for `table`.
    pin_.reset(cache->NewIterator(meta.number, meta.size, &table,
                                  false /*fill_cache*/));
    if (table == nullptr) {
      status_ = pin_->status();
      if (status_.ok()) status_ = Status::Corruption("table open failed");
      return;
    }
    table_ = table;
    index_iter_.reset(table_->NewIndexIterator());
    if (lower_.empty()) {
      index_iter_->SeekToFirst();
    } else {
      std::string target;
      AppendInternalKey(&target, ParsedInternalKey(lower_, kMaxSequenceNumber,
                                                   kValueTypeForSeek));
      index_iter_->Seek(target);
    }
    InitDataBlock();
    // Counted steps, so restart hints stay exact; within one block.
    while (Valid() && ExtractUserKey(key()).compare(lower_) < 0) Next();
  }

  bool Valid() const {
    return status_.ok() && data_iter_ != nullptr && data_iter_->Valid() &&
           (upper_.empty() || ExtractUserKey(key()).compare(upper_) < 0);
  }

  void Next() {
    assert(Valid());
    data_iter_->Next();
    entry_index_++;
    while (data_iter_ != nullptr && !data_iter_->Valid() && status_.ok()) {
      if (!data_iter_->status().ok()) {
        status_ = data_iter_->status();
        return;
      }
      index_iter_->Next();
      InitDataBlock();
    }
  }

  Slice key() const { return data_iter_->key(); }

  Anchor anchor() const {
    Anchor a;
    a.ordinal = ordinal_;
    a.block_offset = block_offset_;
    a.restart_index =
        static_cast<uint32_t>(entry_index_ / restart_interval_);
    return a;
  }

  Status status() const {
    if (!status_.ok()) return status_;
    if (index_iter_ != nullptr && !index_iter_->status().ok()) {
      return index_iter_->status();
    }
    if (data_iter_ != nullptr && !data_iter_->status().ok()) {
      return data_iter_->status();
    }
    return Status::OK();
  }

 private:
  void InitDataBlock() {
    data_iter_.reset();
    entry_index_ = 0;
    while (index_iter_->Valid()) {
      BlockHandle handle;
      Slice input = index_iter_->value();
      Status s = handle.DecodeFrom(&input);
      if (!s.ok()) {
        status_ = s;
        return;
      }
      block_offset_ = handle.offset();
      data_iter_.reset(table_->NewBlockIterator(handle, false /*fill_cache*/));
      data_iter_->SeekToFirst();
      if (data_iter_->Valid()) return;
      if (!data_iter_->status().ok()) {
        status_ = data_iter_->status();
        return;
      }
      index_iter_->Next();  // Empty data block; keep walking.
    }
    data_iter_.reset();
  }

  const uint32_t ordinal_;
  const int restart_interval_;
  const Slice lower_, upper_;
  const Table* table_ = nullptr;
  std::unique_ptr<Iterator> pin_;
  std::unique_ptr<Iterator> index_iter_;
  std::unique_ptr<Iterator> data_iter_;
  uint64_t block_offset_ = 0;
  uint64_t entry_index_ = 0;
  Status status_;
};

/// K-way merge of the tables' streams into a finished view block. Ties
/// (identical internal keys, e.g. a recovery re-flush landing the same
/// record in two tables) keep the earliest source's entry and drop the
/// others — they are byte-identical copies of the same logical write, and
/// dropping them keeps every surviving entry's cursor alignable by key.
Status MergeSources(const InternalKeyComparator& icmp,
                    std::vector<std::unique_ptr<TableSource>>* sources,
                    AnchorView* out) {
  BlockBuilder builder(kAnchorRestartInterval);
  std::string payload;
  uint64_t entries = 0;

  for (;;) {
    int min_idx = -1;
    for (size_t i = 0; i < sources->size(); i++) {
      TableSource* s = (*sources)[i].get();
      if (!s->Valid()) continue;
      if (min_idx < 0 ||
          icmp.Compare(s->key(), (*sources)[min_idx]->key()) < 0) {
        min_idx = static_cast<int>(i);
      }
    }
    if (min_idx < 0) break;

    TableSource* min_src = (*sources)[min_idx].get();
    payload.clear();
    EncodeAnchor(&payload, min_src->anchor());
    builder.Add(min_src->key(), Slice(payload));
    entries++;

    // Advance duplicates before the winner (their keys compare against
    // the winner's still-valid slice).
    for (size_t i = 0; i < sources->size(); i++) {
      if (static_cast<int>(i) == min_idx) continue;
      TableSource* s = (*sources)[i].get();
      if (s->Valid() && icmp.Compare(s->key(), min_src->key()) == 0) {
        s->Next();
      }
    }
    min_src->Next();
  }

  for (const auto& s : *sources) {
    if (!s->status().ok()) return s->status();
  }

  Slice image = builder.Finish();
  auto owned = std::make_shared<const std::string>(image.data(), image.size());
  BlockContents contents;
  contents.data = Slice(owned->data(), owned->size());
  contents.cachable = false;
  contents.heap_allocated = false;
  out->image = owned;
  out->block = std::make_shared<Block>(contents);
  out->entry_count = entries;
  out->byte_size = owned->size();
  return Status::OK();
}

}  // namespace

bool AnchorView::Covers(const PartitionState& p) const {
  if (covered.size() != p.unsorted.size() || lower != p.lower_bound ||
      upper != p.upper_bound) {
    return false;
  }
  for (size_t i = 0; i < p.unsorted.size(); i++) {
    if (covered[i].number != p.unsorted[i].number) return false;
  }
  return true;
}

Status BuildAnchorView(const InternalKeyComparator& icmp, TableCache* cache,
                       const PartitionState& p, int restart_interval,
                       AnchorView* out) {
  *out = AnchorView();
  out->lower = p.lower_bound;
  out->upper = p.upper_bound;
  std::vector<std::unique_ptr<TableSource>> sources;
  for (size_t i = 0; i < p.unsorted.size(); i++) {
    const FileMeta& f = p.unsorted[i];
    out->covered.push_back({f.number, f.size});
    sources.push_back(std::make_unique<TableSource>(
        cache, f, static_cast<uint32_t>(i), restart_interval,
        Slice(out->lower), Slice(out->upper)));
  }
  return MergeSources(icmp, &sources, out);
}

// ---------------------------------------------------------------- iterator

namespace {

/// Internal-key iterator driven by the view block. key() always comes
/// straight from the view; value() resolves through the owning table's
/// cursor. Cursors open lazily (a scan over a narrow range touches only
/// the tables that contribute entries in it) and advance in lockstep with
/// the view; any cursor found misaligned is simply re-seeked to the
/// current view key, and a re-seek that still disagrees means the view
/// does not describe the table anymore — surfaced as Corruption.
class AnchorViewIterator : public Iterator {
 public:
  AnchorViewIterator(const InternalKeyComparator& icmp, AnchorViewPtr view,
                     TableCache* cache, bool fill_cache,
                     Counter* cursors_opened)
      : icmp_(icmp),
        view_(std::move(view)),
        cache_(cache),
        fill_cache_(fill_cache),
        cursors_opened_(cursors_opened),
        view_iter_(view_->block->NewIterator(icmp)),
        cursors_(view_->covered.size()) {}

  bool Valid() const override { return status_.ok() && view_iter_->Valid(); }

  void Seek(const Slice& target) override { view_iter_->Seek(target); }
  void SeekToFirst() override { view_iter_->SeekToFirst(); }
  void SeekToLast() override { view_iter_->SeekToLast(); }

  void Next() override {
    assert(Valid());
    StepAlignedCursor(+1);
    view_iter_->Next();
  }

  void Prev() override {
    assert(Valid());
    StepAlignedCursor(-1);
    view_iter_->Prev();
  }

  Slice key() const override {
    assert(Valid());
    return view_iter_->key();
  }

  Slice value() const override {
    assert(Valid());
    Iterator* cursor = AlignedCursor();
    if (cursor == nullptr) return Slice();
    return cursor->value();
  }

  Status status() const override {
    if (!status_.ok()) return status_;
    if (!view_iter_->status().ok()) return view_iter_->status();
    for (const auto& c : cursors_) {
      if (c.iter != nullptr && !c.iter->status().ok()) {
        return c.iter->status();
      }
    }
    return Status::OK();
  }

 private:
  struct Cursor {
    std::unique_ptr<Iterator> iter;
  };

  bool CurrentAnchor(Anchor* a) const {
    if (!DecodeAnchor(view_iter_->value(), a) ||
        a->ordinal >= cursors_.size()) {
      status_ = Status::Corruption("bad anchor payload");
      return false;
    }
    return true;
  }

  /// If the current entry's cursor is open and sitting exactly on the
  /// current view key, step it along with the view (the cheap lockstep
  /// path). A closed or misaligned cursor is left alone — value() will
  /// re-seek it if and when it is next needed.
  void StepAlignedCursor(int dir) {
    Anchor a;
    if (!CurrentAnchor(&a)) return;
    Iterator* iter = cursors_[a.ordinal].iter.get();
    if (iter == nullptr || !iter->Valid()) return;
    if (icmp_.Compare(iter->key(), view_iter_->key()) != 0) return;
    if (dir > 0) {
      iter->Next();
    } else {
      iter->Prev();
    }
  }

  /// Returns the current entry's cursor positioned exactly on the current
  /// view key, opening or re-seeking it as needed. nullptr (with status_
  /// set) when the table disagrees with the view.
  Iterator* AlignedCursor() const {
    Anchor a;
    if (!CurrentAnchor(&a)) return nullptr;
    Cursor& c = cursors_[a.ordinal];
    const Slice target = view_iter_->key();
    if (c.iter == nullptr) {
      const AnchorView::CoveredTable& t = view_->covered[a.ordinal];
      cursors_opened_->Inc();
      c.iter.reset(cache_->NewIterator(t.number, t.size, nullptr,
                                       fill_cache_));
      c.iter->Seek(target);
    } else if (!c.iter->Valid() ||
               icmp_.Compare(c.iter->key(), target) != 0) {
      c.iter->Seek(target);
    }
    if (!c.iter->Valid() || icmp_.Compare(c.iter->key(), target) != 0) {
      if (status_.ok()) {
        status_ = c.iter->status().ok()
                      ? Status::Corruption("anchor view out of sync")
                      : c.iter->status();
      }
      return nullptr;
    }
    return c.iter.get();
  }

  const InternalKeyComparator icmp_;
  const AnchorViewPtr view_;
  TableCache* const cache_;
  const bool fill_cache_;
  Counter* const cursors_opened_;
  const std::unique_ptr<Iterator> view_iter_;
  mutable std::vector<Cursor> cursors_;
  mutable Status status_;
};

}  // namespace

Iterator* NewAnchorViewIterator(const InternalKeyComparator& icmp,
                                AnchorViewPtr view, TableCache* cache,
                                bool fill_cache, Counter* cursors_opened) {
  return new AnchorViewIterator(icmp, std::move(view), cache, fill_cache,
                                cursors_opened);
}

}  // namespace unikv
