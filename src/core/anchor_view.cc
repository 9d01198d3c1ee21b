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

void AnchorView::Anchor::EncodeTo(std::string* dst) const {
  PutVarint32(dst, ordinal);
  block.EncodeTo(dst);
}

bool AnchorView::Anchor::DecodeFrom(Slice input) {
  return GetVarint32(&input, &ordinal) && block.DecodeFrom(&input).ok();
}

namespace {

constexpr int kAnchorRestartInterval = 16;

/// Walks one table block by block (via its index block), so every entry
/// comes with the handle of its data block. Only the entries whose user
/// key lies in [lower, upper) are yielded (an empty `upper` is no bound);
/// the walk starts at the block holding `lower`.
class TableSource {
 public:
  TableSource(const Table* table, uint32_t ordinal, const Slice& lower,
              const Slice& upper)
      : table_(table),
        ordinal_(ordinal),
        lower_(lower),
        upper_(upper),
        index_iter_(table->NewIndexIterator()) {
    if (lower_.empty()) {
      index_iter_->SeekToFirst();
    } else {
      std::string target;
      AppendInternalKey(&target, ParsedInternalKey(lower_, kMaxSequenceNumber,
                                                   kValueTypeForSeek));
      index_iter_->Seek(target);
    }
    InitDataBlock();
    // Within one block: the index entry sought names the block holding
    // the first key >= lower.
    while (Valid() && ExtractUserKey(key()).compare(lower_) < 0) Next();
  }

  bool Valid() const {
    return status_.ok() && data_iter_ != nullptr && data_iter_->Valid() &&
           (upper_.empty() || ExtractUserKey(key()).compare(upper_) < 0);
  }

  void Next() {
    assert(Valid());
    data_iter_->Next();
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

  AnchorView::Anchor anchor() const {
    AnchorView::Anchor a;
    a.ordinal = ordinal_;
    a.block = block_;
    return a;
  }

  Status status() const {
    if (!status_.ok()) return status_;
    if (!index_iter_->status().ok()) return index_iter_->status();
    if (data_iter_ != nullptr && !data_iter_->status().ok()) {
      return data_iter_->status();
    }
    return Status::OK();
  }

 private:
  void InitDataBlock() {
    data_iter_.reset();
    while (index_iter_->Valid()) {
      Slice input = index_iter_->value();
      Status s = block_.DecodeFrom(&input);
      if (!s.ok()) {
        status_ = s;
        return;
      }
      data_iter_.reset(table_->NewBlockIterator(block_, false /*fill_cache*/));
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

  const Table* const table_;
  const uint32_t ordinal_;
  const Slice lower_, upper_;
  const std::unique_ptr<Iterator> index_iter_;
  std::unique_ptr<Iterator> data_iter_;
  BlockHandle block_;
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
    min_src->anchor().EncodeTo(&payload);
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
                       const PartitionState& p, AnchorView* out) {
  *out = AnchorView();
  out->lower = p.lower_bound;
  out->upper = p.upper_bound;
  out->covered.resize(p.unsorted.size());
  std::vector<std::unique_ptr<TableSource>> sources;
  for (size_t i = 0; i < p.unsorted.size(); i++) {
    const FileMeta& f = p.unsorted[i];
    AnchorView::CoveredTable& t = out->covered[i];
    t.number = f.number;
    Status s = cache->Pin(f.number, f.size, &t.table);
    if (!s.ok()) return s;
    sources.push_back(std::make_unique<TableSource>(
        t.table.table(), static_cast<uint32_t>(i), Slice(out->lower),
        Slice(out->upper)));
  }
  return MergeSources(icmp, &sources, out);
}

// ---------------------------------------------------------------- iterator

namespace {

/// Internal-key iterator driven by the view block. key() always comes
/// straight from the view; value() resolves through the owning table's
/// cursor, a data-block iterator over the block the anchor names. A
/// cursor opens at its table's first value read and moves only when
/// value() needs it, so stepping the view costs nothing in the tables,
/// and a scan reads only the blocks its values live in.
class AnchorViewIterator : public Iterator {
 public:
  AnchorViewIterator(const InternalKeyComparator& icmp, AnchorViewPtr view,
                     bool fill_cache, Counter* cursors_opened)
      : icmp_(icmp),
        view_(std::move(view)),
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
    view_iter_->Next();
  }

  void Prev() override {
    assert(Valid());
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
    return view_iter_->status();
  }

 private:
  /// A forward scan leaves a table's cursor on the entry before the next
  /// one the view names from that table, or a few entries before it when
  /// the build dropped duplicates; farther than this, a Seek is cheaper.
  static constexpr int kMaxCursorSteps = 4;

  struct Cursor {
    std::unique_ptr<Iterator> iter;  // Over the data block at block_offset.
    uint64_t block_offset = 0;
  };

  /// Returns the current entry's cursor positioned exactly on the current
  /// view key, opening it on the anchor's block or moving it as needed.
  /// nullptr (with status_ set) when the table disagrees with the view.
  Iterator* AlignedCursor() const {
    AnchorView::Anchor a;
    if (!a.DecodeFrom(view_iter_->value()) || a.ordinal >= cursors_.size()) {
      status_ = Status::Corruption("bad anchor payload");
      return nullptr;
    }
    Cursor& c = cursors_[a.ordinal];
    if (c.iter == nullptr || c.block_offset != a.block.offset()) {
      if (c.iter == nullptr) cursors_opened_->Inc();
      c.iter.reset(view_->covered[a.ordinal].table.table()->NewBlockIterator(
          a.block, fill_cache_));
      c.block_offset = a.block.offset();
    }
    Iterator* iter = c.iter.get();
    const Slice target = view_iter_->key();
    auto compare = [&] {
      return iter->Valid() ? icmp_.Compare(iter->key(), target) : 1;
    };
    int cmp = compare();
    for (int step = 0; cmp < 0 && step < kMaxCursorSteps; step++) {
      iter->Next();
      cmp = compare();
    }
    if (cmp != 0) {
      iter->Seek(target);
      cmp = compare();
    }
    if (cmp != 0) {
      status_ = iter->status().ok()
                    ? Status::Corruption("anchor view out of sync")
                    : iter->status();
      return nullptr;
    }
    return iter;
  }

  const InternalKeyComparator icmp_;
  const AnchorViewPtr view_;
  const bool fill_cache_;
  Counter* const cursors_opened_;
  const std::unique_ptr<Iterator> view_iter_;
  mutable std::vector<Cursor> cursors_;
  mutable Status status_;
};

}  // namespace

Iterator* NewAnchorViewIterator(const InternalKeyComparator& icmp,
                                AnchorViewPtr view, bool fill_cache,
                                Counter* cursors_opened) {
  return new AnchorViewIterator(icmp, std::move(view), fill_cache,
                                cursors_opened);
}

}  // namespace unikv
