#ifndef UNIKV_CORE_ANCHOR_VIEW_H_
#define UNIKV_CORE_ANCHOR_VIEW_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dbformat.h"
#include "core/iterator.h"
#include "core/table_cache.h"
#include "core/version.h"
#include "table/format.h"
#include "util/status.h"

namespace unikv {

class Block;
class Counter;

/// A REMIX-style sorted view over one partition's UnsortedStore
/// (DESIGN.md §12). The view is a single prefix-compressed block holding
/// every internal key of the partition's unsorted tables in global sorted
/// order; each entry's value is an anchor naming where the entry lives
/// (see Anchor).
///
/// Scans binary-search the view once (restart-array binary search, like
/// any table block) and then stream forward or backward without a merge
/// heap. A value is read through one cursor per covered table: a
/// data-block iterator opened at the anchor's block of the table the view
/// pins, reopened only when an anchor names another block, and moved only
/// when a value is read — a few Next()s to the view key, else a Seek
/// inside the block. A cursor whose key differs from the view key fails
/// the read with Corruption("anchor view out of sync").
///
/// Views are immutable, in-memory derived data: never persisted, built
/// whole on demand by the first iterator that needs one, and cached per
/// partition. The UnsortedStore is bounded by Options::unsorted_limit, so
/// a view's key material is a small fraction of that; after any install
/// that changes the tables, the next iterator builds a new view.
struct AnchorView {
  /// Where one view entry lives, encoded as the entry's value:
  ///
  ///   varint32 ordinal        index into `covered` (which table owns it)
  ///   varint64 block_offset   the table's data block holding the entry
  ///   varint64 block_size     (a BlockHandle)
  struct Anchor {
    uint32_t ordinal = 0;
    BlockHandle block;

    void EncodeTo(std::string* dst) const;
    /// False when `input` is not a well-formed anchor.
    bool DecodeFrom(Slice input);
  };

  /// One unsorted table the view covers, in the partition's table order
  /// (oldest first).
  struct CoveredTable {
    uint64_t number = 0;
    /// Holds the table open in the table cache for the view's lifetime,
    /// so cursors open blocks without a cache lookup. The pins count
    /// against the table cache's budget.
    TablePin table;
  };

  std::vector<CoveredTable> covered;
  /// The partition range the view was built for: it holds only the
  /// covered tables' entries inside [lower, upper).
  std::string lower, upper;
  /// Raw block image (entries + restart trailer). Owns the bytes `block`
  /// points into; declared first so it outlives `block` on destruction.
  std::shared_ptr<const std::string> image;
  /// Sorted (internal key -> anchor) entries, parsed over `image`.
  std::shared_ptr<Block> block;
  uint64_t entry_count = 0;
  /// Size of the block image in bytes (the view's memory footprint).
  uint64_t byte_size = 0;

  /// True iff the view covers exactly `p`'s unsorted references (same
  /// file numbers, same order) over `p`'s range. Anything else is stale:
  /// an iterator must rebuild it.
  bool Covers(const PartitionState& p) const;
};

using AnchorViewPtr = std::shared_ptr<const AnchorView>;

/// Builds a view from scratch: pins every unsorted table of `p`, walks
/// the part of each inside `p`'s range block by block (so anchors carry
/// real block handles) and merges the k streams.
Status BuildAnchorView(const InternalKeyComparator& icmp, TableCache* cache,
                       const PartitionState& p, AnchorView* out);

/// Returns an internal-key iterator over the view: yields every entry of
/// the covered tables in global sorted order, reading values through the
/// view's pinned tables. Seek/Next/Prev/SeekToFirst/SeekToLast all work;
/// Next()/Prev() cost one view-block step, and value() moves one cursor.
/// The iterator shares ownership of `view`. `fill_cache` is
/// ReadOptions::fill_cache for the data blocks cursors read; each covered
/// table whose cursor opens is counted once in `cursors_opened`.
Iterator* NewAnchorViewIterator(const InternalKeyComparator& icmp,
                                AnchorViewPtr view, bool fill_cache,
                                Counter* cursors_opened);

}  // namespace unikv

#endif  // UNIKV_CORE_ANCHOR_VIEW_H_
