#ifndef UNIKV_CORE_ANCHOR_VIEW_H_
#define UNIKV_CORE_ANCHOR_VIEW_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dbformat.h"
#include "core/iterator.h"
#include "core/version.h"
#include "util/status.h"

namespace unikv {

class Block;
class Counter;
class TableCache;

/// A REMIX-style sorted view over one partition's UnsortedStore
/// (DESIGN.md §12). The view is a single prefix-compressed block holding
/// every internal key of the partition's unsorted tables in global sorted
/// order; each entry's value is a compact anchor
///
///   varint32 ordinal        index into `covered` (which table owns it)
///   varint64 block_offset   file offset of the data block holding it
///   varint32 restart_index  restart slot of the entry within that block
///
/// Scans binary-search the view once (restart-array binary search, like
/// any table block) and then stream forward or backward, advancing one
/// per-table cursor in lockstep with the view instead of popping a k-way
/// merge heap per Next(). block_offset/restart_index are advisory
/// accelerators: the iterator always verifies cursor alignment by key, so
/// correctness never depends on them.
///
/// Views are immutable, in-memory derived data: never persisted, built
/// whole on demand by the first iterator that needs one, and cached per
/// partition. The UnsortedStore is bounded by Options::unsorted_limit, so
/// a view's key material is a small fraction of that; after any install
/// that changes the tables, the next iterator builds a new view.
struct AnchorView {
  /// Descriptor of one unsorted table the view covers, in the partition's
  /// table order (oldest first).
  struct CoveredTable {
    uint64_t number = 0;
    uint64_t size = 0;
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

/// Builds a view from scratch by walking the part of every unsorted table
/// of `p` inside `p`'s range (block by block, so anchors carry real block
/// offsets) and merging the k streams. `restart_interval` is the
/// data-block restart interval the tables were written with (used to
/// derive restart_index hints).
Status BuildAnchorView(const InternalKeyComparator& icmp, TableCache* cache,
                       const PartitionState& p, int restart_interval,
                       AnchorView* out);

/// Returns an internal-key iterator over the view: yields every entry of
/// the covered tables in global sorted order, resolving values through
/// one lazily opened cursor per table. Seek/Next/Prev/SeekToFirst/
/// SeekToLast all work; Next()/Prev() cost one view-block step plus one
/// cursor step (no heap). The iterator shares ownership of `view`. Each
/// cursor opened is counted in `cursors_opened`.
Iterator* NewAnchorViewIterator(const InternalKeyComparator& icmp,
                                AnchorViewPtr view, TableCache* cache,
                                bool fill_cache, Counter* cursors_opened);

}  // namespace unikv

#endif  // UNIKV_CORE_ANCHOR_VIEW_H_
