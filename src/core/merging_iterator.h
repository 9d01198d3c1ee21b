#ifndef UNIKV_CORE_MERGING_ITERATOR_H_
#define UNIKV_CORE_MERGING_ITERATOR_H_

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/dbformat.h"
#include "core/iterator.h"
#include "core/version.h"

namespace unikv {

class Counter;
class TableCache;

/// Returns an iterator yielding the union of children in internal-key
/// order. Takes ownership of the children. On ties (same internal key,
/// which cannot happen with unique sequence numbers) earlier children win.
Iterator* NewMergingIterator(const InternalKeyComparator& comparator,
                             std::vector<Iterator*> children);

/// Maps a seek target (an internal key) to the first source that can hold
/// keys >= target; the source count when none can.
using SourceLocator = std::function<size_t(const Slice& target)>;
/// Builds source i's iterator (never null; an empty or error iterator
/// stands for a source with nothing to give).
using SourceOpener = std::function<Iterator*(size_t i)>;

/// Returns an iterator over `n` disjoint, key-ordered sources that builds
/// each source only when the cursor enters it (LevelDB's two-level
/// iterator). At most one source is open at a time: Seek opens the one
/// `locate` names, and walking past a source's end closes it and opens
/// the next (SeekToFirst) or previous (SeekToLast) one. A source that ends
/// with a non-OK status stops the walk, and its error stays in status()
/// after the source is closed.
Iterator* NewLazyConcatIterator(size_t n, SourceLocator locate,
                                SourceOpener open);

/// Yields only the entries of `base` whose user key lies in [lower,
/// upper); an empty `upper` is no upper bound. Takes ownership of `base`.
/// A partition reads its unsorted references through it, since a table
/// may also hold its sibling partitions' keys (DESIGN.md §2).
Iterator* NewClampedIterator(Iterator* base, std::string lower,
                             std::string upper);

/// A sorted run over `files` (disjoint, ordered by key, as FileMeta lists
/// of a SortedStore or an LSM run are): Seek binary-searches the files'
/// largest keys and opens only the table it lands in. `files` must outlive
/// the iterator. Each table opened is counted in `tables_opened` (may be
/// null).
Iterator* NewSortedRunIterator(TableCache* cache,
                               std::span<const FileMeta> files,
                               bool fill_cache = true,
                               Counter* tables_opened = nullptr);

}  // namespace unikv

#endif  // UNIKV_CORE_MERGING_ITERATOR_H_
