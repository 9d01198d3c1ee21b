#ifndef UNIKV_TABLE_FORMAT_H_
#define UNIKV_TABLE_FORMAT_H_

#include <cstdint>
#include <string>

#include "util/coding.h"
#include "util/slice.h"
#include "util/status.h"

namespace unikv {

class RandomAccessFile;

/// BlockHandle is a pointer to the extent of a file that stores a data
/// block or a meta block.
class BlockHandle {
 public:
  /// Maximum encoding length of a BlockHandle.
  enum { kMaxEncodedLength = 10 + 10 };

  BlockHandle() : offset_(~static_cast<uint64_t>(0)),
                  size_(~static_cast<uint64_t>(0)) {}

  uint64_t offset() const { return offset_; }
  void set_offset(uint64_t offset) { offset_ = offset; }

  uint64_t size() const { return size_; }
  void set_size(uint64_t size) { size_ = size; }

  void EncodeTo(std::string* dst) const {
    PutVarint64(dst, offset_);
    PutVarint64(dst, size_);
  }

  Status DecodeFrom(Slice* input) {
    if (GetVarint64(input, &offset_) && GetVarint64(input, &size_)) {
      return Status::OK();
    }
    return Status::Corruption("bad block handle");
  }

 private:
  uint64_t offset_;
  uint64_t size_;
};

/// Footer encapsulates the fixed information stored at the tail of every
/// table file: filter-block, key-hash-block and index-block handles, then
/// the magic. An absent block has an empty handle.
class Footer {
 public:
  enum { kEncodedLength = 3 * BlockHandle::kMaxEncodedLength + 8 };

  Footer() = default;

  const BlockHandle& filter_handle() const { return filter_handle_; }
  void set_filter_handle(const BlockHandle& h) { filter_handle_ = h; }

  const BlockHandle& key_hash_handle() const { return key_hash_handle_; }
  void set_key_hash_handle(const BlockHandle& h) { key_hash_handle_ = h; }

  const BlockHandle& index_handle() const { return index_handle_; }
  void set_index_handle(const BlockHandle& h) { index_handle_ = h; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

 private:
  BlockHandle filter_handle_;
  BlockHandle key_hash_handle_;
  BlockHandle index_handle_;
};

static const uint64_t kTableMagicNumber = 0x756e696b76746c62ull;  // "unikvtlb"

/// 1-byte compression type + 4-byte crc trailer after each block.
static const size_t kBlockTrailerSize = 5;

struct BlockContents {
  Slice data;
  bool cachable;        // True iff data can be cached.
  bool heap_allocated;  // True iff caller should delete[] data.data().
};

/// Reads the block identified by `handle` from `file`, verifying the crc.
Status ReadBlock(RandomAccessFile* file, const BlockHandle& handle,
                 BlockContents* result);

}  // namespace unikv

#endif  // UNIKV_TABLE_FORMAT_H_
