#include "table/table_builder.h"

#include <cassert>

#include "table/block_builder.h"
#include "table/bloom.h"
#include "table/format.h"
#include "util/crc32c.h"
#include "util/env.h"

namespace unikv {

struct TableBuilder::Rep {
  Rep(const TableOptions& opt, WritableFile* f)
      : options(opt),
        file(f),
        data_block(opt.block_restart_interval),
        index_block(1),
        bloom(opt.bloom_bits_per_key > 0
                  ? new BloomFilterBuilder(opt.bloom_bits_per_key)
                  : nullptr) {}

  ~Rep() { delete bloom; }

  TableOptions options;
  WritableFile* file;
  BlockBuilder data_block;
  BlockBuilder index_block;
  std::string last_key;
  bool closed = false;

  // Invariant: pending_index_entry is true only if data_block is empty.
  bool pending_index_entry = false;
  BlockHandle pending_handle;  // Handle of the block just finished.

  BloomFilterBuilder* bloom;
  InternalKeyComparator icmp;
  std::string handle_encoding;
};

TableBuilder::TableBuilder(const TableOptions& options, WritableFile* file)
    : rep_(new Rep(options, file)) {}

TableBuilder::~TableBuilder() {
  assert(rep_->closed);  // Finish() or Abandon() must have been called.
  delete rep_;
}

void TableBuilder::Add(const Slice& key, const Slice& value) {
  Rep* r = rep_;
  assert(!r->closed);
  if (!ok()) return;
  if (num_entries_ > 0) {
    assert(r->icmp.Compare(key, Slice(r->last_key)) > 0);
  }

  if (r->pending_index_entry) {
    assert(r->data_block.empty());
    r->handle_encoding.clear();
    r->pending_handle.EncodeTo(&r->handle_encoding);
    r->index_block.Add(r->last_key, Slice(r->handle_encoding));
    r->pending_index_entry = false;
  }

  if (r->bloom != nullptr) {
    r->bloom->AddKey(ExtractUserKey(key));
  }

  r->last_key.assign(key.data(), key.size());
  num_entries_++;
  r->data_block.Add(key, value);

  const size_t estimated_block_size = r->data_block.CurrentSizeEstimate();
  if (estimated_block_size >= r->options.block_size) {
    Flush();
  }
}

void TableBuilder::Flush() {
  Rep* r = rep_;
  assert(!r->closed);
  if (!ok()) return;
  if (r->data_block.empty()) return;
  assert(!r->pending_index_entry);
  WriteBlock(&r->data_block, &r->pending_handle);
  if (ok()) {
    r->pending_index_entry = true;
    status_ = r->file->Flush();
  }
}

void TableBuilder::WriteBlock(BlockBuilder* block, BlockHandle* handle) {
  assert(ok());
  WriteRawBlock(block->Finish(), handle);
  block->Reset();
}

void TableBuilder::WriteRawBlock(const Slice& contents, BlockHandle* handle) {
  Rep* r = rep_;
  handle->set_offset(offset_);
  handle->set_size(contents.size());
  status_ = r->file->Append(contents);
  if (status_.ok()) {
    char trailer[kBlockTrailerSize];
    trailer[0] = 0;  // No compression.
    uint32_t crc = crc32c::Value(contents.data(), contents.size());
    crc = crc32c::Extend(crc, trailer, 1);  // Extend to cover the type.
    EncodeFixed32(trailer + 1, crc32c::Mask(crc));
    status_ = r->file->Append(Slice(trailer, kBlockTrailerSize));
    if (status_.ok()) {
      offset_ += contents.size() + kBlockTrailerSize;
    }
  }
}

Status TableBuilder::Finish(const std::vector<uint64_t>* key_hashes) {
  Rep* r = rep_;
  Flush();
  assert(!r->closed);
  r->closed = true;

  // Absent blocks keep an empty handle (offset 0, size 0).
  BlockHandle filter_block_handle, key_hash_handle, index_block_handle;
  filter_block_handle.set_offset(0);
  filter_block_handle.set_size(0);
  key_hash_handle.set_offset(0);
  key_hash_handle.set_size(0);

  // Filter block (raw, no prefix compression needed).
  if (ok() && r->bloom != nullptr) {
    std::string filter_contents;
    r->bloom->Finish(&filter_contents);
    WriteRawBlock(filter_contents, &filter_block_handle);
  }

  // Key-hash block: fixed64 hashes, as handed in.
  if (ok() && key_hashes != nullptr) {
    std::string contents;
    contents.reserve(key_hashes->size() * 8);
    for (uint64_t h : *key_hashes) PutFixed64(&contents, h);
    WriteRawBlock(contents, &key_hash_handle);
  }

  // Index block.
  if (ok()) {
    if (r->pending_index_entry) {
      r->handle_encoding.clear();
      r->pending_handle.EncodeTo(&r->handle_encoding);
      r->index_block.Add(r->last_key, Slice(r->handle_encoding));
      r->pending_index_entry = false;
    }
    WriteBlock(&r->index_block, &index_block_handle);
  }

  // Footer.
  if (ok()) {
    Footer footer;
    footer.set_filter_handle(filter_block_handle);
    footer.set_key_hash_handle(key_hash_handle);
    footer.set_index_handle(index_block_handle);
    std::string footer_encoding;
    footer.EncodeTo(&footer_encoding);
    status_ = r->file->Append(footer_encoding);
    if (status_.ok()) {
      offset_ += footer_encoding.size();
    }
  }
  return status_;
}

void TableBuilder::Abandon() {
  Rep* r = rep_;
  assert(!r->closed);
  r->closed = true;
}

}  // namespace unikv
