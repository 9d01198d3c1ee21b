#include "table/table.h"

#include <string>

#include "table/block.h"
#include "table/bloom.h"
#include "table/cache.h"
#include "table/format.h"
#include "util/coding.h"
#include "util/env.h"
#include "util/perf_context.h"

namespace unikv {

struct Table::Rep {
  ~Rep() { delete index_block; }

  TableOptions options;
  Status status;
  std::unique_ptr<RandomAccessFile> file;
  uint64_t cache_id = 0;
  Cache* block_cache = nullptr;

  std::string filter_data;  // Whole-table bloom filter (may be empty).
  BlockHandle key_hash_handle;  // Empty when the table has no such block.
  Block* index_block = nullptr;
  InternalKeyComparator icmp;
};

Status Table::Open(const TableOptions& options,
                   std::unique_ptr<RandomAccessFile> file, uint64_t size,
                   Cache* block_cache, Table** table) {
  *table = nullptr;
  if (size < Footer::kEncodedLength) {
    return Status::Corruption("file is too short to be an sstable");
  }

  char footer_space[Footer::kEncodedLength];
  Slice footer_input;
  Status s = file->Read(size - Footer::kEncodedLength, Footer::kEncodedLength,
                        &footer_input, footer_space);
  if (!s.ok()) return s;

  Footer footer;
  s = footer.DecodeFrom(&footer_input);
  if (!s.ok()) return s;

  // Read the index block.
  BlockContents index_block_contents;
  s = ReadBlock(file.get(), footer.index_handle(), &index_block_contents);
  if (!s.ok()) return s;

  Rep* rep = new Rep;
  rep->options = options;
  rep->file = std::move(file);
  rep->index_block = new Block(index_block_contents);
  rep->key_hash_handle = footer.key_hash_handle();
  rep->block_cache = block_cache;
  rep->cache_id = (block_cache != nullptr) ? block_cache->NewId() : 0;

  // Read the filter block, if any.
  if (footer.filter_handle().size() > 0) {
    BlockContents filter_contents;
    if (ReadBlock(rep->file.get(), footer.filter_handle(), &filter_contents)
            .ok()) {
      rep->filter_data.assign(filter_contents.data.data(),
                              filter_contents.data.size());
      if (filter_contents.heap_allocated) {
        delete[] filter_contents.data.data();
      }
    }
  }

  *table = new Table(rep);
  return Status::OK();
}

Table::~Table() { delete rep_; }

Status Table::ReadKeyHashes(std::vector<uint64_t>* hashes) const {
  hashes->clear();
  if (rep_->key_hash_handle.size() == 0) {
    return Status::Corruption("table has no key-hash block");
  }
  BlockContents contents;
  Status s = ReadBlock(rep_->file.get(), rep_->key_hash_handle, &contents);
  if (!s.ok()) return s;
  const Slice data = contents.data;
  if (data.size() % 8 == 0) {
    hashes->reserve(data.size() / 8);
    for (size_t off = 0; off < data.size(); off += 8) {
      hashes->push_back(DecodeFixed64(data.data() + off));
    }
  } else {
    s = Status::Corruption("key-hash block size is not a multiple of 8");
  }
  if (contents.heap_allocated) delete[] contents.data.data();
  return s;
}

bool Table::KeyMayMatch(const Slice& user_key) const {
  if (rep_->filter_data.empty()) return true;
  PerfContext* perf = GetPerfContext();
  perf->bloom_checks++;
  const bool may = BloomFilterMayMatch(user_key, Slice(rep_->filter_data));
  if (!may) perf->bloom_negatives++;
  return may;
}

static void DeleteCachedBlock(const Slice& /*key*/, void* value) {
  Block* block = reinterpret_cast<Block*>(value);
  delete block;
}

static void DeleteBlock(void* arg) { delete reinterpret_cast<Block*>(arg); }

static void ReleaseBlockHandle(Cache* cache, Cache::Handle* handle) {
  cache->Release(handle);
}

Status Table::FindBlock(const BlockHandle& handle, bool fill_cache,
                        Block** block, Cache::Handle** cache_handle) const {
  Rep* r = rep_;
  *block = nullptr;
  *cache_handle = nullptr;

  if (r->block_cache != nullptr) {
    char cache_key_buffer[16];
    EncodeFixed64(cache_key_buffer, r->cache_id);
    EncodeFixed64(cache_key_buffer + 8, handle.offset());
    Slice key(cache_key_buffer, sizeof(cache_key_buffer));
    *cache_handle = r->block_cache->Lookup(key);
    if (*cache_handle != nullptr) {
      GetPerfContext()->block_cache_hits++;
      *block = reinterpret_cast<Block*>(r->block_cache->Value(*cache_handle));
    } else {
      PerfContext* perf = GetPerfContext();
      perf->block_cache_misses++;
      perf->block_reads++;
      BlockContents contents;
      Status s = ReadBlock(r->file.get(), handle, &contents);
      if (!s.ok()) return s;
      *block = new Block(contents);
      if (contents.cachable && fill_cache) {
        *cache_handle = r->block_cache->Insert(key, *block, (*block)->size(),
                                               &DeleteCachedBlock);
      }
    }
  } else {
    GetPerfContext()->block_reads++;
    BlockContents contents;
    Status s = ReadBlock(r->file.get(), handle, &contents);
    if (!s.ok()) return s;
    *block = new Block(contents);
  }
  return Status::OK();
}

Iterator* Table::NewBlockIterator(const BlockHandle& handle,
                                  bool fill_cache) const {
  Block* block = nullptr;
  Cache::Handle* cache_handle = nullptr;
  Status s = FindBlock(handle, fill_cache, &block, &cache_handle);
  if (!s.ok()) return NewErrorIterator(s);

  Iterator* iter = block->NewIterator(rep_->icmp);
  if (cache_handle != nullptr) {
    Cache* cache = rep_->block_cache;
    iter->RegisterCleanup(
        [cache, cache_handle] { ReleaseBlockHandle(cache, cache_handle); });
  } else {
    iter->RegisterCleanup([block] { DeleteBlock(block); });
  }
  return iter;
}

namespace {

/// Iterates over the entries of a table by driving an index-block iterator
/// whose values are handles to data blocks.
class TwoLevelIterator : public Iterator {
 public:
  TwoLevelIterator(const Table* table, Iterator* index_iter, bool fill_cache)
      : table_(table), index_iter_(index_iter), fill_cache_(fill_cache) {}

  ~TwoLevelIterator() override {
    delete index_iter_;
    delete data_iter_;
  }

  bool Valid() const override {
    return data_iter_ != nullptr && data_iter_->Valid();
  }

  void Seek(const Slice& target) override {
    index_iter_->Seek(target);
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->Seek(target);
    SkipEmptyDataBlocksForward();
  }
  void SeekToFirst() override {
    index_iter_->SeekToFirst();
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->SeekToFirst();
    SkipEmptyDataBlocksForward();
  }
  void SeekToLast() override {
    index_iter_->SeekToLast();
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->SeekToLast();
    SkipEmptyDataBlocksBackward();
  }
  void Next() override {
    assert(Valid());
    data_iter_->Next();
    SkipEmptyDataBlocksForward();
  }
  void Prev() override {
    assert(Valid());
    data_iter_->Prev();
    SkipEmptyDataBlocksBackward();
  }

  Slice key() const override {
    assert(Valid());
    return data_iter_->key();
  }
  Slice value() const override {
    assert(Valid());
    return data_iter_->value();
  }
  Status status() const override {
    if (!index_iter_->status().ok()) return index_iter_->status();
    if (data_iter_ != nullptr && !data_iter_->status().ok()) {
      return data_iter_->status();
    }
    return status_;
  }

 private:
  void SaveError(const Status& s) {
    if (status_.ok() && !s.ok()) status_ = s;
  }

  void SkipEmptyDataBlocksForward() {
    while (data_iter_ == nullptr || !data_iter_->Valid()) {
      if (!index_iter_->Valid()) {
        SetDataIterator(nullptr);
        return;
      }
      index_iter_->Next();
      InitDataBlock();
      if (data_iter_ != nullptr) data_iter_->SeekToFirst();
    }
  }

  void SkipEmptyDataBlocksBackward() {
    while (data_iter_ == nullptr || !data_iter_->Valid()) {
      if (!index_iter_->Valid()) {
        SetDataIterator(nullptr);
        return;
      }
      index_iter_->Prev();
      InitDataBlock();
      if (data_iter_ != nullptr) data_iter_->SeekToLast();
    }
  }

  void SetDataIterator(Iterator* data_iter) {
    if (data_iter_ != nullptr) SaveError(data_iter_->status());
    delete data_iter_;
    data_iter_ = data_iter;
  }

  void InitDataBlock();

  const Table* table_;
  Iterator* index_iter_;
  const bool fill_cache_;
  Iterator* data_iter_ = nullptr;
  std::string data_block_handle_;
  Status status_;
};

}  // namespace

Iterator* Table::BlockReader(void* arg, const Slice& index_value) {
  const Table* table = reinterpret_cast<const Table*>(arg);
  BlockHandle handle;
  Slice input = index_value;
  Status s = handle.DecodeFrom(&input);
  if (!s.ok()) return NewErrorIterator(s);
  return table->NewBlockIterator(handle);
}

void TwoLevelIterator::InitDataBlock() {
  if (!index_iter_->Valid()) {
    SetDataIterator(nullptr);
    return;
  }
  Slice handle_value = index_iter_->value();
  if (data_iter_ != nullptr &&
      handle_value.compare(Slice(data_block_handle_)) == 0) {
    // Already at the right block.
    return;
  }
  BlockHandle handle;
  Slice input = handle_value;
  Status s = handle.DecodeFrom(&input);
  Iterator* iter = s.ok() ? table_->NewBlockIterator(handle, fill_cache_)
                          : NewErrorIterator(s);
  data_block_handle_.assign(handle_value.data(), handle_value.size());
  SetDataIterator(iter);
}

Iterator* Table::NewIterator(bool fill_cache) const {
  return new TwoLevelIterator(
      this, rep_->index_block->NewIterator(rep_->icmp), fill_cache);
}

Iterator* Table::NewIndexIterator() const {
  return rep_->index_block->NewIterator(rep_->icmp);
}

void Table::Probe::Release() {
  if (cache_handle != nullptr) {
    cache->Release(cache_handle);
  } else {
    delete block;
  }
  table = nullptr;
  block = nullptr;
  cache_handle = nullptr;
  cache = nullptr;
  block_offset = ~0ull;
}

Status Table::Get(const Slice& internal_key, bool* found, std::string* key_out,
                  std::string* value_out, Probe* probe, bool fill_cache) const {
  *found = false;
  RecordAccess();
  // Iterator-free probe: both block searches run through Block::Find,
  // reusing *key_out as the shared-prefix working buffer for the index
  // search (its contents only matter on a data-block hit, which overwrites
  // it), so the whole probe does no heap allocation of its own.
  bool index_found = false;
  Slice index_value;
  Status s = rep_->index_block->Find(rep_->icmp, internal_key, &index_found,
                                     key_out, &index_value);
  if (s.ok() && index_found) {
    BlockHandle handle;
    s = handle.DecodeFrom(&index_value);
    if (s.ok()) {
      Block* block = nullptr;
      Cache::Handle* cache_handle = nullptr;
      const bool reused = probe != nullptr && probe->table == this &&
                          probe->block_offset == handle.offset();
      if (reused) {
        block = probe->block;
        if (rep_->block_cache != nullptr) {
          GetPerfContext()->block_cache_hits++;
        }
      } else {
        s = FindBlock(handle, fill_cache, &block, &cache_handle);
      }
      if (s.ok()) {
        Slice value;
        s = block->Find(rep_->icmp, internal_key, found, key_out, &value);
        if (s.ok() && *found) {
          value_out->assign(value.data(), value.size());
        }
        if (!reused) {
          if (probe != nullptr) {
            // Keep the block pinned for the caller's next probe.
            probe->Release();
            probe->table = this;
            probe->block_offset = handle.offset();
            probe->block = block;
            probe->cache_handle = cache_handle;
            probe->cache = rep_->block_cache;
          } else if (cache_handle != nullptr) {
            rep_->block_cache->Release(cache_handle);
          } else {
            delete block;
          }
        }
      } else if (!reused) {
        if (cache_handle != nullptr) {
          rep_->block_cache->Release(cache_handle);
        } else {
          delete block;
        }
      }
    }
  }
  if (s.ok() && !rep_->filter_data.empty()) {
    // Callers consult KeyMayMatch before Get on filtered tables, so a
    // seek that lands past the sought user key means the filter lied.
    if (!*found ||
        ExtractUserKey(Slice(*key_out)) != ExtractUserKey(internal_key)) {
      GetPerfContext()->bloom_false_positives++;
    }
  }
  return s;
}

}  // namespace unikv
