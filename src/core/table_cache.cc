#include "core/table_cache.h"

#include "core/filename.h"
#include "table/cache.h"
#include "table/table.h"
#include "util/coding.h"
#include "util/env.h"
#include "util/perf_context.h"

namespace unikv {

static void DeleteTableEntry(const Slice& /*key*/, void* value) {
  delete reinterpret_cast<Table*>(value);
}

TableCache::TableCache(Env* env, std::string dbname,
                       const TableOptions& table_options, Cache* block_cache,
                       int max_open_tables)
    : env_(env),
      dbname_(std::move(dbname)),
      table_options_(table_options),
      block_cache_(block_cache),
      cache_(NewLRUCache(max_open_tables)) {}

TableCache::~TableCache() = default;

Status TableCache::FindTable(uint64_t file_number, uint64_t file_size,
                             void** handle_out) {
  char buf[sizeof(file_number)];
  EncodeFixed64(buf, file_number);
  Slice key(buf, sizeof(buf));
  Cache::Handle* handle = cache_->Lookup(key);
  if (handle == nullptr) {
    GetPerfContext()->table_cache_misses++;
    std::string fname = TableFileName(dbname_, file_number);
    std::unique_ptr<RandomAccessFile> file;
    Status s = env_->NewRandomAccessFile(fname, &file);
    if (!s.ok()) return s;
    Table* table = nullptr;
    s = Table::Open(table_options_, std::move(file), file_size, block_cache_,
                    &table);
    if (!s.ok()) return s;
    handle = cache_->Insert(key, table, 1, &DeleteTableEntry);
  } else {
    GetPerfContext()->table_cache_hits++;
  }
  *handle_out = handle;
  return Status::OK();
}

Iterator* TableCache::NewIterator(uint64_t file_number, uint64_t file_size,
                                  const Table** tableptr, bool fill_cache) {
  if (tableptr != nullptr) *tableptr = nullptr;
  void* handle = nullptr;
  Status s = FindTable(file_number, file_size, &handle);
  if (!s.ok()) return NewErrorIterator(s);

  Cache::Handle* h = reinterpret_cast<Cache::Handle*>(handle);
  Table* table = reinterpret_cast<Table*>(cache_->Value(h));
  Iterator* result = table->NewIterator(fill_cache);
  Cache* cache = cache_.get();
  result->RegisterCleanup([cache, h] { cache->Release(h); });
  if (tableptr != nullptr) *tableptr = table;
  return result;
}

Status TableCache::Get(uint64_t file_number, uint64_t file_size,
                       const Slice& internal_key, bool* found,
                       std::string* key_out, std::string* value_out,
                       bool fill_cache) {
  void* handle = nullptr;
  Status s = FindTable(file_number, file_size, &handle);
  if (!s.ok()) return s;
  Cache::Handle* h = reinterpret_cast<Cache::Handle*>(handle);
  Table* table = reinterpret_cast<Table*>(cache_->Value(h));
  s = table->Get(internal_key, found, key_out, value_out, nullptr,
                 fill_cache);
  cache_->Release(h);
  return s;
}

TableCache::BatchPin::~BatchPin() {
  Cache* cache = cache_->cache_.get();
  for (size_t i = 0; i < num_inline_; i++) {
    cache->Release(reinterpret_cast<Cache::Handle*>(inline_[i].second));
  }
  for (const auto& [number, handle] : overflow_) {
    cache->Release(reinterpret_cast<Cache::Handle*>(handle));
  }
}

void* TableCache::BatchPin::Find(uint64_t file_number) const {
  for (size_t i = 0; i < num_inline_; i++) {
    if (inline_[i].first == file_number) return inline_[i].second;
  }
  for (const auto& [number, handle] : overflow_) {
    if (number == file_number) return handle;
  }
  return nullptr;
}

void TableCache::BatchPin::Add(uint64_t file_number, void* handle) {
  if (num_inline_ < kInline) {
    inline_[num_inline_++] = Entry(file_number, handle);
  } else {
    overflow_.emplace_back(file_number, handle);
  }
}

Status TableCache::GetPinned(BatchPin* pin, uint64_t file_number,
                             uint64_t file_size, const Slice& internal_key,
                             bool fill_cache, bool* found,
                             std::string* key_out, std::string* value_out,
                             Table::Probe* probe) {
  void* handle = pin->Find(file_number);
  if (handle == nullptr) {
    Status s = FindTable(file_number, file_size, &handle);
    if (!s.ok()) return s;
    pin->Add(file_number, handle);
  }
  Cache::Handle* h = reinterpret_cast<Cache::Handle*>(handle);
  Table* table = reinterpret_cast<Table*>(cache_->Value(h));
  return table->Get(internal_key, found, key_out, value_out, probe,
                    fill_cache);
}

bool TableCache::KeyMayMatch(uint64_t file_number, uint64_t file_size,
                             const Slice& user_key) {
  void* handle = nullptr;
  Status s = FindTable(file_number, file_size, &handle);
  if (!s.ok()) return true;  // Be conservative.
  Cache::Handle* h = reinterpret_cast<Cache::Handle*>(handle);
  Table* table = reinterpret_cast<Table*>(cache_->Value(h));
  bool may = table->KeyMayMatch(user_key);
  cache_->Release(h);
  return may;
}

uint64_t TableCache::AccessCount(uint64_t file_number, uint64_t file_size) {
  void* handle = nullptr;
  Status s = FindTable(file_number, file_size, &handle);
  if (!s.ok()) return 0;
  Cache::Handle* h = reinterpret_cast<Cache::Handle*>(handle);
  Table* table = reinterpret_cast<Table*>(cache_->Value(h));
  uint64_t n = table->AccessCount();
  cache_->Release(h);
  return n;
}

void TableCache::Evict(uint64_t file_number) {
  char buf[sizeof(file_number)];
  EncodeFixed64(buf, file_number);
  cache_->Erase(Slice(buf, sizeof(buf)));
}

}  // namespace unikv
