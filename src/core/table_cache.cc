#include "core/table_cache.h"

#include <utility>

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
                                  bool fill_cache) {
  void* handle = nullptr;
  Status s = FindTable(file_number, file_size, &handle);
  if (!s.ok()) return NewErrorIterator(s);

  Cache::Handle* h = reinterpret_cast<Cache::Handle*>(handle);
  Table* table = reinterpret_cast<Table*>(cache_->Value(h));
  Iterator* result = table->NewIterator(fill_cache);
  Cache* cache = cache_.get();
  result->RegisterCleanup([cache, h] { cache->Release(h); });
  return result;
}

Status TableCache::ReadKeyHashes(uint64_t file_number, uint64_t file_size,
                                 std::vector<uint64_t>* hashes) {
  void* handle = nullptr;
  Status s = FindTable(file_number, file_size, &handle);
  if (!s.ok()) return s;
  Cache::Handle* h = reinterpret_cast<Cache::Handle*>(handle);
  s = reinterpret_cast<Table*>(cache_->Value(h))->ReadKeyHashes(hashes);
  cache_->Release(h);
  return s;
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

TablePin& TablePin::operator=(TablePin&& other) noexcept {
  if (this != &other) {
    Release();
    cache_ = std::exchange(other.cache_, nullptr);
    handle_ = std::exchange(other.handle_, nullptr);
    table_ = std::exchange(other.table_, nullptr);
  }
  return *this;
}

void TablePin::Release() {
  if (handle_ != nullptr) cache_->Release(handle_);
  cache_ = nullptr;
  handle_ = nullptr;
  table_ = nullptr;
}

Status TableCache::Pin(uint64_t file_number, uint64_t file_size,
                       TablePin* pin) {
  void* handle = nullptr;
  Status s = FindTable(file_number, file_size, &handle);
  if (!s.ok()) return s;
  pin->Release();
  pin->cache_ = cache_.get();
  pin->handle_ = reinterpret_cast<Cache::Handle*>(handle);
  pin->table_ = reinterpret_cast<Table*>(cache_->Value(pin->handle_));
  return Status::OK();
}

const Table* TableCache::BatchPin::Find(uint64_t file_number) const {
  for (size_t i = 0; i < num_inline_; i++) {
    if (inline_[i].first == file_number) return inline_[i].second.table();
  }
  for (const auto& [number, pin] : overflow_) {
    if (number == file_number) return pin.table();
  }
  return nullptr;
}

void TableCache::BatchPin::Add(uint64_t file_number, TablePin pin) {
  if (num_inline_ < kInline) {
    inline_[num_inline_++] = Entry(file_number, std::move(pin));
  } else {
    overflow_.emplace_back(file_number, std::move(pin));
  }
}

Status TableCache::GetPinned(BatchPin* pin, uint64_t file_number,
                             uint64_t file_size, const Slice& internal_key,
                             bool fill_cache, bool* found,
                             std::string* key_out, std::string* value_out,
                             Table::Probe* probe) {
  const Table* table = pin->Find(file_number);
  if (table == nullptr) {
    TablePin table_pin;
    Status s = Pin(file_number, file_size, &table_pin);
    if (!s.ok()) return s;
    table = table_pin.table();
    pin->Add(file_number, std::move(table_pin));
  }
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
