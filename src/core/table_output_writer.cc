#include "core/table_output_writer.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "core/filename.h"
#include "index/hash_index.h"

namespace unikv {

namespace {

constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();

// Data-block size for SortedStore tables. Once values separate, a
// SortedStore entry is just a key plus a value pointer (~40 bytes), so a
// 4 KiB block holds only ~100 entries: every point probe lands in a
// different block and pays a full block-cache lookup, and batched sorted
// probes almost never reuse the previously pinned block. Larger blocks
// amortize both (binary search only grows logarithmically with entries
// per block); the cost is coarser reads on a cold block-cache miss.
// 16 KiB keeps that cold read moderate.
constexpr size_t kSortedBlockSize = 16 * 1024;

// Restart interval for SortedStore data blocks. The entries are short, so
// prefix compression saves almost nothing, while every point probe pays a
// linear prefix-decode scan between restart points. 1 makes every entry a
// restart: the in-block search becomes a pure binary search over full
// keys and the scan disappears. UnsortedStore tables keep
// table_options.block_restart_interval (default 16): their blocks carry
// full values, where the prefix bytes saved are cheap relative to the
// payload.
constexpr int kSortedBlockRestartInterval = 1;

// Layout for SortedStore tables: table_options with the two above.
TableOptions SortedTableOptions(const Options& options) {
  TableOptions opt = options.table_options;
  opt.block_restart_interval = kSortedBlockRestartInterval;
  opt.block_size = kSortedBlockSize;
  return opt;
}

}  // namespace

UniKVDB::TableOutputWriter::TableOutputWriter(UniKVDB* db, Store store,
                                              uint32_t partition)
    : db_(db),
      unsorted_(store == Store::kUnsorted),
      partition_(partition),
      table_options_(store == Store::kSorted
                         ? SortedTableOptions(db->options_)
                         : db->options_.table_options),
      rotation_size_(store == Store::kSorted ? db->options_.sorted_table_size
                                             : kNever),
      rotation_logical_(store == Store::kSorted
                            ? std::max<uint64_t>(
                                  db->options_.sorted_table_size,
                                  db->options_.partition_size_limit / 8)
                            : kNever) {}

UniKVDB::TableOutputWriter::~TableOutputWriter() {
  if (builder_ != nullptr) builder_->Abandon();
  // Installed outputs are live in the version by now; failed ones become
  // sweepable orphans.
  MutexLock lock(&db_->mu_);
  for (uint64_t number : numbers_) db_->pending_outputs_.erase(number);
}

uint64_t UniKVDB::TableOutputWriter::NewFileNumber() {
  MutexLock lock(&db_->mu_);
  const uint64_t number = db_->versions_->NewFileNumber();
  db_->pending_outputs_.insert(number);
  numbers_.push_back(number);
  return number;
}

Status UniKVDB::TableOutputWriter::Add(const Slice& internal_key,
                                       const Slice& value) {
  const Slice user_key = ExtractUserKey(internal_key);
  uint64_t logical = user_key.size() + value.size();
  if (ExtractValueType(internal_key) == kTypeValuePointer) {
    ValuePointer ptr;
    Slice encoded = value;
    if (!ptr.DecodeFrom(&encoded)) {
      return Status::Corruption("bad value pointer in table output");
    }
    logical = user_key.size() + ptr.size;
  }
  if (builder_ == nullptr) {
    outputs_.emplace_back();
    FileMeta& meta = outputs_.back();
    meta.number = NewFileNumber();
    Status s = db_->env_->NewWritableFile(
        TableFileName(db_->dbname_, meta.number), &file_);
    if (!s.ok()) return s;
    builder_ = std::make_unique<TableBuilder>(table_options_, file_.get());
    meta.smallest = user_key.ToString();
  }
  builder_->Add(internal_key, value);
  FileMeta& meta = outputs_.back();
  meta.logical += logical;
  if (unsorted_ && (key_hashes_.empty() || Slice(meta.largest) != user_key)) {
    key_hashes_.push_back(HashIndex::KeyHash(user_key));
  }
  meta.largest.assign(user_key.data(), user_key.size());
  if (builder_->FileSize() >= rotation_size_ ||
      meta.logical >= rotation_logical_) {
    return FinishTable();
  }
  return Status::OK();
}

Status UniKVDB::TableOutputWriter::AddValue(const Slice& user_key,
                                            SequenceNumber seq,
                                            const Slice& value) {
  assert(!unsorted_);
  const Options& options = db_->options_;
  key_.clear();
  if (!options.enable_kv_separation ||
      value.size() < options.value_separation_threshold) {
    AppendInternalKey(&key_, ParsedInternalKey(user_key, seq, kTypeValue));
    return Add(key_, value);
  }
  if (vlog_writer_ == nullptr) {
    const uint64_t number = NewFileNumber();
    std::unique_ptr<WritableFile> f;
    Status s =
        db_->env_->NewWritableFile(ValueLogFileName(db_->dbname_, number), &f);
    if (!s.ok()) return s;
    vlog_writer_ =
        std::make_unique<ValueLogWriter>(std::move(f), partition_, number);
    vlog_.number = number;
  }
  ValuePointer ptr;
  Status s = vlog_writer_->Add(user_key, value, &ptr);
  if (!s.ok()) return s;
  pointer_.clear();
  ptr.EncodeTo(&pointer_);
  AppendInternalKey(&key_,
                    ParsedInternalKey(user_key, seq, kTypeValuePointer));
  return Add(key_, pointer_);
}

Status UniKVDB::TableOutputWriter::Finish() {
  Status s = FinishTable();
  if (s.ok() && vlog_writer_ != nullptr) {
    s = vlog_writer_->Sync();
    if (s.ok()) s = vlog_writer_->Close();
    vlog_.size = vlog_writer_->CurrentOffset();
    bytes_written_ += vlog_.size;
    vlog_writer_.reset();
  }
  return s;
}

Status UniKVDB::TableOutputWriter::FinishTable() {
  if (builder_ == nullptr) return Status::OK();
  Status s = builder_->Finish(unsorted_ ? &key_hashes_ : nullptr);
  if (s.ok()) s = file_->Sync();
  if (s.ok()) s = file_->Close();
  if (s.ok()) {
    FileMeta& meta = outputs_.back();
    meta.size = builder_->FileSize();
    // As one partition's reference: the whole table is its share.
    meta.share = meta.size;
    if (unsorted_) meta.hash_end = static_cast<uint32_t>(key_hashes_.size());
    bytes_written_ += meta.size;
  }
  builder_.reset();
  file_.reset();
  return s;
}

}  // namespace unikv
