#include "vlog/value_log.h"

#include "core/filename.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/perf_context.h"

namespace unikv {

void ValuePointer::EncodeTo(std::string* dst) const {
  PutVarint32(dst, partition);
  PutVarint64(dst, log_number);
  PutVarint64(dst, offset);
  PutVarint32(dst, size);
}

bool ValuePointer::DecodeFrom(Slice* input) {
  return GetVarint32(input, &partition) && GetVarint64(input, &log_number) &&
         GetVarint64(input, &offset) && GetVarint32(input, &size);
}

ValueLogWriter::ValueLogWriter(std::unique_ptr<WritableFile> file,
                               uint32_t partition, uint64_t log_number)
    : file_(std::move(file)), partition_(partition), log_number_(log_number) {}

Status ValueLogWriter::Add(const Slice& key, const Slice& value,
                           ValuePointer* ptr) {
  scratch_.clear();
  scratch_.resize(4);  // Space for the crc.
  PutVarint32(&scratch_, static_cast<uint32_t>(key.size()));
  PutVarint32(&scratch_, static_cast<uint32_t>(value.size()));
  scratch_.append(key.data(), key.size());
  scratch_.append(value.data(), value.size());
  uint32_t crc = crc32c::Value(scratch_.data() + 4, scratch_.size() - 4);
  EncodeFixed32(&scratch_[0], crc32c::Mask(crc));

  Status s = file_->Append(Slice(scratch_));
  if (!s.ok()) return s;

  ptr->partition = partition_;
  ptr->log_number = log_number_;
  ptr->offset = offset_;
  ptr->size = static_cast<uint32_t>(scratch_.size());
  offset_ += scratch_.size();
  return Status::OK();
}

namespace {

// Splits a record into key and value after verifying its checksum.
Status ParseValueRecord(const Slice& record, Slice* key, Slice* value) {
  Slice input = record;
  uint32_t crc_stored;
  if (!GetFixed32(&input, &crc_stored)) {
    return Status::Corruption("value record too short");
  }
  uint32_t crc = crc32c::Value(input.data(), input.size());
  if (crc32c::Unmask(crc_stored) != crc) {
    return Status::Corruption("value record checksum mismatch");
  }
  uint32_t key_len, val_len;
  if (!GetVarint32(&input, &key_len) || !GetVarint32(&input, &val_len) ||
      input.size() != static_cast<size_t>(key_len) + val_len) {
    return Status::Corruption("malformed value record");
  }
  *key = Slice(input.data(), key_len);
  *value = Slice(input.data() + key_len, val_len);
  return Status::OK();
}

}  // namespace

Status DecodeValueRecord(const Slice& record, const Slice& key,
                         Slice* value) {
  Slice stored_key;
  Status s = ParseValueRecord(record, &stored_key, value);
  if (s.ok() && stored_key != key) {
    return Status::Corruption("value log key mismatch");
  }
  return s;
}

ValueLogCache::ValueLogCache(Env* env, std::string dbname)
    : env_(env), dbname_(std::move(dbname)) {}

Status ValueLogCache::PinLog(uint64_t log_number,
                             std::shared_ptr<RandomAccessFile>* file) {
  MutexLock l(&mu_);
  auto it = files_.find(log_number);
  if (it != files_.end()) {
    *file = it->second;
    return Status::OK();
  }
  std::unique_ptr<RandomAccessFile> f;
  Status s =
      env_->NewRandomAccessFile(ValueLogFileName(dbname_, log_number), &f);
  if (!s.ok()) return s;
  std::shared_ptr<RandomAccessFile> shared(f.release());
  files_[log_number] = shared;
  *file = std::move(shared);
  return Status::OK();
}

Status ValueLogCache::Get(const ValuePointer& ptr, const Slice& key,
                          std::string* value) {
  PerfContext* perf = GetPerfContext();
  perf->vlog_reads++;
  perf->vlog_read_bytes += ptr.size;
  if (reads_counter_ != nullptr) reads_counter_->Inc();
  if (read_bytes_counter_ != nullptr) read_bytes_counter_->Add(ptr.size);
  std::shared_ptr<RandomAccessFile> file;
  Status s = PinLog(ptr.log_number, &file);
  if (!s.ok()) return s;

  std::string buf;
  buf.resize(ptr.size);
  Slice record;
  s = file->Read(ptr.offset, ptr.size, &record, buf.data());
  if (!s.ok()) return s;
  if (record.size() != ptr.size) {
    return Status::Corruption("short value log read");
  }
  Slice val;
  s = DecodeValueRecord(record, key, &val);
  if (!s.ok()) return s;
  value->assign(val.data(), val.size());
  return Status::OK();
}

Status ValueLogCache::GetSpanPinned(RandomAccessFile* file, uint64_t offset,
                                    size_t size, bool zero_copy,
                                    Slice* result, SpanScratch* scratch) {
  PerfContext* perf = GetPerfContext();
  perf->vlog_span_reads++;
  perf->vlog_read_bytes += size;
  if (span_reads_counter_ != nullptr) span_reads_counter_->Inc();
  if (read_bytes_counter_ != nullptr) read_bytes_counter_->Add(size);
  // A zero-copy span uses the file's mapping when one is available: no
  // syscall, and the gap bytes a coalesced span covers are never copied —
  // members are sliced straight out of the page cache. The pointed-at
  // bytes stay valid while the caller's log pin is held.
  if (zero_copy && file->ReadZeroCopy(offset, size, result)) {
    perf->vlog_mmap_reads++;
    if (mmap_reads_counter_ != nullptr) mmap_reads_counter_->Inc();
    return Status::OK();
  }
  Status s = file->Read(offset, size, result, scratch->Reserve(size));
  if (!s.ok()) return s;
  if (result->size() != size) {
    return Status::Corruption("short value log span read");
  }
  return Status::OK();
}

void ValueLogCache::Evict(uint64_t log_number) {
  MutexLock l(&mu_);
  files_.erase(log_number);
}

Status ScanValueLog(
    Env* env, const std::string& fname,
    const std::function<void(uint64_t, uint32_t, const Slice&, const Slice&)>&
        fn) {
  std::unique_ptr<SequentialFile> file;
  Status s = env->NewSequentialFile(fname, &file);
  if (!s.ok()) return s;

  uint64_t file_size;
  s = env->GetFileSize(fname, &file_size);
  if (!s.ok()) return s;

  std::string contents;
  contents.resize(file_size);
  Slice data;
  s = file->Read(file_size, &data, contents.data());
  if (!s.ok()) return s;

  uint64_t offset = 0;
  Slice input = data;
  while (input.size() > 4) {
    // Peek the lengths after the crc to find the record extent.
    Slice peek(input.data() + 4, input.size() - 4);
    uint32_t key_len, val_len;
    if (!GetVarint32(&peek, &key_len) || !GetVarint32(&peek, &val_len)) {
      break;  // Torn tail.
    }
    size_t record_size =
        (peek.data() - input.data()) + static_cast<size_t>(key_len) + val_len;
    if (record_size > input.size()) {
      break;  // Torn tail.
    }
    Slice record(input.data(), record_size);
    Slice key, value;
    if (!ParseValueRecord(record, &key, &value).ok()) {
      break;  // Corrupt record: stop scanning (crash-truncated tail).
    }
    fn(offset, static_cast<uint32_t>(record_size), key, value);
    input.remove_prefix(record_size);
    offset += record_size;
  }
  return Status::OK();
}

}  // namespace unikv
