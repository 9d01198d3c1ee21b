#include "trace_env.h"

#include <chrono>
#include <cstring>

namespace perfbench {

using unikv::Slice;
using unikv::Status;

namespace {

thread_local ClientTrace* tls_client = nullptr;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Times one call when tracing applies to the calling thread.
class Span {
 public:
  Span(TraceEnv* env, FileKind file, CallKind call)
      : env_(env), file_(file), call_(call),
        start_(env->ShouldTrace() ? NowNs() : 0) {}
  void Finish(uint64_t bytes) {
    if (start_ != 0) env_->Record(file_, call_, bytes, NowNs() - start_);
  }

 private:
  TraceEnv* env_;
  FileKind file_;
  CallKind call_;
  uint64_t start_;
};

class TracedSequentialFile final : public unikv::SequentialFile {
 public:
  TracedSequentialFile(TraceEnv* env, FileKind kind,
                       std::unique_ptr<unikv::SequentialFile> base)
      : env_(env), kind_(kind), base_(std::move(base)) {}
  Status Read(size_t n, Slice* result, char* scratch) override {
    Span span(env_, kind_, kRead);
    Status s = base_->Read(n, result, scratch);
    span.Finish(result->size());
    return s;
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  TraceEnv* env_;
  FileKind kind_;
  std::unique_ptr<unikv::SequentialFile> base_;
};

class TracedRandomAccessFile final : public unikv::RandomAccessFile {
 public:
  TracedRandomAccessFile(TraceEnv* env, FileKind kind,
                         std::unique_ptr<unikv::RandomAccessFile> base)
      : env_(env), kind_(kind), base_(std::move(base)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Span span(env_, kind_, kRead);
    Status s = base_->Read(offset, n, result, scratch);
    span.Finish(result->size());
    if (s.ok() && Corruptible() && result->size() > 0 &&
        env_->TakeCorruptTurn()) {
      if (result->data() != scratch) {
        std::memmove(scratch, result->data(), result->size());
      }
      scratch[result->size() / 2] ^= 0x5a;
      *result = Slice(scratch, result->size());
    }
    return s;
  }

  bool ReadZeroCopy(uint64_t offset, size_t n, Slice* result) const override {
    // A mapped page cannot be corrupted in place: send the read through
    // Read() instead.
    if (Corruptible()) return false;
    Span span(env_, kind_, kZeroCopy);
    const bool ok = base_->ReadZeroCopy(offset, n, result);
    if (ok) span.Finish(result->size());
    return ok;
  }

  void ReadaheadHint(uint64_t offset, size_t n) const override {
    base_->ReadaheadHint(offset, n);
  }

 private:
  bool Corruptible() const {
    return kind_ == kVlog && tls_client != nullptr &&
           env_->corrupting();
  }

  TraceEnv* env_;
  FileKind kind_;
  std::unique_ptr<unikv::RandomAccessFile> base_;
};

class TracedWritableFile final : public unikv::WritableFile {
 public:
  TracedWritableFile(TraceEnv* env, FileKind kind,
                     std::unique_ptr<unikv::WritableFile> base)
      : env_(env), kind_(kind), base_(std::move(base)) {}

  Status Append(const Slice& data) override {
    Span span(env_, kind_, kAppend);
    Status s = base_->Append(data);
    if (s.ok()) env_->CountWrite(kind_, data.size());
    span.Finish(data.size());
    return s;
  }
  Status Close() override {
    Span span(env_, kind_, kFlush);
    Status s = base_->Close();
    span.Finish(0);
    return s;
  }
  Status Flush() override {
    Span span(env_, kind_, kFlush);
    Status s = base_->Flush();
    span.Finish(0);
    return s;
  }
  // Flush policy: a Sync is counted and timed but reaches the OS only as a
  // flush. On a shared virtual disk an fsync measures the host and its
  // other tenants, not the engine, and the benchmark does not test
  // durability (the crash tests do).
  Status Sync() override {
    Span span(env_, kind_, kSync);
    Status s = base_->Flush();
    span.Finish(0);
    return s;
  }

 private:
  TraceEnv* env_;
  FileKind kind_;
  std::unique_ptr<unikv::WritableFile> base_;
};

}  // namespace

const char* FileKindName(int kind) {
  static const char* const kNames[kNumFileKinds] = {
      "wal", "table", "vlog", "manifest", "anchors", "index", "other"};
  return kNames[kind];
}

FileKind ClassifyFile(const std::string& fname) {
  if (EndsWith(fname, ".swal") || EndsWith(fname, ".wal")) return kWal;
  if (EndsWith(fname, ".sst")) return kTable;
  if (EndsWith(fname, ".vlog")) return kVlog;
  if (EndsWith(fname, ".anchors")) return kAnchors;
  if (EndsWith(fname, ".hidx")) return kIndex;
  const size_t slash = fname.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? fname : fname.substr(slash + 1);
  if (base.rfind("MANIFEST-", 0) == 0) return kManifest;
  return kOtherFile;
}

void SpanTable::Add(const SpanTable& other) {
  for (int a = 0; a < kNumAttribs; a++) {
    for (int f = 0; f < kNumFileKinds; f++) {
      for (int c = 0; c < kNumCallKinds; c++) {
        CallTotals& t = cell[a][f][c];
        const CallTotals& o = other.cell[a][f][c];
        t.count += o.count;
        t.bytes += o.bytes;
        t.ns += o.ns;
      }
    }
  }
}

void SetClientTrace(ClientTrace* trace) { tls_client = trace; }

TraceEnv::TraceEnv(unikv::Env* base, uint64_t corrupt_vlog_every)
    : base_(base), corrupt_every_(corrupt_vlog_every) {}

bool TraceEnv::ShouldTrace() const {
  if (tls_client != nullptr) return tls_client->traced;
  return background_tracing();
}

void TraceEnv::Record(FileKind file, CallKind call, uint64_t bytes,
                      uint64_t ns) {
  if (tls_client != nullptr) {
    CallTotals& t = tls_client->spans.at(tls_client->op, file, call);
    t.count++;
    t.bytes += bytes;
    t.ns += ns;
    tls_client->op_env_ns += ns;
    if (file == kWal) tls_client->op_wal_ns += ns;
    return;
  }
  AtomicTotals& t = bg_[file][call];
  t.count.fetch_add(1, std::memory_order_relaxed);
  t.bytes.fetch_add(bytes, std::memory_order_relaxed);
  t.ns.fetch_add(ns, std::memory_order_relaxed);
}

bool TraceEnv::TakeCorruptTurn() {
  const uint64_t n =
      vlog_client_reads_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n % corrupt_every_ != 0) return false;
  corrupted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::array<uint64_t, kNumFileKinds> TraceEnv::BytesWritten() const {
  std::array<uint64_t, kNumFileKinds> out{};
  for (int f = 0; f < kNumFileKinds; f++) {
    out[f] = written_[f].load(std::memory_order_relaxed);
  }
  return out;
}

SpanTable TraceEnv::BackgroundSpans() const {
  SpanTable out;
  for (int f = 0; f < kNumFileKinds; f++) {
    for (int c = 0; c < kNumCallKinds; c++) {
      CallTotals& t = out.at(kBackground, f, c);
      t.count = bg_[f][c].count.load(std::memory_order_relaxed);
      t.bytes = bg_[f][c].bytes.load(std::memory_order_relaxed);
      t.ns = bg_[f][c].ns.load(std::memory_order_relaxed);
    }
  }
  return out;
}

Status TraceEnv::NewSequentialFile(
    const std::string& fname, std::unique_ptr<unikv::SequentialFile>* result) {
  const FileKind kind = ClassifyFile(fname);
  Span span(this, kind, kOpen);
  std::unique_ptr<unikv::SequentialFile> base;
  Status s = base_->NewSequentialFile(fname, &base);
  span.Finish(0);
  if (s.ok()) {
    *result =
        std::make_unique<TracedSequentialFile>(this, kind, std::move(base));
  }
  return s;
}

Status TraceEnv::NewRandomAccessFile(
    const std::string& fname,
    std::unique_ptr<unikv::RandomAccessFile>* result) {
  const FileKind kind = ClassifyFile(fname);
  Span span(this, kind, kOpen);
  std::unique_ptr<unikv::RandomAccessFile> base;
  Status s = base_->NewRandomAccessFile(fname, &base);
  span.Finish(0);
  if (s.ok()) {
    *result =
        std::make_unique<TracedRandomAccessFile>(this, kind, std::move(base));
  }
  return s;
}

Status TraceEnv::NewWritableFile(
    const std::string& fname, std::unique_ptr<unikv::WritableFile>* result) {
  const FileKind kind = ClassifyFile(fname);
  Span span(this, kind, kOpen);
  std::unique_ptr<unikv::WritableFile> base;
  Status s = base_->NewWritableFile(fname, &base);
  span.Finish(0);
  if (s.ok()) {
    *result = std::make_unique<TracedWritableFile>(this, kind, std::move(base));
  }
  return s;
}

Status TraceEnv::NewAppendableFile(
    const std::string& fname, std::unique_ptr<unikv::WritableFile>* result) {
  const FileKind kind = ClassifyFile(fname);
  Span span(this, kind, kOpen);
  std::unique_ptr<unikv::WritableFile> base;
  Status s = base_->NewAppendableFile(fname, &base);
  span.Finish(0);
  if (s.ok()) {
    *result = std::make_unique<TracedWritableFile>(this, kind, std::move(base));
  }
  return s;
}

Status TraceEnv::RemoveFile(const std::string& fname) {
  Span span(this, ClassifyFile(fname), kRemove);
  Status s = base_->RemoveFile(fname);
  span.Finish(0);
  return s;
}

Status TraceEnv::RenameFile(const std::string& src,
                            const std::string& target) {
  Span span(this, ClassifyFile(target), kRename);
  Status s = base_->RenameFile(src, target);
  span.Finish(0);
  return s;
}

Status TraceEnv::SyncDir(const std::string& dirname) {
  // Counted like a file Sync, and likewise not forwarded.
  (void)dirname;
  Span span(this, kOtherFile, kSync);
  span.Finish(0);
  return Status::OK();
}

}  // namespace perfbench
