#include "util/env.h"

#include <set>

#include "util/sync.h"

namespace unikv {

namespace {

// In-process lock registry backing the default Env::LockFile: pathname
// keyed, so two DB instances in one process exclude each other even on
// Envs with no OS-level lock (MemEnv, wrappers over it).
Mutex g_locked_files_mu;
std::set<std::string>& LockedFiles() {
  static std::set<std::string>* files = new std::set<std::string>();
  return *files;
}

class InProcessFileLock : public FileLock {
 public:
  explicit InProcessFileLock(std::string name) : name_(std::move(name)) {}
  const std::string& name() const { return name_; }

 private:
  std::string name_;
};

}  // namespace

Status Env::LockFile(const std::string& fname, FileLock** lock) {
  *lock = nullptr;
  {
    MutexLock l(&g_locked_files_mu);
    if (!LockedFiles().insert(fname).second) {
      return Status::IOError(fname, "lock already held");
    }
  }
  *lock = new InProcessFileLock(fname);
  return Status::OK();
}

Status Env::UnlockFile(FileLock* lock) {
  if (lock == nullptr) return Status::OK();
  auto* held = static_cast<InProcessFileLock*>(lock);
  {
    MutexLock l(&g_locked_files_mu);
    LockedFiles().erase(held->name());
  }
  delete held;
  return Status::OK();
}

namespace {

class CountingSequentialFile : public SequentialFile {
 public:
  CountingSequentialFile(std::unique_ptr<SequentialFile> base, IoStats* stats)
      : base_(std::move(base)), stats_(stats) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    Status s = base_->Read(n, result, scratch);
    if (s.ok()) {
      stats_->bytes_read.fetch_add(result->size(), std::memory_order_relaxed);
      stats_->reads.fetch_add(1, std::memory_order_relaxed);
    }
    return s;
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  std::unique_ptr<SequentialFile> base_;
  IoStats* stats_;
};

class CountingRandomAccessFile : public RandomAccessFile {
 public:
  CountingRandomAccessFile(std::unique_ptr<RandomAccessFile> base,
                           IoStats* stats)
      : base_(std::move(base)), stats_(stats) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Status s = base_->Read(offset, n, result, scratch);
    if (s.ok()) {
      stats_->bytes_read.fetch_add(result->size(), std::memory_order_relaxed);
      stats_->reads.fetch_add(1, std::memory_order_relaxed);
    }
    return s;
  }
  bool ReadZeroCopy(uint64_t offset, size_t n, Slice* result) const override {
    // Still a logical read: count it so read-amplification metrics keep
    // their meaning whether the bytes came via pread or a mapping.
    if (!base_->ReadZeroCopy(offset, n, result)) return false;
    stats_->bytes_read.fetch_add(result->size(), std::memory_order_relaxed);
    stats_->reads.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  IoStats* stats_;
};

class CountingWritableFile : public WritableFile {
 public:
  CountingWritableFile(std::unique_ptr<WritableFile> base, IoStats* stats)
      : base_(std::move(base)), stats_(stats) {}

  Status Append(const Slice& data) override {
    Status s = base_->Append(data);
    if (s.ok()) {
      stats_->bytes_written.fetch_add(data.size(), std::memory_order_relaxed);
      stats_->writes.fetch_add(1, std::memory_order_relaxed);
    }
    return s;
  }
  Status Close() override { return base_->Close(); }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override {
    stats_->syncs.fetch_add(1, std::memory_order_relaxed);
    return base_->Sync();
  }

 private:
  std::unique_ptr<WritableFile> base_;
  IoStats* stats_;
};

}  // namespace

Status InstrumentedEnv::NewSequentialFile(
    const std::string& fname, std::unique_ptr<SequentialFile>* result) {
  std::unique_ptr<SequentialFile> base;
  Status s = base_->NewSequentialFile(fname, &base);
  if (s.ok()) {
    result->reset(new CountingSequentialFile(std::move(base), &stats_));
  }
  return s;
}

Status InstrumentedEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<RandomAccessFile>* result) {
  std::unique_ptr<RandomAccessFile> base;
  Status s = base_->NewRandomAccessFile(fname, &base);
  if (s.ok()) {
    result->reset(new CountingRandomAccessFile(std::move(base), &stats_));
  }
  return s;
}

Status InstrumentedEnv::NewWritableFile(
    const std::string& fname, std::unique_ptr<WritableFile>* result) {
  std::unique_ptr<WritableFile> base;
  Status s = base_->NewWritableFile(fname, &base);
  if (s.ok()) {
    result->reset(new CountingWritableFile(std::move(base), &stats_));
  }
  return s;
}

Status InstrumentedEnv::NewAppendableFile(
    const std::string& fname, std::unique_ptr<WritableFile>* result) {
  std::unique_ptr<WritableFile> base;
  Status s = base_->NewAppendableFile(fname, &base);
  if (s.ok()) {
    result->reset(new CountingWritableFile(std::move(base), &stats_));
  }
  return s;
}

Status RemoveDirRecursively(Env* env, const std::string& dir) {
  std::vector<std::string> children;
  Status s = env->GetChildren(dir, &children);
  if (!s.ok()) {
    return Status::OK();  // Nothing to remove.
  }
  for (const std::string& child : children) {
    if (child == "." || child == "..") continue;
    const std::string path = dir + "/" + child;
    uint64_t size;
    if (env->GetFileSize(path, &size).ok()) {
      (void)env->RemoveFile(path);  // Best-effort recursive cleanup; the
    } else {                        // final RemoveDir reports the truth.
      (void)RemoveDirRecursively(env, path);
    }
  }
  return env->RemoveDir(dir);
}

}  // namespace unikv
