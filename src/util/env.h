#ifndef UNIKV_UTIL_ENV_H_
#define UNIKV_UTIL_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/slice.h"
#include "util/status.h"

namespace unikv {

/// A file abstraction for reading sequentially through a file.
class SequentialFile {
 public:
  virtual ~SequentialFile() = default;

  /// Reads up to n bytes. Sets *result to the data read (may point into
  /// scratch, which must be at least n bytes).
  virtual Status Read(size_t n, Slice* result, char* scratch) = 0;
  virtual Status Skip(uint64_t n) = 0;
};

/// A file abstraction for randomly reading the contents of a file.
/// Thread-safe for concurrent Read() calls.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  virtual Status Read(uint64_t offset, size_t n, Slice* result,
                      char* scratch) const = 0;

  /// Zero-copy read: if [offset, offset+n) is directly addressable (e.g.
  /// the implementation memory-maps the file), points *result at those
  /// bytes — valid until the file object is destroyed — and returns true.
  /// Returns false when not supported or the range is not addressable
  /// (caller falls back to Read). Thread-safe like Read.
  virtual bool ReadZeroCopy(uint64_t offset, size_t n, Slice* result) const {
    (void)offset;
    (void)n;
    (void)result;
    return false;
  }

  /// Advises that [offset, offset+n) will be read soon. A no-op here, and
  /// no engine path calls it; kept as an override point for Env wrappers.
  virtual void ReadaheadHint(uint64_t offset, size_t n) const {
    (void)offset;
    (void)n;
  }
};

/// A file abstraction for sequential (append-only) writing.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual Status Append(const Slice& data) = 0;
  virtual Status Close() = 0;
  virtual Status Flush() = 0;
  /// Persists buffered and OS-cached data to stable storage.
  virtual Status Sync() = 0;
};

/// Env abstracts the operating-system facilities the store uses, so tests
/// can substitute an in-memory filesystem and benchmarks can instrument I/O.
/// Opaque handle for a held DB-directory lock; release via
/// Env::UnlockFile.
class FileLock {
 public:
  FileLock() = default;
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;
  virtual ~FileLock() = default;
};

class Env {
 public:
  virtual ~Env() = default;

  /// The default Env, backed by the local POSIX filesystem. Never deleted.
  static Env* Default();

  /// Acquires an exclusive advisory lock on `fname` (created if missing)
  /// and returns a handle the caller must release via UnlockFile. Fails —
  /// without blocking — while any other holder has it. The base
  /// implementation excludes holders within this process by pathname
  /// (enough for in-memory Envs); PosixEnv overrides it with flock(2) so
  /// a second *process* opening the same DB directory is refused too.
  virtual Status LockFile(const std::string& fname, FileLock** lock);
  virtual Status UnlockFile(FileLock* lock);

  virtual Status NewSequentialFile(const std::string& fname,
                                   std::unique_ptr<SequentialFile>* result) = 0;
  virtual Status NewRandomAccessFile(
      const std::string& fname, std::unique_ptr<RandomAccessFile>* result) = 0;
  virtual Status NewWritableFile(const std::string& fname,
                                 std::unique_ptr<WritableFile>* result) = 0;
  /// Opens for append, creating if missing.
  virtual Status NewAppendableFile(const std::string& fname,
                                   std::unique_ptr<WritableFile>* result) = 0;

  virtual bool FileExists(const std::string& fname) = 0;
  virtual Status GetChildren(const std::string& dir,
                             std::vector<std::string>* result) = 0;
  virtual Status RemoveFile(const std::string& fname) = 0;
  virtual Status CreateDir(const std::string& dirname) = 0;
  virtual Status RemoveDir(const std::string& dirname) = 0;
  virtual Status GetFileSize(const std::string& fname, uint64_t* size) = 0;
  virtual Status RenameFile(const std::string& src,
                            const std::string& target) = 0;

  /// Persists directory metadata (file creations, deletions and renames
  /// inside `dirname`) to stable storage. A RenameFile is only guaranteed
  /// to survive a crash once the parent directory has been synced. The
  /// default is a no-op for Envs whose metadata operations are durable
  /// immediately (e.g. MemEnv).
  virtual Status SyncDir(const std::string& dirname) {
    (void)dirname;
    return Status::OK();
  }

  virtual uint64_t NowMicros() = 0;
  virtual void SleepForMicroseconds(int micros) = 0;
};

/// I/O counters accumulated by InstrumentedEnv; used to compute read/write
/// amplification in benchmarks.
struct IoStats {
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> syncs{0};

  void Reset() {
    bytes_read = 0;
    bytes_written = 0;
    reads = 0;
    writes = 0;
    syncs = 0;
  }
};

/// An Env wrapper that forwards all calls to a base Env while counting
/// bytes read/written and sync calls.
class InstrumentedEnv : public Env {
 public:
  explicit InstrumentedEnv(Env* base) : base_(base) {}

  IoStats* stats() { return &stats_; }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override;
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override;
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;
  Status NewAppendableFile(const std::string& fname,
                           std::unique_ptr<WritableFile>* result) override;

  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  Status RemoveDir(const std::string& dirname) override {
    return base_->RemoveDir(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }
  Status SyncDir(const std::string& dirname) override {
    return base_->SyncDir(dirname);
  }
  Status LockFile(const std::string& fname, FileLock** lock) override {
    return base_->LockFile(fname, lock);
  }
  Status UnlockFile(FileLock* lock) override {
    return base_->UnlockFile(lock);
  }
  uint64_t NowMicros() override { return base_->NowMicros(); }
  void SleepForMicroseconds(int micros) override {
    base_->SleepForMicroseconds(micros);
  }

 private:
  Env* base_;
  IoStats stats_;
};

/// Creates a new in-memory Env for tests. Supports crash simulation: files
/// track which prefix has been Sync()ed, and DropUnsyncedData() reverts all
/// files to their last-synced state as a power failure would.
class MemEnv;
MemEnv* NewMemEnv();

class MemEnv : public Env {
 public:
  /// Simulates a power failure: truncates every file back to the last
  /// explicitly synced length and forgets unsynced renames/creations.
  virtual void DropUnsyncedData() = 0;
};

/// Removes `dir` and everything inside it (one level; subdirectories are
/// recursed). Utility for tests and benchmarks.
Status RemoveDirRecursively(Env* env, const std::string& dir);

}  // namespace unikv

#endif  // UNIKV_UTIL_ENV_H_
