#ifndef UNIKV_PERFBENCH_TRACE_ENV_H_
#define UNIKV_PERFBENCH_TRACE_ENV_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/env.h"

namespace perfbench {

/// What a file holds, from its name in the DB directory.
enum FileKind {
  kWal, kTable, kVlog, kManifest, kAnchors, kIndex, kOtherFile, kNumFileKinds
};

/// One Env call kind. kZeroCopy is a ReadZeroCopy that the file served
/// from its memory mapping; the page faults it causes land later, in
/// whoever touches the bytes.
enum CallKind {
  kOpen, kRead, kZeroCopy, kAppend, kFlush, kSync, kRename, kRemove,
  kNumCallKinds
};

/// Who caused an Env call: the client op running on the calling thread,
/// or, on any thread the benchmark does not own, the engine itself
/// (flush/merge/GC/split workers and the value-fetch pool).
enum Attrib { kBackground, kGet, kMultiGet, kPut, kScan, kNumAttribs };

const char* FileKindName(int kind);
FileKind ClassifyFile(const std::string& fname);

struct CallTotals {
  uint64_t count = 0;
  uint64_t bytes = 0;
  uint64_t ns = 0;
};

/// Aggregated spans: [attribution][file kind][call kind].
struct SpanTable {
  std::array<std::array<std::array<CallTotals, kNumCallKinds>, kNumFileKinds>,
             kNumAttribs>
      cell{};

  CallTotals& at(int a, int f, int c) { return cell[a][f][c]; }
  const CallTotals& at(int a, int f, int c) const { return cell[a][f][c]; }
  void Add(const SpanTable& other);
};

/// Per-thread tracing state of a client thread. The client sets `op`
/// around each call into the DB and `traced` when the op falls in a
/// traced slice; the Env folds each span of that op into `spans` and
/// `op_env_ns` (the op's child-span time; `op_wal_ns` is the WAL part).
struct ClientTrace {
  Attrib op = kBackground;
  bool traced = false;
  uint64_t op_env_ns = 0;
  uint64_t op_wal_ns = 0;
  SpanTable spans;
};

/// Installs (or, with nullptr, removes) the calling thread's client state.
void SetClientTrace(ClientTrace* trace);

/// A benchmark-owned Env wrapper. Always counts bytes written per file
/// kind (for write amplification) and turns Sync/SyncDir into a flush to
/// the OS (see TracedWritableFile::Sync). While tracing is on it also times
/// every open, read, append, flush, sync, rename and remove, attributing
/// each span to the client op running on the calling thread or to
/// background work. With `corrupt_vlog_every` = n > 0 it flips one byte
/// in every n-th value-log read made by a client thread (and serves
/// those reads by copy, never zero-copy) — used to prove the benchmark
/// counts wrong results.
class TraceEnv : public unikv::Env {
 public:
  explicit TraceEnv(unikv::Env* base, uint64_t corrupt_vlog_every = 0);

  /// Turns span recording for engine-owned threads on or off.
  void SetBackgroundTracing(bool on) {
    bg_tracing_.store(on, std::memory_order_relaxed);
  }
  bool background_tracing() const {
    return bg_tracing_.load(std::memory_order_relaxed);
  }

  /// Total bytes appended to files of each kind since construction.
  std::array<uint64_t, kNumFileKinds> BytesWritten() const;
  /// Snapshot of the spans recorded on engine-owned threads.
  SpanTable BackgroundSpans() const;
  uint64_t corrupted_reads() const {
    return corrupted_.load(std::memory_order_relaxed);
  }

  // Env interface.
  unikv::Status NewSequentialFile(
      const std::string& fname,
      std::unique_ptr<unikv::SequentialFile>* result) override;
  unikv::Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<unikv::RandomAccessFile>* result) override;
  unikv::Status NewWritableFile(
      const std::string& fname,
      std::unique_ptr<unikv::WritableFile>* result) override;
  unikv::Status NewAppendableFile(
      const std::string& fname,
      std::unique_ptr<unikv::WritableFile>* result) override;
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  unikv::Status GetChildren(const std::string& dir,
                            std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  unikv::Status RemoveFile(const std::string& fname) override;
  unikv::Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  unikv::Status RemoveDir(const std::string& dirname) override {
    return base_->RemoveDir(dirname);
  }
  unikv::Status GetFileSize(const std::string& fname,
                            uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  unikv::Status RenameFile(const std::string& src,
                           const std::string& target) override;
  unikv::Status SyncDir(const std::string& dirname) override;
  unikv::Status LockFile(const std::string& fname,
                         unikv::FileLock** lock) override {
    return base_->LockFile(fname, lock);
  }
  unikv::Status UnlockFile(unikv::FileLock* lock) override {
    return base_->UnlockFile(lock);
  }
  uint64_t NowMicros() override { return base_->NowMicros(); }
  void SleepForMicroseconds(int micros) override {
    base_->SleepForMicroseconds(micros);
  }

  // Used by the file wrappers.
  bool ShouldTrace() const;
  void Record(FileKind file, CallKind call, uint64_t bytes, uint64_t ns);
  void CountWrite(FileKind file, uint64_t bytes) {
    written_[file].fetch_add(bytes, std::memory_order_relaxed);
  }
  bool corrupting() const { return corrupt_every_ > 0; }
  /// True when this client-thread vlog read is one to corrupt.
  bool TakeCorruptTurn();

 private:
  struct AtomicTotals {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> bytes{0};
    std::atomic<uint64_t> ns{0};
  };

  unikv::Env* const base_;
  const uint64_t corrupt_every_;
  std::atomic<bool> bg_tracing_{false};
  std::atomic<uint64_t> vlog_client_reads_{0};
  std::atomic<uint64_t> corrupted_{0};
  std::array<std::atomic<uint64_t>, kNumFileKinds> written_{};
  AtomicTotals bg_[kNumFileKinds][kNumCallKinds];
};

}  // namespace perfbench

#endif  // UNIKV_PERFBENCH_TRACE_ENV_H_
