#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "util/env.h"
#include "util/sync.h"

namespace unikv {

namespace {

Status PosixError(const std::string& context, int error_number) {
  if (error_number == ENOENT) {
    return Status::NotFound(context, std::strerror(error_number));
  }
  return Status::IOError(context, std::strerror(error_number));
}

class PosixSequentialFile final : public SequentialFile {
 public:
  PosixSequentialFile(std::string filename, int fd)
      : fd_(fd), filename_(std::move(filename)) {}
  ~PosixSequentialFile() override { close(fd_); }

  Status Read(size_t n, Slice* result, char* scratch) override {
    while (true) {
      ssize_t read_size = ::read(fd_, scratch, n);
      if (read_size < 0) {
        if (errno == EINTR) {
          continue;
        }
        return PosixError(filename_, errno);
      }
      *result = Slice(scratch, read_size);
      break;
    }
    return Status::OK();
  }

  Status Skip(uint64_t n) override {
    if (::lseek(fd_, n, SEEK_CUR) == static_cast<off_t>(-1)) {
      return PosixError(filename_, errno);
    }
    return Status::OK();
  }

 private:
  const int fd_;
  const std::string filename_;
};

class PosixRandomAccessFile final : public RandomAccessFile {
 public:
  PosixRandomAccessFile(std::string filename, int fd)
      : fd_(fd), filename_(std::move(filename)) {}
  ~PosixRandomAccessFile() override {
    for (const auto& m : mappings_) {
      ::munmap(m.first, m.second);
    }
    close(fd_);
  }

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    ssize_t read_size = ::pread(fd_, scratch, n, static_cast<off_t>(offset));
    *result = Slice(scratch, (read_size < 0) ? 0 : read_size);
    if (read_size < 0) {
      return PosixError(filename_, errno);
    }
    return Status::OK();
  }

  bool ReadZeroCopy(uint64_t offset, size_t n, Slice* result) const override {
    MutexLock l(&map_mu_);
    if (map_ == nullptr || offset + n > map_len_) {
      // (Re)map lazily at the file's current size. An earlier, shorter
      // mapping may still back live Slices, so it is retired — kept until
      // the destructor — instead of munmapped here. Growth is rare (only
      // a log that was still being appended when first mapped), so the
      // retired list stays tiny.
      struct stat st;
      if (::fstat(fd_, &st) != 0) return false;
      const uint64_t size = static_cast<uint64_t>(st.st_size);
      if (offset + n > size || size == 0) return false;
      void* base = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd_, 0);
      if (base == MAP_FAILED) return false;
      mappings_.emplace_back(base, size);
      map_ = static_cast<const char*>(base);
      map_len_ = size;
    }
    *result = Slice(map_ + offset, n);
    return true;
  }

 private:
  const int fd_;
  const std::string filename_;
  mutable Mutex map_mu_;
  // Current (longest) mapping.
  mutable const char* map_ GUARDED_BY(map_mu_) = nullptr;
  mutable uint64_t map_len_ GUARDED_BY(map_mu_) = 0;
  // All mappings ever made, for the destructor (old ones may still back
  // live Slices). The dtor reads this without map_mu_: no concurrent
  // readers can exist once destruction starts.
  mutable std::vector<std::pair<void*, size_t>> mappings_;
};

constexpr size_t kWritableFileBufferSize = 65536;

class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(std::string filename, int fd)
      : pos_(0), fd_(fd), filename_(std::move(filename)) {}

  ~PosixWritableFile() override {
    if (fd_ >= 0) {
      // Destructor: nowhere to report. Callers that care about the final
      // flush call Close() themselves and check it.
      (void)Close();
    }
  }

  Status Append(const Slice& data) override {
    size_t write_size = data.size();
    const char* write_data = data.data();

    // Fit as much as possible into the buffer.
    size_t copy_size = std::min(write_size, kWritableFileBufferSize - pos_);
    std::memcpy(buf_ + pos_, write_data, copy_size);
    write_data += copy_size;
    write_size -= copy_size;
    pos_ += copy_size;
    if (write_size == 0) {
      return Status::OK();
    }

    Status status = FlushBuffer();
    if (!status.ok()) {
      return status;
    }

    // Small leftovers go to the buffer; large writes go straight to disk.
    if (write_size < kWritableFileBufferSize) {
      std::memcpy(buf_, write_data, write_size);
      pos_ = write_size;
      return Status::OK();
    }
    return WriteUnbuffered(write_data, write_size);
  }

  Status Close() override {
    Status status = FlushBuffer();
    const int close_result = ::close(fd_);
    if (close_result < 0 && status.ok()) {
      status = PosixError(filename_, errno);
    }
    fd_ = -1;
    return status;
  }

  Status Flush() override { return FlushBuffer(); }

  Status Sync() override {
    Status status = FlushBuffer();
    if (!status.ok()) {
      return status;
    }
    if (::fdatasync(fd_) != 0) {
      return PosixError(filename_, errno);
    }
    return Status::OK();
  }

 private:
  Status FlushBuffer() {
    Status status = WriteUnbuffered(buf_, pos_);
    pos_ = 0;
    return status;
  }

  Status WriteUnbuffered(const char* data, size_t size) {
    while (size > 0) {
      ssize_t write_result = ::write(fd_, data, size);
      if (write_result < 0) {
        if (errno == EINTR) {
          continue;
        }
        return PosixError(filename_, errno);
      }
      data += write_result;
      size -= write_result;
    }
    return Status::OK();
  }

  char buf_[kWritableFileBufferSize];
  size_t pos_;
  int fd_;
  const std::string filename_;
};

class PosixFileLock : public FileLock {
 public:
  PosixFileLock(int fd, std::string filename)
      : fd_(fd), filename_(std::move(filename)) {}
  int fd() const { return fd_; }
  const std::string& filename() const { return filename_; }

 private:
  int fd_;
  std::string filename_;
};

class PosixEnv : public Env {
 public:
  // flock(2) locks conflict per open file description, so a second
  // LockFile on the same path is refused whether the holder is another
  // process or another DB instance in this one.
  Status LockFile(const std::string& filename, FileLock** lock) override {
    *lock = nullptr;
    int fd = ::open(filename.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) {
      return PosixError(filename, errno);
    }
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
      int err = errno;
      ::close(fd);
      return Status::IOError(filename,
                             err == EWOULDBLOCK
                                 ? "lock held by another process"
                                 : std::strerror(err));
    }
    *lock = new PosixFileLock(fd, filename);
    return Status::OK();
  }

  Status UnlockFile(FileLock* lock) override {
    if (lock == nullptr) return Status::OK();
    auto* held = static_cast<PosixFileLock*>(lock);
    Status s;
    if (::flock(held->fd(), LOCK_UN) != 0) {
      s = PosixError(held->filename(), errno);
    }
    ::close(held->fd());
    delete held;
    return s;
  }

  Status NewSequentialFile(const std::string& filename,
                           std::unique_ptr<SequentialFile>* result) override {
    int fd = ::open(filename.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      result->reset();
      return PosixError(filename, errno);
    }
    result->reset(new PosixSequentialFile(filename, fd));
    return Status::OK();
  }

  Status NewRandomAccessFile(
      const std::string& filename,
      std::unique_ptr<RandomAccessFile>* result) override {
    int fd = ::open(filename.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      result->reset();
      return PosixError(filename, errno);
    }
    result->reset(new PosixRandomAccessFile(filename, fd));
    return Status::OK();
  }

  Status NewWritableFile(const std::string& filename,
                         std::unique_ptr<WritableFile>* result) override {
    int fd = ::open(filename.c_str(),
                    O_TRUNC | O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) {
      result->reset();
      return PosixError(filename, errno);
    }
    result->reset(new PosixWritableFile(filename, fd));
    return Status::OK();
  }

  Status NewAppendableFile(const std::string& filename,
                           std::unique_ptr<WritableFile>* result) override {
    int fd = ::open(filename.c_str(),
                    O_APPEND | O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) {
      result->reset();
      return PosixError(filename, errno);
    }
    result->reset(new PosixWritableFile(filename, fd));
    return Status::OK();
  }

  bool FileExists(const std::string& filename) override {
    return ::access(filename.c_str(), F_OK) == 0;
  }

  Status GetChildren(const std::string& directory_path,
                     std::vector<std::string>* result) override {
    result->clear();
    ::DIR* dir = ::opendir(directory_path.c_str());
    if (dir == nullptr) {
      return PosixError(directory_path, errno);
    }
    struct ::dirent* entry;
    while ((entry = ::readdir(dir)) != nullptr) {
      if (std::strcmp(entry->d_name, ".") == 0 ||
          std::strcmp(entry->d_name, "..") == 0) {
        continue;
      }
      result->emplace_back(entry->d_name);
    }
    ::closedir(dir);
    return Status::OK();
  }

  Status RemoveFile(const std::string& filename) override {
    if (::unlink(filename.c_str()) != 0) {
      return PosixError(filename, errno);
    }
    return Status::OK();
  }

  Status CreateDir(const std::string& dirname) override {
    if (::mkdir(dirname.c_str(), 0755) != 0) {
      if (errno == EEXIST) {
        return Status::OK();
      }
      return PosixError(dirname, errno);
    }
    return Status::OK();
  }

  Status RemoveDir(const std::string& dirname) override {
    if (::rmdir(dirname.c_str()) != 0) {
      return PosixError(dirname, errno);
    }
    return Status::OK();
  }

  Status GetFileSize(const std::string& filename, uint64_t* size) override {
    struct ::stat file_stat;
    if (::stat(filename.c_str(), &file_stat) != 0) {
      *size = 0;
      return PosixError(filename, errno);
    }
    if (S_ISDIR(file_stat.st_mode)) {
      *size = 0;
      return Status::IOError(filename, "is a directory");
    }
    *size = file_stat.st_size;
    return Status::OK();
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (std::rename(from.c_str(), to.c_str()) != 0) {
      return PosixError(from, errno);
    }
    return Status::OK();
  }

  Status SyncDir(const std::string& dirname) override {
    int fd = ::open(dirname.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      return PosixError(dirname, errno);
    }
    Status s;
    if (::fsync(fd) != 0) {
      s = PosixError(dirname, errno);
    }
    ::close(fd);
    return s;
  }

  uint64_t NowMicros() override {
    struct ::timeval tv;
    ::gettimeofday(&tv, nullptr);
    return static_cast<uint64_t>(tv.tv_sec) * 1000000 + tv.tv_usec;
  }

  void SleepForMicroseconds(int micros) override { ::usleep(micros); }
};

}  // namespace

Env* Env::Default() {
  static PosixEnv* env = new PosixEnv();
  return env;
}

}  // namespace unikv
