#include "core/version.h"

#include <algorithm>

#include "core/filename.h"
#include "util/coding.h"
#include "util/env.h"
#include "wal/log_reader.h"
#include "wal/log_writer.h"

namespace unikv {

// ---------------------------------------------------------------- Version

int VersionData::FindPartition(const Slice& user_key) const {
  // Binary search over lower bounds: rightmost partition whose lower_bound
  // is <= user_key.
  int lo = 0, hi = static_cast<int>(partitions.size()) - 1;
  while (lo < hi) {
    int mid = (lo + hi + 1) / 2;
    if (Slice(partitions[mid]->lower_bound).compare(user_key) <= 0) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

std::shared_ptr<const PartitionState> VersionData::FindById(
    uint32_t pid) const {
  for (const auto& p : partitions) {
    if (p->id == pid) return p;
  }
  return nullptr;
}

void VersionData::AddLiveFiles(std::set<uint64_t>* live) const {
  for (const auto& p : partitions) {
    for (const auto& f : p->unsorted) live->insert(f.number);
    for (const auto& f : p->sorted) live->insert(f.number);
    for (const auto& v : p->vlogs) live->insert(v.number);
  }
}

// ------------------------------------------------------------ VersionEdit

namespace {

enum EditTag : uint32_t {
  kLogNumber = 1,
  kNextFileNumber = 2,
  kLastSequence = 3,
  kNewPartition = 4,
  kAddUnsorted = 6,
  kRemoveUnsorted = 7,
  kAddSorted = 8,
  kRemoveSorted = 9,
  kAddVlog = 10,
  kRemoveVlog = 11,
  // Retired tags, never reused: 5 (a partition removal; nothing wrote
  // one), 12 (a hash-index checkpoint file) and 13 (a persisted anchor
  // view). An edit carrying one fails to decode, so a MANIFEST of a store
  // from before key-hash blocks does not open (DESIGN.md §2).
  // An unsorted reference: kAddUnsorted's fields plus its share and hash
  // slice. A kAddUnsorted record decodes as a reference to the whole file.
  kAddUnsortedRef = 14,
};

void PutFileMeta(std::string* dst, const FileMeta& f) {
  PutVarint64(dst, f.number);
  PutVarint64(dst, f.size);
  PutVarint64(dst, f.logical);
  PutVarint32(dst, f.table_id);
  PutLengthPrefixedSlice(dst, Slice(f.smallest));
  PutLengthPrefixedSlice(dst, Slice(f.largest));
}

bool GetFileMeta(Slice* input, FileMeta* f) {
  Slice smallest, largest;
  if (!GetVarint64(input, &f->number) || !GetVarint64(input, &f->size) ||
      !GetVarint64(input, &f->logical) || !GetVarint32(input, &f->table_id) ||
      !GetLengthPrefixedSlice(input, &smallest) ||
      !GetLengthPrefixedSlice(input, &largest)) {
    return false;
  }
  f->smallest = smallest.ToString();
  f->largest = largest.ToString();
  return true;
}

}  // namespace

void VersionEdit::EncodeTo(std::string* dst) const {
  if (has_log_number_) {
    PutVarint32(dst, kLogNumber);
    PutVarint64(dst, log_number_);
  }
  if (has_next_file_number_) {
    PutVarint32(dst, kNextFileNumber);
    PutVarint64(dst, next_file_number_);
  }
  if (has_last_sequence_) {
    PutVarint32(dst, kLastSequence);
    PutVarint64(dst, last_sequence_);
  }
  for (const auto& [pid, lower] : new_partitions_) {
    PutVarint32(dst, kNewPartition);
    PutVarint32(dst, pid);
    PutLengthPrefixedSlice(dst, Slice(lower));
  }
  for (const auto& [pid, f] : new_unsorted_) {
    PutVarint32(dst, kAddUnsortedRef);
    PutVarint32(dst, pid);
    PutFileMeta(dst, f);
    PutVarint64(dst, f.share);
    PutVarint32(dst, f.hash_begin);
    PutVarint32(dst, f.hash_end);
  }
  for (const auto& [pid, number] : removed_unsorted_) {
    PutVarint32(dst, kRemoveUnsorted);
    PutVarint32(dst, pid);
    PutVarint64(dst, number);
  }
  for (const auto& [pid, f] : new_sorted_) {
    PutVarint32(dst, kAddSorted);
    PutVarint32(dst, pid);
    PutFileMeta(dst, f);
  }
  for (const auto& [pid, number] : removed_sorted_) {
    PutVarint32(dst, kRemoveSorted);
    PutVarint32(dst, pid);
    PutVarint64(dst, number);
  }
  for (const auto& [pid, v] : new_vlogs_) {
    PutVarint32(dst, kAddVlog);
    PutVarint32(dst, pid);
    PutVarint64(dst, v.number);
    PutVarint64(dst, v.size);
  }
  for (const auto& [pid, number] : removed_vlogs_) {
    PutVarint32(dst, kRemoveVlog);
    PutVarint32(dst, pid);
    PutVarint64(dst, number);
  }
}

Status VersionEdit::DecodeFrom(const Slice& src) {
  Clear();
  Slice input = src;
  uint32_t tag;
  while (GetVarint32(&input, &tag)) {
    uint32_t pid;
    uint64_t number;
    FileMeta f;
    switch (tag) {
      case kLogNumber:
        if (!GetVarint64(&input, &log_number_)) {
          return Status::Corruption("bad edit: log number");
        }
        has_log_number_ = true;
        break;
      case kNextFileNumber:
        if (!GetVarint64(&input, &next_file_number_)) {
          return Status::Corruption("bad edit: next file number");
        }
        has_next_file_number_ = true;
        break;
      case kLastSequence:
        if (!GetVarint64(&input, &last_sequence_)) {
          return Status::Corruption("bad edit: last sequence");
        }
        has_last_sequence_ = true;
        break;
      case kNewPartition: {
        Slice lower;
        if (!GetVarint32(&input, &pid) ||
            !GetLengthPrefixedSlice(&input, &lower)) {
          return Status::Corruption("bad edit: new partition");
        }
        new_partitions_.emplace_back(pid, lower.ToString());
        break;
      }
      case kAddUnsorted:
        if (!GetVarint32(&input, &pid) || !GetFileMeta(&input, &f)) {
          return Status::Corruption("bad edit: add unsorted");
        }
        f.share = f.size;
        new_unsorted_.emplace_back(pid, f);
        break;
      case kAddUnsortedRef:
        if (!GetVarint32(&input, &pid) || !GetFileMeta(&input, &f) ||
            !GetVarint64(&input, &f.share) ||
            !GetVarint32(&input, &f.hash_begin) ||
            !GetVarint32(&input, &f.hash_end)) {
          return Status::Corruption("bad edit: add unsorted reference");
        }
        new_unsorted_.emplace_back(pid, f);
        break;
      case kRemoveUnsorted:
        if (!GetVarint32(&input, &pid) || !GetVarint64(&input, &number)) {
          return Status::Corruption("bad edit: remove unsorted");
        }
        removed_unsorted_.emplace_back(pid, number);
        break;
      case kAddSorted:
        if (!GetVarint32(&input, &pid) || !GetFileMeta(&input, &f)) {
          return Status::Corruption("bad edit: add sorted");
        }
        new_sorted_.emplace_back(pid, f);
        break;
      case kRemoveSorted:
        if (!GetVarint32(&input, &pid) || !GetVarint64(&input, &number)) {
          return Status::Corruption("bad edit: remove sorted");
        }
        removed_sorted_.emplace_back(pid, number);
        break;
      case kAddVlog: {
        VlogMeta v;
        if (!GetVarint32(&input, &pid) || !GetVarint64(&input, &v.number) ||
            !GetVarint64(&input, &v.size)) {
          return Status::Corruption("bad edit: add vlog");
        }
        new_vlogs_.emplace_back(pid, v);
        break;
      }
      case kRemoveVlog:
        if (!GetVarint32(&input, &pid) || !GetVarint64(&input, &number)) {
          return Status::Corruption("bad edit: remove vlog");
        }
        removed_vlogs_.emplace_back(pid, number);
        break;
      default:
        return Status::Corruption("unknown version edit tag");
    }
  }
  return Status::OK();
}

// ------------------------------------------------------------- VersionSet

VersionSet::VersionSet(Env* env, std::string dbname)
    : env_(env), dbname_(std::move(dbname)) {
  current_ = std::make_shared<VersionData>();
}

VersionSet::~VersionSet() = default;

Status VersionSet::Apply(const VersionEdit& edit, VersionPtr base,
                         VersionPtr* result) {
  // Materialize a mutable copy of the partition map.
  std::map<uint32_t, PartitionState> parts;
  for (const auto& p : base->partitions) {
    parts[p->id] = *p;
  }

  if (edit.has_log_number_) log_number_ = edit.log_number_;
  if (edit.has_next_file_number_) {
    // CAS-max: NewFileNumber() may be racing from writer threads rotating
    // shard WALs, so never move the counter backwards.
    uint64_t cur = next_file_number_.load(std::memory_order_relaxed);
    while (edit.next_file_number_ > cur &&
           !next_file_number_.compare_exchange_weak(
               cur, edit.next_file_number_, std::memory_order_relaxed)) {
    }
  }
  if (edit.has_last_sequence_ && edit.last_sequence_ > last_sequence_) {
    last_sequence_ = edit.last_sequence_;
  }

  for (const auto& [pid, lower] : edit.new_partitions_) {
    PartitionState p;
    p.id = pid;
    p.lower_bound = lower;
    parts[pid] = std::move(p);
    if (pid >= next_partition_id_) next_partition_id_ = pid + 1;
  }

  auto find = [&parts](uint32_t pid) -> PartitionState* {
    auto it = parts.find(pid);
    return it == parts.end() ? nullptr : &it->second;
  };

  // Removals apply before additions, so one edit can replace an entry of
  // a partition in place (a split narrowing a reference).
  for (const auto& [pid, number] : edit.removed_unsorted_) {
    PartitionState* p = find(pid);
    if (p == nullptr) return Status::Corruption("edit: unknown partition");
    std::erase_if(p->unsorted,
                  [number](const FileMeta& f) { return f.number == number; });
  }
  for (const auto& [pid, f] : edit.new_unsorted_) {
    PartitionState* p = find(pid);
    if (p == nullptr) return Status::Corruption("edit: unknown partition");
    p->unsorted.push_back(f);
  }
  for (const auto& [pid, number] : edit.removed_sorted_) {
    PartitionState* p = find(pid);
    if (p == nullptr) return Status::Corruption("edit: unknown partition");
    std::erase_if(p->sorted,
                  [number](const FileMeta& f) { return f.number == number; });
  }
  for (const auto& [pid, f] : edit.new_sorted_) {
    PartitionState* p = find(pid);
    if (p == nullptr) return Status::Corruption("edit: unknown partition");
    p->sorted.push_back(f);
  }
  for (const auto& [pid, number] : edit.removed_vlogs_) {
    PartitionState* p = find(pid);
    if (p == nullptr) return Status::Corruption("edit: unknown partition");
    std::erase_if(p->vlogs,
                  [number](const VlogMeta& v) { return v.number == number; });
  }
  for (const auto& [pid, v] : edit.new_vlogs_) {
    PartitionState* p = find(pid);
    if (p == nullptr) return Status::Corruption("edit: unknown partition");
    p->vlogs.push_back(v);
  }

  std::vector<PartitionState> ordered;
  for (auto& [pid, p] : parts) {
    // Keep unsorted files in age order (the hash index names them by
    // position) and sorted files in key order.
    std::stable_sort(p.unsorted.begin(), p.unsorted.end(),
                     [](const FileMeta& a, const FileMeta& b) {
                       return a.table_id < b.table_id;
                     });
    std::sort(p.sorted.begin(), p.sorted.end(),
              [](const FileMeta& a, const FileMeta& b) {
                return a.smallest < b.smallest;
              });
    ordered.push_back(std::move(p));
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const PartitionState& a, const PartitionState& b) {
              return a.lower_bound < b.lower_bound;
            });
  auto next = std::make_shared<VersionData>();
  for (size_t i = 0; i < ordered.size(); i++) {
    // Each partition ends where the next begins.
    ordered[i].upper_bound =
        i + 1 < ordered.size() ? ordered[i + 1].lower_bound : std::string();
    next->partitions.push_back(
        std::make_shared<const PartitionState>(std::move(ordered[i])));
  }
  *result = std::move(next);
  return Status::OK();
}

Status VersionSet::WriteSnapshot(log::Writer* log) {
  VersionEdit edit;
  edit.SetLogNumber(log_number_);
  edit.SetNextFileNumber(next_file_number_.load(std::memory_order_relaxed));
  edit.SetLastSequence(last_sequence_);
  const VersionPtr snap = current();
  for (const auto& p : snap->partitions) {
    edit.AddPartition(p->id, p->lower_bound);
    for (const auto& f : p->unsorted) edit.AddUnsortedFile(p->id, f);
    for (const auto& f : p->sorted) edit.AddSortedFile(p->id, f);
    for (const auto& v : p->vlogs) edit.AddValueLog(p->id, v);
  }
  std::string record;
  edit.EncodeTo(&record);
  return log->AddRecord(record);
}

Status VersionSet::CreateNew() {
  // Bootstrap: one empty partition covering the whole key space.
  VersionEdit edit;
  edit.AddPartition(0, "");
  edit.SetNextFileNumber(next_file_number_.load(std::memory_order_relaxed));
  VersionPtr next;
  Status s = Apply(edit, current(), &next);
  if (!s.ok()) return s;
  {
    MutexLock l(&current_mu_);
    current_ = std::move(next);
  }
  next_partition_id_ = 1;
  return Status::OK();
}

namespace {
struct LogReporter : public log::Reader::Reporter {
  Status* status;
  void Corruption(size_t /*bytes*/, const Status& s) override {
    if (status->ok()) *status = s;
  }
};
}  // namespace

Status VersionSet::Recover(bool create_if_missing, bool error_if_exists) {
  // Usually exists already (DB::Open created it to take the lock file);
  // a real failure surfaces on the manifest open below.
  (void)env_->CreateDir(dbname_);

  const std::string current_name = CurrentFileName(dbname_);
  if (!env_->FileExists(current_name)) {
    if (!create_if_missing) {
      return Status::InvalidArgument(dbname_, "does not exist");
    }
    Status s = CreateNew();
    if (!s.ok()) return s;
  } else {
    if (error_if_exists) {
      return Status::InvalidArgument(dbname_, "exists");
    }
    // Read CURRENT to find the manifest.
    std::unique_ptr<SequentialFile> current_file;
    Status s = env_->NewSequentialFile(current_name, &current_file);
    if (!s.ok()) return s;
    char buf[64];
    Slice contents;
    s = current_file->Read(sizeof(buf), &contents, buf);
    if (!s.ok()) return s;
    std::string manifest(contents.data(), contents.size());
    while (!manifest.empty() &&
           (manifest.back() == '\n' || manifest.back() == '\0')) {
      manifest.pop_back();
    }
    if (manifest.empty()) {
      return Status::Corruption("CURRENT file is empty");
    }

    std::unique_ptr<SequentialFile> file;
    s = env_->NewSequentialFile(dbname_ + "/" + manifest, &file);
    if (!s.ok()) return s;

    uint64_t manifest_number = 0;
    FileType type;
    ParseFileName(manifest, &manifest_number, &type);
    if (manifest_number >= next_file_number_.load(std::memory_order_relaxed)) {
      next_file_number_.store(manifest_number + 1, std::memory_order_relaxed);
    }

    Status replay_status;
    LogReporter reporter;
    reporter.status = &replay_status;
    log::Reader reader(file.get(), &reporter, true /*checksum*/);
    Slice record;
    std::string scratch;
    while (reader.ReadRecord(&record, &scratch)) {
      VersionEdit edit;
      s = edit.DecodeFrom(record);
      if (!s.ok()) return s;
      VersionPtr next;
      s = Apply(edit, current(), &next);
      if (!s.ok()) return s;
      {
        MutexLock l(&current_mu_);
        current_ = std::move(next);
      }
    }
    if (!replay_status.ok()) return replay_status;
  }

  // Start a fresh manifest with a snapshot of the recovered state, then
  // point CURRENT at it.
  manifest_file_number_ = NewFileNumber();
  const std::string manifest_name =
      ManifestFileName(dbname_, manifest_file_number_);
  std::unique_ptr<WritableFile> mfile;
  Status s = env_->NewWritableFile(manifest_name, &mfile);
  if (!s.ok()) return s;
  manifest_file_ = std::move(mfile);
  manifest_log_ = std::make_unique<log::Writer>(manifest_file_.get());
  s = WriteSnapshot(manifest_log_.get());
  if (!s.ok()) return s;
  s = manifest_file_->Sync();
  if (!s.ok()) return s;

  // Atomically install CURRENT via a temp file rename.
  const std::string tmp = TempFileName(dbname_, manifest_file_number_);
  std::unique_ptr<WritableFile> tmp_file;
  s = env_->NewWritableFile(tmp, &tmp_file);
  if (!s.ok()) return s;
  std::string base = manifest_name.substr(manifest_name.rfind('/') + 1);
  s = tmp_file->Append(base + "\n");
  if (s.ok()) s = tmp_file->Sync();
  if (s.ok()) s = tmp_file->Close();
  if (s.ok()) s = env_->RenameFile(tmp, current_name);
  // The rename itself is directory metadata: without a parent-directory
  // sync a crash can revert CURRENT to the previous manifest — which
  // RemoveObsoleteFiles may have deleted by then, leaving the store
  // unopenable. Found by the crash harness (tests/db_crash_test.cc).
  if (s.ok()) s = env_->SyncDir(dbname_);
  return s;
}

Status VersionSet::LogAndApply(VersionEdit* edit) {
  edit->SetNextFileNumber(next_file_number_.load(std::memory_order_relaxed));
  edit->SetLastSequence(last_sequence_);

  VersionPtr next;
  Status s = Apply(*edit, current(), &next);
  if (!s.ok()) return s;

  std::string record;
  edit->EncodeTo(&record);
  s = manifest_log_->AddRecord(record);
  if (s.ok()) {
    s = manifest_file_->Sync();
  }
  if (!s.ok()) return s;

  {
    // Readers copy current_ without the DB mutex; guard the store (the
    // outgoing version is pinned so live iterators keep their files).
    MutexLock l(&current_mu_);
    pinned_.push_back(current_);
    current_ = std::move(next);
  }
  // Prune dead weak pointers opportunistically.
  if (pinned_.size() > 64) {
    std::erase_if(pinned_, [](const std::weak_ptr<const VersionData>& w) {
      return w.expired();
    });
  }
  return Status::OK();
}

void VersionSet::AddLiveFiles(std::set<uint64_t>* live) {
  current()->AddLiveFiles(live);
  for (const auto& w : pinned_) {
    if (auto v = w.lock()) {
      v->AddLiveFiles(live);
    }
  }
}

}  // namespace unikv
