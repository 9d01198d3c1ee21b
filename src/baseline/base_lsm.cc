#include "baseline/base_lsm.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>

#include "baseline/baselines.h"
#include "core/db_iter.h"
#include "core/filename.h"
#include "core/merging_iterator.h"
#include "table/cache.h"
#include "util/coding.h"
#include "util/env.h"
#include "wal/log_reader.h"

namespace unikv {
namespace baseline {

Status OpenLeveledDB(const Options& options, const std::string& name,
                     DB** dbptr) {
  return BaseLsmDB::Open(options, name, BaseLsmDB::CompactionStyle::kLeveled,
                         dbptr);
}

Status OpenTieredDB(const Options& options, const std::string& name,
                    DB** dbptr) {
  return BaseLsmDB::Open(options, name, BaseLsmDB::CompactionStyle::kTiered,
                         dbptr);
}

BaseLsmDB::BaseLsmDB(const Options& options, const std::string& dbname,
                     CompactionStyle style)
    : options_(options), dbname_(dbname), style_(style) {
  env_ = options_.env != nullptr ? options_.env : Env::Default();
  options_.env = env_;
  options_.table_options.bloom_bits_per_key =
      options_.baseline_bloom_bits_per_key;
  if (options_.block_cache_size > 0) {
    block_cache_.reset(NewLRUCache(options_.block_cache_size));
  }
  table_cache_ = std::make_unique<TableCache>(
      env_, dbname_, options_.table_options, block_cache_.get());
  levels_.resize(kNumLevels);
}

BaseLsmDB::~BaseLsmDB() {
  if (mem_ != nullptr) mem_->Unref();
}

Status BaseLsmDB::Open(const Options& options, const std::string& name,
                       CompactionStyle style, DB** dbptr) {
  *dbptr = nullptr;
  auto db = std::make_unique<BaseLsmDB>(options, name, style);
  Status s;
  {
    MutexLock lock(&db->mu_);
    s = db->Recover();
  }
  if (!s.ok()) return s;
  *dbptr = db.release();
  return Status::OK();
}

// ---------------------------------------------------------------- manifest

Status BaseLsmDB::PersistManifest() {
  std::string record;
  PutVarint64(&record, last_sequence_);
  PutVarint64(&record, next_file_number_);
  PutVarint64(&record, wal_number_);
  PutVarint32(&record, kNumLevels);
  for (const auto& runs : levels_) {
    PutVarint32(&record, static_cast<uint32_t>(runs.size()));
    for (const Run& run : runs) {
      PutVarint32(&record, static_cast<uint32_t>(run.size()));
      for (const FileMeta& f : run) {
        PutVarint64(&record, f.number);
        PutVarint64(&record, f.size);
        PutLengthPrefixedSlice(&record, Slice(f.smallest));
        PutLengthPrefixedSlice(&record, Slice(f.largest));
      }
    }
  }
  Status s = manifest_log_->AddRecord(record);
  if (s.ok()) s = manifest_file_->Sync();
  return s;
}

namespace {
struct NullReporter : public log::Reader::Reporter {
  void Corruption(size_t, const Status&) override {}
};

bool DecodeSnapshot(const Slice& record, SequenceNumber* last_seq,
                    uint64_t* next_file, uint64_t* wal_number,
                    std::vector<std::vector<std::vector<FileMeta>>>* levels) {
  Slice input = record;
  uint32_t num_levels;
  if (!GetVarint64(&input, last_seq) || !GetVarint64(&input, next_file) ||
      !GetVarint64(&input, wal_number) || !GetVarint32(&input, &num_levels)) {
    return false;
  }
  levels->assign(num_levels, {});
  for (uint32_t l = 0; l < num_levels; l++) {
    uint32_t num_runs;
    if (!GetVarint32(&input, &num_runs)) return false;
    (*levels)[l].resize(num_runs);
    for (uint32_t r = 0; r < num_runs; r++) {
      uint32_t num_files;
      if (!GetVarint32(&input, &num_files)) return false;
      (*levels)[l][r].resize(num_files);
      for (uint32_t i = 0; i < num_files; i++) {
        FileMeta& f = (*levels)[l][r][i];
        Slice smallest, largest;
        if (!GetVarint64(&input, &f.number) || !GetVarint64(&input, &f.size) ||
            !GetLengthPrefixedSlice(&input, &smallest) ||
            !GetLengthPrefixedSlice(&input, &largest)) {
          return false;
        }
        f.smallest = smallest.ToString();
        f.largest = largest.ToString();
      }
    }
  }
  return true;
}
}  // namespace

Status BaseLsmDB::Recover() {
  // The directory usually exists already; a real creation failure
  // surfaces on the first file open below with a better message.
  (void)env_->CreateDir(dbname_);
  const std::string manifest_name = dbname_ + "/BASELINE-MANIFEST";
  if (env_->FileExists(manifest_name)) {
    if (options_.error_if_exists) {
      return Status::InvalidArgument(dbname_, "exists");
    }
    std::unique_ptr<SequentialFile> file;
    Status s = env_->NewSequentialFile(manifest_name, &file);
    if (!s.ok()) return s;
    NullReporter reporter;
    log::Reader reader(file.get(), &reporter, true);
    Slice record;
    std::string scratch;
    bool any = false;
    // Use the newest intact snapshot record.
    while (reader.ReadRecord(&record, &scratch)) {
      SequenceNumber seq;
      uint64_t next_file, wal_number;
      std::vector<std::vector<Run>> levels;
      if (DecodeSnapshot(record, &seq, &next_file, &wal_number, &levels)) {
        last_sequence_ = seq;
        next_file_number_ = next_file;
        wal_number_ = wal_number;
        levels_ = std::move(levels);
        any = true;
      }
    }
    if (!any) return Status::Corruption("no usable baseline manifest record");
    if (levels_.size() < kNumLevels) levels_.resize(kNumLevels);
  } else if (!options_.create_if_missing) {
    return Status::InvalidArgument(dbname_, "does not exist");
  }

  mem_ = new MemTable(icmp_);
  mem_->Ref();

  // Replay WALs at/after the recorded number.
  std::vector<std::string> children;
  // A listing failure here is NOT ignorable: an empty listing would make
  // recovery silently skip every WAL — acknowledged writes vanish.
  Status ls = env_->GetChildren(dbname_, &children);
  if (!ls.ok()) return ls;
  std::vector<uint64_t> wals;
  for (const std::string& child : children) {
    uint64_t number;
    FileType type;
    if (ParseFileName(child, &number, &type) && type == FileType::kWalFile &&
        number >= wal_number_) {
      wals.push_back(number);
    }
  }
  std::sort(wals.begin(), wals.end());
  SequenceNumber max_seq = last_sequence_;
  for (uint64_t number : wals) {
    Status s = ReplayWal(number, &max_seq);
    if (!s.ok()) return s;
  }
  last_sequence_ = max_seq;

  // Fresh WAL + manifest.
  wal_number_ = next_file_number_++;
  std::unique_ptr<WritableFile> lfile;
  Status s = env_->NewWritableFile(WalFileName(dbname_, wal_number_), &lfile);
  if (!s.ok()) return s;
  wal_file_ = std::move(lfile);
  wal_ = std::make_unique<log::Writer>(wal_file_.get());

  std::unique_ptr<WritableFile> mfile;
  s = env_->NewWritableFile(manifest_name, &mfile);  // Truncate + rewrite.
  if (!s.ok()) return s;
  manifest_file_ = std::move(mfile);
  manifest_log_ = std::make_unique<log::Writer>(manifest_file_.get());

  if (mem_->NumEntries() > 0) {
    s = FlushLocked();
    if (!s.ok()) return s;
  } else {
    s = PersistManifest();
    if (!s.ok()) return s;
  }
  RemoveObsoleteFiles();
  return Status::OK();
}

Status BaseLsmDB::ReplayWal(uint64_t number, SequenceNumber* max_seq) {
  std::unique_ptr<SequentialFile> file;
  Status s = env_->NewSequentialFile(WalFileName(dbname_, number), &file);
  if (!s.ok()) return s;
  NullReporter reporter;
  log::Reader reader(file.get(), &reporter, true);
  Slice record;
  std::string scratch;
  WriteBatch batch;
  while (reader.ReadRecord(&record, &scratch)) {
    if (record.size() < 12) continue;
    batch.SetContents(record);
    s = batch.InsertInto(mem_);
    if (!s.ok()) return s;
    SequenceNumber last = batch.Sequence() + batch.Count() - 1;
    if (last > *max_seq) *max_seq = last;
  }
  return Status::OK();
}

Status BaseLsmDB::SwitchWal() {
  wal_number_ = next_file_number_++;
  std::unique_ptr<WritableFile> lfile;
  Status s = env_->NewWritableFile(WalFileName(dbname_, wal_number_), &lfile);
  if (!s.ok()) return s;
  wal_file_ = std::move(lfile);
  wal_ = std::make_unique<log::Writer>(wal_file_.get());
  return Status::OK();
}

// ------------------------------------------------------------- write path

Status BaseLsmDB::Put(const WriteOptions& options, const Slice& key,
                      const Slice& value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(options, &batch);
}

Status BaseLsmDB::Delete(const WriteOptions& options, const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(options, &batch);
}

Status BaseLsmDB::Write(const WriteOptions& options, WriteBatch* updates) {
  MutexLock lock(&mu_);
  updates->SetSequence(last_sequence_ + 1);
  last_sequence_ += updates->Count();

  Status s = wal_->AddRecord(updates->Contents());
  if (s.ok() && options.sync) {
    s = wal_file_->Sync();
  }
  if (s.ok()) {
    s = updates->InsertInto(mem_);
  }
  if (s.ok() && mem_->ApproximateMemoryUsage() > options_.write_buffer_size) {
    s = FlushLocked();
  }
  return s;
}

Status BaseLsmDB::FlushMemTable() {
  MutexLock lock(&mu_);
  if (mem_->NumEntries() == 0) return Status::OK();
  return FlushLocked();
}

Status BaseLsmDB::CompactAll() {
  MutexLock lock(&mu_);
  Status s;
  if (mem_->NumEntries() > 0) {
    s = FlushLocked();
    if (!s.ok()) return s;
  }
  // Push everything to a single run at the deepest populated level.
  std::vector<const Run*> runs;
  int deepest = 0;
  for (int l = 0; l < kNumLevels; l++) {
    for (const Run& run : levels_[l]) {
      runs.push_back(&run);
      deepest = l;
    }
  }
  if (runs.size() <= 1) return Status::OK();
  Run merged;
  s = MergeRuns(runs, true, &merged);
  if (!s.ok()) return s;
  for (auto& level : levels_) level.clear();
  int target = std::max(deepest, 1);
  levels_[target].push_back(std::move(merged));
  s = PersistManifest();
  RemoveObsoleteFiles();
  return s;
}

// ------------------------------------------------------------- compaction

uint64_t BaseLsmDB::LevelBytes(int level) const {
  uint64_t n = 0;
  for (const Run& run : levels_[level]) {
    for (const FileMeta& f : run) n += f.size;
  }
  return n;
}

uint64_t BaseLsmDB::LevelTarget(int level) const {
  uint64_t target = options_.max_bytes_for_level_base;
  for (int i = 1; i < level; i++) target *= 10;
  return target;
}

bool BaseLsmDB::NeedsCompaction(int* level) const {
  if (style_ == CompactionStyle::kLeveled) {
    if (static_cast<int>(levels_[0].size()) >=
        options_.l0_compaction_trigger) {
      *level = 0;
      return true;
    }
    for (int l = 1; l < kNumLevels - 1; l++) {
      if (!levels_[l].empty() && LevelBytes(l) > LevelTarget(l)) {
        *level = l;
        return true;
      }
    }
  } else {
    for (int l = 0; l < kNumLevels - 1; l++) {
      if (static_cast<int>(levels_[l].size()) >=
          options_.tiered_runs_per_level) {
        *level = l;
        return true;
      }
    }
  }
  return false;
}

Status BaseLsmDB::MergeRuns(const std::vector<const Run*>& runs,
                            bool to_last_level, Run* result) {
  std::vector<Iterator*> children;
  for (const Run* run : runs) {
    for (const FileMeta& f : *run) compact_bytes_read_ += f.size;
    children.push_back(NewSortedRunIterator(table_cache_.get(), *run));
  }
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(icmp_, std::move(children)));

  std::unique_ptr<WritableFile> file;
  std::unique_ptr<TableBuilder> builder;
  Status s;

  auto rotate = [&]() -> Status {
    if (builder == nullptr) return Status::OK();
    Status rs = builder->Finish();
    if (rs.ok()) rs = file->Sync();
    if (rs.ok()) rs = file->Close();
    if (rs.ok()) {
      result->back().size = builder->FileSize();
      compact_bytes_written_ += builder->FileSize();
    }
    builder.reset();
    file.reset();
    return rs;
  };

  std::string current_user_key;
  bool has_current = false;
  for (merged->SeekToFirst(); s.ok() && merged->Valid(); merged->Next()) {
    Slice internal_key = merged->key();
    ParsedInternalKey ikey;
    if (!ParseInternalKey(internal_key, &ikey)) {
      s = Status::Corruption("corrupt key in baseline compaction");
      break;
    }
    if (has_current && ikey.user_key.compare(Slice(current_user_key)) == 0) {
      continue;  // Shadowed older version.
    }
    current_user_key.assign(ikey.user_key.data(), ikey.user_key.size());
    has_current = true;
    if (to_last_level && ikey.type == kTypeDeletion) {
      continue;  // Tombstone reaching the bottom dies.
    }
    if (builder == nullptr) {
      uint64_t number = next_file_number_++;
      result->emplace_back();
      result->back().number = number;
      s = env_->NewWritableFile(TableFileName(dbname_, number), &file);
      if (!s.ok()) break;
      builder = std::make_unique<TableBuilder>(options_.table_options,
                                               file.get());
    }
    builder->Add(internal_key, merged->value());
    if (result->back().smallest.empty()) {
      result->back().smallest = current_user_key;
    }
    result->back().largest = current_user_key;
    if (builder->FileSize() >= options_.sorted_table_size) {
      s = rotate();
      if (!s.ok()) break;
    }
  }
  if (s.ok()) s = merged->status();
  if (s.ok()) {
    s = rotate();
  } else if (builder != nullptr) {
    builder->Abandon();
  }
  if (s.ok()) compactions_++;
  return s;
}

Status BaseLsmDB::CompactLevel(int level) {
  // Is the output the deepest populated level (tombstones can die)?
  bool deeper_data = false;
  for (int l = level + 2; l < kNumLevels; l++) {
    if (!levels_[l].empty()) deeper_data = true;
  }

  std::vector<const Run*> inputs;
  if (style_ == CompactionStyle::kLeveled) {
    // Merge every run of `level` (newest first) plus the run below.
    for (const Run& run : levels_[level]) inputs.push_back(&run);
    for (const Run& run : levels_[level + 1]) inputs.push_back(&run);
  } else {
    // Tiered: merge this level's runs only; the next level just gains a
    // run (no rewrite of existing data below).
    for (const Run& run : levels_[level]) inputs.push_back(&run);
    if (!levels_[level + 1].empty()) deeper_data = true;
  }

  Run merged;
  Status s = MergeRuns(inputs, !deeper_data, &merged);
  if (!s.ok()) return s;

  levels_[level].clear();
  if (style_ == CompactionStyle::kLeveled) {
    levels_[level + 1].clear();
    levels_[level + 1].push_back(std::move(merged));
  } else {
    levels_[level + 1].insert(levels_[level + 1].begin(), std::move(merged));
  }
  return Status::OK();
}

Status BaseLsmDB::FlushLocked() {
  // Build one table run from the memtable.
  uint64_t number = next_file_number_++;
  std::unique_ptr<WritableFile> file;
  Status s = env_->NewWritableFile(TableFileName(dbname_, number), &file);
  if (!s.ok()) return s;
  TableBuilder builder(options_.table_options, file.get());

  FileMeta meta;
  meta.number = number;
  std::unique_ptr<Iterator> iter(mem_->NewIterator());
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    builder.Add(iter->key(), iter->value());
    Slice user_key = ExtractUserKey(iter->key());
    if (meta.smallest.empty()) meta.smallest = user_key.ToString();
    meta.largest = user_key.ToString();
  }
  s = iter->status();
  if (s.ok()) {
    s = builder.Finish();
  } else {
    builder.Abandon();
  }
  if (s.ok()) s = file->Sync();
  if (s.ok()) s = file->Close();
  if (!s.ok()) return s;
  meta.size = builder.FileSize();

  Run run;
  run.push_back(std::move(meta));
  levels_[0].insert(levels_[0].begin(), std::move(run));  // Newest first.

  mem_->Unref();
  mem_ = new MemTable(icmp_);
  mem_->Ref();
  s = SwitchWal();
  if (!s.ok()) return s;

  int level;
  while (s.ok() && NeedsCompaction(&level)) {
    s = CompactLevel(level);
  }
  if (s.ok()) s = PersistManifest();
  RemoveObsoleteFiles();
  return s;
}

// -------------------------------------------------------------- read path

Status BaseLsmDB::SearchRun(const Run& run, const LookupKey& lkey,
                            std::string* value, bool* found, Status* result) {
  const Slice user_key = lkey.user_key();
  // Binary search for the file that may contain user_key.
  int lo = 0, hi = static_cast<int>(run.size()) - 1, target = -1;
  while (lo <= hi) {
    int mid = (lo + hi) / 2;
    if (Slice(run[mid].largest).compare(user_key) < 0) {
      lo = mid + 1;
    } else {
      target = mid;
      hi = mid - 1;
    }
  }
  if (target < 0 || user_key.compare(Slice(run[target].smallest)) < 0) {
    return Status::OK();
  }
  const FileMeta& f = run[target];
  if (!table_cache_->KeyMayMatch(f.number, f.size, user_key)) {
    return Status::OK();  // Bloom says no.
  }
  bool hit = false;
  std::string found_key, found_value;
  Status s = table_cache_->Get(f.number, f.size, lkey.internal_key(), &hit,
                               &found_key, &found_value);
  if (!s.ok()) return s;
  if (hit && ExtractUserKey(found_key) == user_key) {
    *found = true;
    if (ExtractValueType(found_key) == kTypeDeletion) {
      *result = Status::NotFound(Slice());
    } else {
      *value = std::move(found_value);
      *result = Status::OK();
    }
  }
  return Status::OK();
}

Status BaseLsmDB::Get(const ReadOptions& /*options*/, const Slice& key,
                      std::string* value) {
  MutexLock lock(&mu_);
  LookupKey lkey(key, last_sequence_);
  Status s;
  if (mem_->Get(lkey, value, &s)) {
    return s;
  }
  for (const auto& runs : levels_) {
    for (const Run& run : runs) {
      bool found = false;
      Status result;
      s = SearchRun(run, lkey, value, &found, &result);
      if (!s.ok()) return s;
      if (found) return result;
    }
  }
  return Status::NotFound(Slice());
}

Iterator* BaseLsmDB::NewIterator(const ReadOptions& /*options*/) {
  MutexLock lock(&mu_);
  std::vector<Iterator*> children;
  mem_->Ref();
  Iterator* mem_iter = mem_->NewIterator();
  MemTable* mem = mem_;
  mem_iter->RegisterCleanup([mem] { mem->Unref(); });
  children.push_back(mem_iter);
  // Each run opens its tables only when the cursor reaches them, after mu_
  // is released and compactions may have replaced the run: the iterator
  // walks its own copy of the runs and pins their files against
  // RemoveObsoleteFiles until it is destroyed.
  auto runs = std::make_shared<std::vector<Run>>();
  for (const auto& level : levels_) {
    for (const Run& run : level) {
      runs->push_back(run);
      for (const FileMeta& f : run) iterator_pins_[f.number]++;
    }
  }
  for (const Run& run : *runs) {
    children.push_back(NewSortedRunIterator(table_cache_.get(), run));
  }
  Iterator* merged = NewMergingIterator(icmp_, std::move(children));
  merged->RegisterCleanup([this, runs] {
    MutexLock unpin(&mu_);
    for (const Run& run : *runs) {
      for (const FileMeta& f : run) {
        if (--iterator_pins_[f.number] == 0) iterator_pins_.erase(f.number);
      }
    }
  });
  return new DBIter(icmp_, merged, last_sequence_, nullptr);
}

// -------------------------------------------------------------- properties

bool BaseLsmDB::GetProperty(const Slice& property, std::string* value) {
  MutexLock lock(&mu_);
  char buf[200];
  if (property == Slice("db.stats")) {
    std::snprintf(buf, sizeof(buf),
                  "compactions=%" PRIu64 " compact_read_mb=%.1f"
                  " compact_write_mb=%.1f",
                  compactions_, compact_bytes_read_ / 1048576.0,
                  compact_bytes_written_ / 1048576.0);
    *value = buf;
    return true;
  }
  if (property == Slice("db.num-files")) {
    size_t n = 0;
    for (const auto& runs : levels_) {
      for (const Run& run : runs) n += run.size();
    }
    std::snprintf(buf, sizeof(buf), "%zu", n);
    *value = buf;
    return true;
  }
  if (property == Slice("db.sstables")) {
    std::string result;
    for (int l = 0; l < kNumLevels; l++) {
      if (levels_[l].empty()) continue;
      size_t files = 0;
      for (const Run& run : levels_[l]) files += run.size();
      std::snprintf(buf, sizeof(buf), "level %d: runs=%zu files=%zu mb=%.1f\n",
                    l, levels_[l].size(), files, LevelBytes(l) / 1048576.0);
      result += buf;
    }
    *value = std::move(result);
    return true;
  }
  if (property == Slice("db.table-accesses")) {
    std::string result;
    for (int l = 0; l < kNumLevels; l++) {
      for (const Run& run : levels_[l]) {
        for (const FileMeta& f : run) {
          std::snprintf(buf, sizeof(buf), "level%d %llu %llu\n", l,
                        static_cast<unsigned long long>(f.number),
                        static_cast<unsigned long long>(
                            table_cache_->AccessCount(f.number, f.size)));
          result += buf;
        }
      }
    }
    *value = std::move(result);
    return true;
  }
  return false;
}

void BaseLsmDB::RemoveObsoleteFiles() {
  std::set<uint64_t> live;
  for (const auto& runs : levels_) {
    for (const Run& run : runs) {
      for (const FileMeta& f : run) live.insert(f.number);
    }
  }
  for (const auto& [number, pins] : iterator_pins_) live.insert(number);
  std::vector<std::string> children;
  if (!env_->GetChildren(dbname_, &children).ok()) return;
  for (const std::string& child : children) {
    uint64_t number;
    FileType type;
    if (!ParseFileName(child, &number, &type)) continue;
    bool keep = true;
    if (type == FileType::kTableFile) {
      keep = live.count(number) > 0;
    } else if (type == FileType::kWalFile) {
      keep = number >= wal_number_;
    }
    if (!keep) {
      if (type == FileType::kTableFile) table_cache_->Evict(number);
      // Best-effort sweep: a leftover file wastes space but is re-swept
      // on the next pass; failing the job over it helps nobody.
      (void)env_->RemoveFile(dbname_ + "/" + child);
    }
  }
}

}  // namespace baseline
}  // namespace unikv
