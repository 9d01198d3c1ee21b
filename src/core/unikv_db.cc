#include "core/unikv_db.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "core/db_iter.h"
#include "core/filename.h"
#include "core/merging_iterator.h"
#include "core/table_output_writer.h"
#include "table/cache.h"
#include "util/coding.h"
#include "util/env.h"
#include "vlog/value_fetcher.h"
#include "wal/log_reader.h"

namespace unikv {

DB::~DB() = default;

// --------------------------------------------------------- engine metrics

namespace {

// PerfContext fields whose registry series are fed at their source:
// value-log reads by ValueLogCache on every thread, stall time at the
// stall site (as stall_micros), and op time by the latency histograms.
constexpr uint64_t PerfContext::*kNotFolded[] = {
    &PerfContext::vlog_reads,         &PerfContext::vlog_span_reads,
    &PerfContext::vlog_read_bytes,    &PerfContext::vlog_mmap_reads,
    &PerfContext::write_stall_micros, &PerfContext::get_micros,
    &PerfContext::write_micros,       &PerfContext::scan_micros,
    &PerfContext::multiget_micros};

// Job and byte series a background install adds through CountJob, in
// the order db.metrics.json's `stats` section lists them. Every
// partition carries them too, plus heat_reads, heat_writes and
// user_bytes_flushed.
constexpr const char* kJobSeries[] = {
    "flushes",               "merges",
    "scan_merges",           "gcs",
    "splits",                "flush_bytes",
    "merge_bytes_read",      "merge_bytes_written",
    "scan_merge_bytes_read", "scan_merge_bytes_written",
    "gc_bytes_read",         "gc_bytes_written"};

}  // namespace

EngineMetrics::EngineMetrics() {
  PerfContext::ForEachField(
      [this](const char* name, uint64_t PerfContext::*field) {
        if (std::find(std::begin(kNotFolded), std::end(kNotFolded), field) ==
            std::end(kNotFolded)) {
          folded_.emplace_back(field, registry.GetCounter(name));
        }
      });
  for (const char* name : kJobSeries) registry.GetCounter(name);
  write_bytes = registry.GetCounter("write_bytes");
  write_stalls = registry.GetCounter("write_stalls");
  stall_micros = registry.GetCounter("stall_micros");
  scan_entries = registry.GetCounter("scan_entries");
  anchor_view_builds = registry.GetCounter("anchor_view_builds");
  scan_anchor_hits = registry.GetCounter("scan_anchor_hits");
  anchor_view_bytes = registry.GetGauge("anchor_view_bytes");
  iterator_partitions_opened =
      registry.GetCounter("iterator_partitions_opened");
  iterator_tables_opened = registry.GetCounter("iterator_tables_opened");

  get_latency = registry.GetHistogram("get_latency_us");
  write_latency = registry.GetHistogram("write_latency_us");
  scan_latency = registry.GetHistogram("scan_latency_us");
  multiget_latency = registry.GetHistogram("multiget_latency_us");
  multiget_keys_per_batch = registry.GetHistogram("multiget_keys_per_batch");
  flush_latency = registry.GetHistogram("flush_latency_us");
  merge_latency = registry.GetHistogram("merge_latency_us");
  scan_merge_latency = registry.GetHistogram("scan_merge_latency_us");
  gc_latency = registry.GetHistogram("gc_latency_us");
  split_latency = registry.GetHistogram("split_latency_us");
}

void EngineMetrics::FoldPerf(const PerfContext& d) {
  for (const auto& [field, counter] : folded_) {
    if (d.*field != 0) counter->Add(d.*field);
  }
}

Counter* EngineMetrics::RegisterPartition(uint32_t pid) {
  for (const char* name : kJobSeries) registry.GetCounter(name, pid);
  registry.GetCounter("heat_writes", pid);
  registry.GetCounter("user_bytes_flushed", pid);
  return registry.GetCounter("heat_reads", pid);
}

void EngineMetrics::CountJob(
    uint32_t pid,
    std::initializer_list<std::pair<const char*, uint64_t>> counts) {
  for (const auto& [name, n] : counts) {
    registry.GetCounter(name)->Add(n);
    registry.GetCounter(name, pid)->Add(n);
  }
}

namespace {

// Per-thread registry-folding window (see PerfEndOp in unikv_db.h).
// `owner` is compared by address only and never dereferenced: when the
// thread moves on to a different DB the old EngineMetrics may be gone, so
// the pending window is dropped rather than folded.
struct PerfFoldState {
  const void* owner = nullptr;  // &metrics_ of the DB the window belongs to.
  PerfContext last;             // Context snapshot at the last fold.
  uint32_t ops = 0;             // Foreground ops since the last fold.
  uint32_t sample_tick = 0;     // Latency-clock sampling phase for Get.
};
constinit thread_local PerfFoldState tls_fold;

constexpr uint32_t kPerfFoldBatch = 64;
constexpr uint32_t kPerfSampleEvery = 32;

}  // namespace

void UniKVDB::PerfEndOp(PerfContext* perf) {
  PerfFoldState& fs = tls_fold;
  if (fs.owner != &metrics_ || fs.last.resets != perf->resets) {
    // The pending window belongs to another DB (whose registry may be
    // gone) or was invalidated by a Reset(); abandon it and start a fresh
    // window here. The op that just finished is dropped from the
    // registry, matching the at-most-one-batch-lag contract.
    fs.owner = &metrics_;
    fs.last = *perf;
    fs.ops = 0;
    return;
  }
  if (++fs.ops >= kPerfFoldBatch) {
    metrics_.FoldPerf(perf->DeltaSince(fs.last));
    fs.last = *perf;
    fs.ops = 0;
  }
}

void UniKVDB::FlushPerfPending() {
  PerfFoldState& fs = tls_fold;
  PerfContext* perf = GetPerfContext();
  if (fs.owner != &metrics_ || fs.last.resets != perf->resets) return;
  metrics_.FoldPerf(perf->DeltaSince(fs.last));
  fs.last = *perf;
  fs.ops = 0;
}

namespace {

/// Row `n` of a scan's output, appended when *out holds fewer rows. Scans
/// fill rows in place, so each row's strings keep the capacity a previous
/// scan into the same vector gave them.
std::pair<std::string, std::string>& ScanRow(
    std::vector<std::pair<std::string, std::string>>* out, size_t n) {
  if (n == out->size()) out->emplace_back();
  return (*out)[n];
}

}  // namespace

Status DB::Scan(const ReadOptions& options, const Slice& start, int count,
                std::vector<std::pair<std::string, std::string>>* out) {
  // Non-positive counts are an empty scan, not an error. (Callers that
  // sized buffers from `count` have been bitten by a negative int turning
  // into a huge size_t.)
  if (count <= 0) {
    out->clear();
    return Status::OK();
  }
  std::unique_ptr<Iterator> iter(NewIterator(options));
  size_t n = 0;
  for (iter->Seek(start); iter->Valid() && count > 0; iter->Next(), count--) {
    auto& row = ScanRow(out, n++);
    row.first.assign(iter->key().data(), iter->key().size());
    row.second.assign(iter->value().data(), iter->value().size());
  }
  out->resize(n);
  Status s = iter->status();
  if (!s.ok()) out->clear();
  return s;
}

Status DB::MultiGet(const ReadOptions& options, const std::vector<Slice>& keys,
                    std::vector<std::string>* values,
                    std::vector<Status>* statuses) {
  values->clear();
  values->resize(keys.size());
  statuses->assign(keys.size(), Status::OK());
  Status first_err;
  for (size_t i = 0; i < keys.size(); i++) {
    Status s = Get(options, keys[i], &(*values)[i]);
    (*statuses)[i] = s;
    if (!s.ok() && !s.IsNotFound() && first_err.ok()) first_err = s;
  }
  return first_err;
}

Status DestroyDB(const Options& options, const std::string& name) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  return RemoveDirRecursively(env, name);
}

// ------------------------------------------------------------- lifecycle

std::atomic<bool> UniKVDB::TEST_gc_unsafe_delete_before_install_{false};

UniKVDB::UniKVDB(const Options& options, const std::string& dbname)
    : options_(options),
      dbname_(dbname),
      sync_cv_(&sync_mu_),
      bg_cv_(&mu_),
      bg_work_cv_(&mu_),
      sampler_cv_(&mu_) {
  env_ = options_.env != nullptr ? options_.env : Env::Default();
  options_.env = env_;
  options_.write_shards = std::clamp(options_.write_shards, 1, 64);
  shards_.reserve(options_.write_shards);
  for (int i = 0; i < options_.write_shards; i++) {
    shards_.push_back(std::make_unique<WriteShard>());
  }
  if (options_.block_cache_size > 0) {
    block_cache_.reset(NewLRUCache(options_.block_cache_size));
  }
  table_cache_ = std::make_unique<TableCache>(
      env_, dbname_, options_.table_options, block_cache_.get());
  vlog_cache_ = std::make_unique<ValueLogCache>(env_, dbname_);
  MetricsRegistry& reg = metrics_.registry;
  vlog_cache_->SetCounters(
      reg.GetCounter("vlog_reads"), reg.GetCounter("vlog_span_reads"),
      reg.GetCounter("vlog_read_bytes"), reg.GetCounter("vlog_mmap_reads"));
  event_log_ = std::make_unique<EventLogger>(env_, dbname_,
                                             options_.max_event_log_bytes);
  versions_ = std::make_unique<VersionSet>(env_, dbname_);
}

UniKVDB::~UniKVDB() {
  {
    MutexLock lock(&mu_);
    shutting_down_ = true;
    bg_work_cv_.SignalAll();
    sampler_cv_.SignalAll();
    while (bg_jobs_running_ != 0) bg_cv_.Wait();
  }
  for (std::thread& t : bg_threads_) {
    if (t.joinable()) t.join();
  }
  if (sampler_thread_.joinable()) sampler_thread_.join();
  for (auto& s : shards_) {
    // Workers are joined; this thread is the last owner, but Unref frees
    // the memtable, so hold the shard capability for the annotations.
    MutexLock shard_lock(&s->mu);
    if (s->mem != nullptr) s->mem->Unref();
    if (s->imm != nullptr) s->imm->Unref();
  }
  if (db_lock_ != nullptr) {
    // Destructor: nowhere to report. The lock dies with the process
    // either way; the next Open re-locks from scratch.
    (void)env_->UnlockFile(db_lock_);
    db_lock_ = nullptr;
  }
}

Status DB::Open(const Options& options, const std::string& name, DB** dbptr) {
  return UniKVDB::Open(options, name, dbptr);
}

Status UniKVDB::Open(const Options& options, const std::string& name,
                     DB** dbptr) {
  *dbptr = nullptr;
  auto db = std::make_unique<UniKVDB>(options, name);
  Status s = db->Recover();
  if (!s.ok()) {
    // The destructor joins the (not yet started) background machinery.
    return s;
  }
  const int workers = std::clamp(db->options_.background_threads, 1, 16);
  db->bg_threads_.reserve(workers);
  for (int i = 0; i < workers; i++) {
    db->bg_threads_.emplace_back(
        [raw = db.get()] { raw->BackgroundWorker(); });
  }
  if (db->options_.stats_sample_interval_ms > 0) {
    db->sampler_thread_ =
        std::thread([raw = db.get()] { raw->StatsSamplerThread(); });
  }
  *dbptr = db.release();
  return Status::OK();
}

Status UniKVDB::Recover() {
  // Claim the directory before touching any state in it. Two instances
  // sweeping the same directory delete each other's live tables — seen
  // in practice when two test binaries shared a scratch dir — so a
  // second Open fails fast here instead.
  // Usually exists already; if creation truly failed, LockFile fails
  // next with the actual errno.
  (void)env_->CreateDir(dbname_);
  Status s = env_->LockFile(LockFileName(dbname_), &db_lock_);
  if (!s.ok()) return s;
  s = versions_->Recover(options_.create_if_missing, options_.error_if_exists);
  if (!s.ok()) return s;

  // Collect the shard WALs newer than the manifest's log number. A DB
  // written with a different shard count recovers the same way: the
  // shard mapping is not persisted.
  std::vector<std::string> children;
  s = env_->GetChildren(dbname_, &children);
  if (!s.ok()) return s;
  std::vector<uint64_t> wal_numbers;
  std::vector<std::string> wal_files;
  for (const std::string& child : children) {
    uint64_t number;
    FileType type;
    if (ParseFileName(child, &number, &type) &&
        type == FileType::kShardWalFile &&
        number >= versions_->LogNumber()) {
      wal_numbers.push_back(number);
      wal_files.push_back(dbname_ + "/" + child);
    }
  }

  // Gap-cut replay (DESIGN.md §10): batches from all WALs are merged by
  // sequence number and replayed contiguously from the manifest floor;
  // the run stops at the first missing sequence. A gap can only arise
  // from batches that were appended but never made durable, and the
  // write path never acks a sync write (nor advances the manifest floor)
  // before syncing *every* shard's WAL — so everything beyond a gap is
  // unacked by construction and safe to drop.
  std::vector<WalBatch> batches;
  for (const std::string& fname : wal_files) {
    s = CollectWalBatches(fname, &batches);
    if (!s.ok()) return s;
  }
  std::sort(batches.begin(), batches.end(),
            [](const WalBatch& a, const WalBatch& b) { return a.seq < b.seq; });

  // The manifest floor F promises every sequence <= F is durable — in a
  // table or in a surviving WAL — but not *which*: a flush advances F to
  // the sync-all ceiling, which covers records living only in other
  // shards' current WALs. So batches at or below F are replayed
  // unconditionally (re-flushing data that also sits in a table is a
  // harmless duplicate at an identical sequence); holes below F are
  // expected, they are the retired WALs. Above F contiguity is required.
  MemTable* recovered = new MemTable(icmp_);
  recovered->Ref();
  const SequenceNumber floor = versions_->LastSequence();
  SequenceNumber next = floor + 1;
  WriteBatch batch;
  for (const WalBatch& wb : batches) {
    const SequenceNumber last = wb.seq + wb.count - 1;
    if (last > floor && wb.seq > next) break;  // Gap: never acked beyond it.
    batch.SetContents(wb.contents);
    s = batch.InsertInto(recovered);
    if (!s.ok()) {
      recovered->Unref();
      return s;
    }
    if (last >= next) next = last + 1;
  }
  const SequenceNumber max_seq = next - 1;
  versions_->SetLastSequence(max_seq);
  seq_alloc_.store(max_seq, std::memory_order_relaxed);
  visible_seq_.store(max_seq, std::memory_order_relaxed);

  // Flush recovered entries so the old WALs can be retired, then start a
  // fresh WAL per shard.
  VersionEdit edit;
  // Its writer keeps the new table pending until Recover returns.
  FlushOutput flushed;
  if (recovered->NumEntries() > 0) {
    VersionPtr base = versions_->current();
    s = FlushMemTableToUnsorted(recovered, *base, &flushed);
    if (!s.ok()) {
      recovered->Unref();
      return s;
    }
    // Recovery is single-threaded: `base` is still current, so the
    // shares cannot have moved and table ids come straight from it.
    for (auto& [pid, ref] : flushed.refs) {
      ref.table_id = base->FindById(pid)->NextTableId();
      edit.AddUnsortedFile(pid, ref);
      metrics_.registry.GetCounter("flush_bytes")->Add(ref.share);
    }
  }
  recovered->Unref();

  uint64_t min_wal = 0;
  for (auto& shard : shards_) {
    const uint64_t number = versions_->NewFileNumber();
    std::unique_ptr<WritableFile> lfile;
    s = env_->NewWritableFile(ShardWalFileName(dbname_, number), &lfile);
    if (!s.ok()) return s;
    // Recovery is single-threaded, but the shard capabilities keep the
    // field annotations uniform (wal under log_mu, mem under mu).
    MutexLock shard_lock(&shard->mu);
    MutexLock log_lock(&shard->log_mu);
    shard->wal_file = std::move(lfile);
    shard->wal = std::make_unique<log::Writer>(shard->wal_file.get());
    shard->wal_number.store(number, std::memory_order_relaxed);
    shard->mem = new MemTable(icmp_);
    shard->mem->Ref();
    if (min_wal == 0 || number < min_wal) min_wal = number;
  }
  edit.SetLogNumber(min_wal);
  {
    MutexLock lock(&mu_);
    s = versions_->LogAndApply(&edit);
  }
  if (!s.ok()) return s;

  // Every partition's side state is born here (split installs add the
  // rest). Recovery is single-threaded, so the index I/O runs before the
  // records are published under mu_.
  std::unordered_map<uint32_t, PartitionRuntime> runtime;
  for (const auto& p : versions_->current()->partitions) {
    PartitionRuntime& rt = runtime[p->id];
    s = LoadHashIndex(*p, &rt.index);
    if (!s.ok()) return s;
    rt.heat_reads = metrics_.RegisterPartition(p->id);
  }
  {
    MutexLock lock(&mu_);
    runtime_ = std::move(runtime);
  }

  RemoveObsoleteFiles();
  return Status::OK();
}

namespace {
struct WalReporter : public log::Reader::Reporter {
  Status* status;
  void Corruption(size_t /*bytes*/, const Status& s) override {
    if (status != nullptr && status->ok()) *status = s;
  }
};
}  // namespace

Status UniKVDB::CollectWalBatches(const std::string& fname,
                                  std::vector<WalBatch>* out) {
  std::unique_ptr<SequentialFile> file;
  Status s = env_->NewSequentialFile(fname, &file);
  if (!s.ok()) return s;

  Status read_status;
  WalReporter reporter;
  reporter.status = &read_status;
  log::Reader reader(file.get(), &reporter, true);
  Slice record;
  std::string scratch;
  WriteBatch batch;
  while (reader.ReadRecord(&record, &scratch)) {
    if (record.size() < 12) {
      read_status = Status::Corruption("WAL record too small");
      break;
    }
    batch.SetContents(record);
    WalBatch wb;
    wb.seq = batch.Sequence();
    wb.count = static_cast<uint32_t>(batch.Count());
    wb.contents.assign(record.data(), record.size());
    out->push_back(std::move(wb));
  }
  return read_status;
}

std::unique_ptr<HashIndex> UniKVDB::NewHashIndex() const {
  const size_t n =
      options_.unsorted_limit / options_.index_expected_entry_size;
  return std::make_unique<HashIndex>(std::max<size_t>(n, 1024),
                                     options_.index_num_hashes);
}

Status UniKVDB::InsertTableIntoIndex(HashIndex* index, const FileMeta& f,
                                     size_t position) {
  std::vector<uint64_t> hashes;
  Status s = table_cache_->ReadKeyHashes(f.number, f.size, &hashes);
  if (s.IsCorruption()) {
    return Status::Corruption(TableFileName(dbname_, f.number),
                              s.ToString());
  }
  if (!s.ok()) return s;
  const size_t end = std::min<size_t>(f.hash_end, hashes.size());
  for (size_t i = f.hash_begin; i < end; i++) {
    index->Insert(hashes[i], position);
  }
  return Status::OK();
}

Status UniKVDB::LoadHashIndex(const PartitionState& p,
                              std::unique_ptr<HashIndex>* out) {
  std::unique_ptr<HashIndex> index = NewHashIndex();
  for (size_t i = 0; i < p.unsorted.size(); i++) {
    Status s = InsertTableIntoIndex(index.get(), p.unsorted[i], i);
    if (!s.ok()) return s;
  }
  *out = std::move(index);
  return Status::OK();
}

// --------------------------------------------------------- obsolete files

void UniKVDB::RemoveObsoleteFiles() {
  const uint64_t start_us = env_->NowMicros();
  std::set<uint64_t> live;
  uint64_t log_number, manifest_number;
  // The directory is listed before the live set is taken, and off mu_,
  // which every read takes. A job registers each output as pending (under
  // mu_) before it creates the file, so a file the listing sees is, by
  // the snapshot below, still pending, live in a version, or abandoned
  // (an orphan, rightly swept). Outputs created after the listing are not
  // in it. WALs are numbered above every log floor while they are live.
  // Temp and manifest files are written only by single-threaded Recover.
  std::vector<std::string> children;
  if (!env_->GetChildren(dbname_, &children).ok()) return;
  {
    MutexLock lock(&mu_);
    if (has_bg_error_.load(std::memory_order_acquire)) {
      return;  // Unsure about state: keep everything.
    }
    versions_->AddLiveFiles(&live);
    live.insert(pending_outputs_.begin(), pending_outputs_.end());
    log_number = versions_->LogNumber();
    manifest_number = versions_->ManifestFileNumber();
  }

  std::string removed;
  for (const std::string& child : children) {
    uint64_t number;
    FileType type;
    if (!ParseFileName(child, &number, &type)) continue;
    bool keep = true;
    switch (type) {
      case FileType::kShardWalFile:
        keep = number >= log_number;
        break;
      case FileType::kManifestFile:
        keep = number == manifest_number;
        break;
      case FileType::kTableFile:
      case FileType::kValueLogFile:
        keep = live.count(number) > 0;
        break;
      case FileType::kTempFile:
        keep = false;
        break;
      case FileType::kWalFile:  // The LSM baselines' WAL; UniKV writes none.
      case FileType::kCurrentFile:
      case FileType::kUnknown:
        keep = true;
        break;
    }
    if (!keep) {
      if (type == FileType::kTableFile) {
        table_cache_->Evict(number);
      } else if (type == FileType::kValueLogFile) {
        vlog_cache_->Evict(number);
      }
      // Best-effort sweep; re-attempted on every pass.
      (void)env_->RemoveFile(dbname_ + "/" + child);
      if (!removed.empty()) removed += ' ';
      removed += child;
    }
  }
  if (!removed.empty()) {
    JsonBuilder ev;
    ev.AddUint("duration_micros", env_->NowMicros() - start_us);
    ev.AddUint("live", live.size());
    ev.AddString("files", removed);
    event_log_->Log("sweep", &ev);
  }
}

// ---------------------------------------------------- anchor views (§12)

void UniKVDB::InstallAnchorViewLocked(uint32_t pid, AnchorViewPtr view) {
  AnchorViewPtr& slot = runtime_.at(pid).anchor_view;
  if (slot != nullptr) {
    metrics_.anchor_view_bytes->Add(-static_cast<int64_t>(slot->byte_size));
  }
  slot = std::move(view);
  if (slot != nullptr) {
    metrics_.anchor_view_bytes->Add(static_cast<int64_t>(slot->byte_size));
  }
}

AnchorViewPtr UniKVDB::RefreshAnchorView(const PartitionState& p) {
  AnchorViewPtr cached;
  {
    MutexLock lock(&mu_);
    auto rt = runtime_.find(p.id);  // A split may have retired p's record.
    if (rt != runtime_.end()) cached = rt->second.anchor_view;
  }
  if (cached != nullptr && cached->Covers(p)) return cached;

  AnchorView view;
  Status s = BuildAnchorView(icmp_, table_cache_.get(), p, &view);
  if (!s.ok()) return nullptr;  // Never fatal: per-table children.
  metrics_.anchor_view_builds->Inc();
  AnchorViewPtr built = std::make_shared<const AnchorView>(std::move(view));

  // Publish. An install may have moved on since p was captured, and a
  // racing iterator may have cached a view of the current tables already:
  // cache this one only when it covers the current tables and the cached
  // one does not.
  MutexLock lock(&mu_);
  auto cp = versions_->current()->FindById(p.id);
  if (cp != nullptr && built->Covers(*cp)) {
    const AnchorViewPtr& current = runtime_.at(p.id).anchor_view;
    if (current == nullptr || !current->Covers(*cp)) {
      InstallAnchorViewLocked(p.id, built);
    }
  }
  return built;
}

// ------------------------------------------------------------ write path

struct UniKVDB::Writer {
  explicit Writer(Mutex* mu) : batch(nullptr), cv(mu) {}

  Status status;
  WriteBatch* batch;
  bool sync = false;
  bool done = false;
  CondVar cv;
};

Status UniKVDB::Put(const WriteOptions& options, const Slice& key,
                    const Slice& value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(options, &batch);
}

Status UniKVDB::Delete(const WriteOptions& options, const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(options, &batch);
}

Status UniKVDB::Write(const WriteOptions& options, WriteBatch* updates) {
  PerfContext* perf = GetPerfContext();
  const uint64_t start_us = env_->NowMicros();
  perf->writes++;
  if (updates != nullptr) {
    metrics_.write_bytes->Add(updates->ApproximateSize());
  }
  Status s = WriteImpl(options, updates);
  const uint64_t dur = env_->NowMicros() - start_us;
  perf->write_micros += dur;
  metrics_.write_latency->Add(dur == 0 ? 1 : dur);
  PerfEndOp(perf);
  return s;
}

namespace {
// FNV-1a over the user key: stable within a process, cheap, and evenly
// striped. Never persisted — recovery re-routes at insert time.
uint32_t ShardHash(const Slice& user_key, size_t nshards) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < user_key.size(); i++) {
    h ^= static_cast<uint8_t>(user_key.data()[i]);
    h *= 1099511628211ull;
  }
  return static_cast<uint32_t>(h % nshards);
}
}  // namespace

uint32_t UniKVDB::ShardOf(const Slice& user_key) const {
  return ShardHash(user_key, shards_.size());
}

void UniKVDB::AdvanceVisibleSeq(uint64_t seq) {
  uint64_t cur = visible_seq_.load(std::memory_order_acquire);
  while (cur < seq && !visible_seq_.compare_exchange_weak(
                          cur, seq, std::memory_order_release,
                          std::memory_order_acquire)) {
  }
}

namespace {
/// Splits a multi-shard batch into per-shard sub-batches.
struct ShardSplitter : public WriteBatch::Handler {
  explicit ShardSplitter(std::vector<WriteBatch>* subs_arg)
      : subs(subs_arg) {}
  void Put(const Slice& key, const Slice& value) override {
    (*subs)[ShardHash(key, subs->size())].Put(key, value);
  }
  void Delete(const Slice& key) override {
    (*subs)[ShardHash(key, subs->size())].Delete(key);
  }
  std::vector<WriteBatch>* subs;
};
}  // namespace

Status UniKVDB::WriteImpl(const WriteOptions& options, WriteBatch* updates) {
  if (updates == nullptr) {
    // Manual-flush sentinel: rotate every shard (FlushMemTable waits for
    // the resulting imms to drain).
    Status s;
    for (auto& shard : shards_) {
      s = WriteToShard(shard.get(), options, nullptr);
      if (!s.ok()) return s;
    }
    return s;
  }
  if (shards_.size() == 1) {
    return WriteToShard(shards_[0].get(), options, updates);
  }

  // Route the batch. The common case — every record in one shard (always
  // true for single-record Put/Delete batches) — is submitted as-is.
  std::vector<WriteBatch> subs(shards_.size());
  ShardSplitter splitter(&subs);
  Status s = updates->Iterate(&splitter);
  if (!s.ok()) return s;
  int touched = 0, only = -1;
  for (size_t i = 0; i < subs.size(); i++) {
    if (subs[i].Count() > 0) {
      touched++;
      only = static_cast<int>(i);
    }
  }
  if (touched == 0) return Status::OK();
  if (touched == 1) {
    return WriteToShard(shards_[only].get(), options, updates);
  }
  // Multi-shard batch: each sub-batch commits as its own group, so
  // cross-shard atomicity is not preserved under a crash (each sub-batch
  // is individually atomic). Documented in DESIGN.md §10.
  for (size_t i = 0; i < subs.size(); i++) {
    if (subs[i].Count() == 0) continue;
    s = WriteToShard(shards_[i].get(), options, &subs[i]);
    if (!s.ok()) return s;
  }
  return s;
}

Status UniKVDB::WriteToShard(WriteShard* s, const WriteOptions& options,
                             WriteBatch* updates) {
  Writer w(&s->mu);
  w.batch = updates;
  w.sync = options.sync;

  MutexLock lock(&s->mu);
  s->writers.push_back(&w);
  while (!(w.done || &w == s->writers.front())) w.cv.Wait();
  if (w.done) {
    return w.status;
  }

  // This writer is responsible for the group at the queue front. A null
  // batch is the manual-flush sentinel: it forces a rotation and carries
  // no payload. Routing the rotation through the queue front is what
  // makes it safe — no concurrent group writer can be appending to the
  // WAL being retired.
  Status status = MakeRoomForWrite(s, /*force=*/updates == nullptr);
  Writer* last_writer = &w;
  if (status.ok() && updates != nullptr) {
    WriteBatch* write_batch = BuildBatchGroup(s, &last_writer);
    MemTable* mem = s->mem;

    // Allocate sequence numbers and append to the WAL inside one log_mu
    // critical section. This is what makes gap-cut recovery sound: when
    // any sync (ours or a peer's sync-all) later acquires this log_mu,
    // every already-allocated sequence on this shard is fully appended —
    // so a sequence can only be missing from the synced prefix if it was
    // allocated afterwards, i.e. is higher than everything acked.
    {
      MutexLock log_lock(&s->log_mu);
      lock.Unlock();
      const uint32_t count = static_cast<uint32_t>(write_batch->Count());
      // Publish the unsynced watermark BEFORE allocating: in the seq_cst
      // total order the claim exists before this group's sequences do,
      // so any prefix-check that has seen a later sequence and then
      // reads this shard as clean (or unsynced only above its ceiling)
      // has a sound lock-free proof (see SyncAllShardWals). An already
      // set watermark is older — and therefore lower — than this group,
      // so it stands.
      const uint64_t prev_unsynced =
          s->first_unsynced_seq.load(std::memory_order_relaxed);
      if (prev_unsynced == 0) {
        s->first_unsynced_seq.store(kSeqAllocating,
                                    std::memory_order_seq_cst);
      }
      const uint64_t first_seq =
          seq_alloc_.fetch_add(count, std::memory_order_seq_cst) + 1;
      const uint64_t group_last = first_seq + count - 1;
      if (prev_unsynced == 0) {
        s->first_unsynced_seq.store(first_seq, std::memory_order_seq_cst);
      }
      write_batch->SetSequence(first_seq);
      {
        StopwatchGuard wal_timer(env_, &GetPerfContext()->write_wal_micros);
        status = s->wal->AddRecord(write_batch->Contents());
        if (status.ok() && options.sync) {
          // Own-shard sync inside the append critical section: concurrent
          // sync writers fsync their own WALs from their own threads, so
          // the I/O waits overlap — and the cross-shard round below then
          // finds every sync-written shard clean and skips it.
          status = s->wal_file->Sync();
          if (status.ok()) {
            // The fsync covered everything appended to this WAL, older
            // async groups included.
            s->first_unsynced_seq.store(0, std::memory_order_seq_cst);
          }
        }
      }
      log_lock.Unlock();
      if (!status.ok()) {
        // A failed WAL append or sync leaves the log tail undefined: later
        // records could land after a torn fragment and silently vanish at
        // replay. Latch the error so subsequent writes are rejected.
        RecordBackgroundError(status);
      }
      if (status.ok() && options.sync && shards_.size() > 1) {
        // A sync ack promises the whole prefix up to group_last is
        // durable, and lower sequences may live in peer shards' WALs.
        status = SyncAllShardWals(group_last);
      }
      if (status.ok()) {
        StopwatchGuard mem_timer(env_,
                                 &GetPerfContext()->write_memtable_micros);
        status = write_batch->InsertInto(mem);
      }
      if (status.ok()) {
        AdvanceVisibleSeq(group_last);
      }
      lock.Lock();
    }
    if (write_batch == &s->scratch) {
      s->scratch.Clear();
    }
  }

  while (true) {
    Writer* ready = s->writers.front();
    s->writers.pop_front();
    if (ready != &w) {
      ready->status = status;
      ready->done = true;
      ready->cv.Signal();
    }
    if (ready == last_writer) break;
  }
  if (!s->writers.empty()) {
    s->writers.front()->cv.Signal();
  }
  return status;
}

Status UniKVDB::SyncAllShardWals(uint64_t ceiling, bool force) {
  // Lock-free fast path. first_unsynced_seq is published (seq_cst)
  // BEFORE a group allocates its sequences, so for any group whose
  // sequences could be <= ceiling the publish precedes our ceiling's
  // allocation, which precedes this scan. Reading a shard as 0 (clean)
  // therefore means any such group was since synced; reading a value
  // above the ceiling means the shard's oldest unsynced record is newer
  // than the prefix we promise — not our problem either way. Only
  // kSeqAllocating (sequences unknown) or a watermark <= ceiling forces
  // the locked path. In an all-sync workload every writer leaves its own
  // shard clean, so concurrent sync writers pass through here without
  // ever touching a peer shard's lock — this is what lets durable
  // writes scale with the thread count instead of serializing on a
  // cross-shard fsync round.
  if (!force) {
    bool covered = true;
    for (const auto& t : shards_) {
      const uint64_t w = t->first_unsynced_seq.load(std::memory_order_seq_cst);
      if (w != 0 && w <= ceiling) {  // kSeqAllocating compares <= nothing
        covered = false;             // except as the sentinel below.
        break;
      }
      if (w == kSeqAllocating) {
        covered = false;
        break;
      }
    }
    if (covered) return Status::OK();
  }

  MutexLock coord(&sync_mu_);
  while (true) {
    if (!force && synced_seq_floor_ >= ceiling) return Status::OK();
    if (!sync_all_in_flight_) break;
    // A round is running but began before our ceiling was allocated (or
    // we cannot tell). Wait for it; either its floor covers us or we
    // become the next round's leader — N waiters fold into O(1) rounds.
    sync_cv_.Wait();
  }
  sync_all_in_flight_ = true;
  // Everything allocated up to here rides this round for free: their
  // appends either finished or are inside a log_mu this round will take.
  const uint64_t target = seq_alloc_.load(std::memory_order_seq_cst);
  coord.Unlock();

  // One log_mu at a time (never two — no ordering to deadlock on). By
  // the allocation-inside-log_mu invariant, after this loop every
  // sequence allocated before it started is durable. Shards whose
  // watermark proves them irrelevant (same argument as the fast path,
  // anchored at the `target` load above) are skipped without locking.
  // The first pass visits the rest opportunistically (try_lock): a
  // shard whose writer is mid-own-fsync holds log_mu for the whole
  // fsync, and blocking on each in turn would stretch the round to the
  // SUM of the in-flight syncs. Deferring busy shards lets their fsyncs
  // overlap; the blocking second pass picks up stragglers (by then
  // usually clean, since a sync writer leaves its shard synced).
  Status s;
  std::vector<WriteShard*> pending;
  pending.reserve(shards_.size());
  for (auto& t : shards_) pending.push_back(t.get());
  for (int pass = 0; pass < 2 && s.ok() && !pending.empty(); pass++) {
    std::vector<WriteShard*> busy;
    for (WriteShard* t : pending) {
      if (!force) {
        const uint64_t w =
            t->first_unsynced_seq.load(std::memory_order_seq_cst);
        if (w == 0 || (w != kSeqAllocating && w > target)) continue;
      }
      // The TryLock branch is written as a direct if so thread-safety
      // analysis can track the acquired/skipped paths separately; the
      // per-shard sync body lives in a REQUIRES(t->log_mu) helper so
      // every early-out below joins with a consistent lock set.
      if (pass == 0) {
        if (!t->log_mu.TryLock()) {
          busy.push_back(t);
          continue;
        }
      } else {
        t->log_mu.Lock();
      }
      const Status ss = SyncShardWalLocked(t, force, target);
      t->log_mu.Unlock();
      if (!ss.ok()) {
        s = ss;
        break;
      }
    }
    pending = std::move(busy);
  }

  coord.Lock();
  sync_all_in_flight_ = false;
  if (s.ok() && target > synced_seq_floor_) synced_seq_floor_ = target;
  sync_cv_.SignalAll();
  coord.Unlock();
  if (!s.ok()) {
    // Latched outside log_mu/sync_mu_: RecordBackgroundError briefly
    // takes mu_ and the shard mutexes to wake waiters.
    RecordBackgroundError(s);
  }
  return s;
}

Status UniKVDB::SyncShardWalLocked(WriteShard* t, bool force,
                                   uint64_t target) {
  if (t->wal_file == nullptr) return Status::OK();
  if (!force) {
    // Re-check under the lock: the in-flight writer we waited out may
    // have synced (or turned out to be newer than the target).
    const uint64_t w = t->first_unsynced_seq.load(std::memory_order_seq_cst);
    if (w == 0 || w > target) return Status::OK();  // Never kSeqAllocating
  }                                                 // here: holders are
  Status ss = t->wal_file->Sync();                  // inside log_mu.
  if (ss.ok()) {
    t->first_unsynced_seq.store(0, std::memory_order_seq_cst);
  }
  return ss;
}

WriteBatch* UniKVDB::BuildBatchGroup(WriteShard* s, Writer** last_writer) {
  Writer* first = s->writers.front();
  WriteBatch* result = first->batch;
  size_t size = first->batch->ApproximateSize();

  // Allow the group to grow up to a maximum size, but keep it small if
  // the head batch is small to not slow down small writes too much.
  size_t max_size = 1 << 20;
  if (size <= (128 << 10)) {
    max_size = size + (128 << 10);
  }

  *last_writer = first;
  for (auto it = s->writers.begin() + 1; it != s->writers.end(); ++it) {
    Writer* w = *it;
    if (w->sync && !first->sync) {
      break;  // Do not include a sync write into a non-sync group.
    }
    if (w->batch == nullptr) {
      // A manual-flush sentinel: it must reach the queue front itself to
      // run its rotation. Absorbing it into this group would mark it done
      // without ever rotating.
      break;
    }
    size += w->batch->ApproximateSize();
    if (size > max_size) break;
    if (result == first->batch) {
      // Switch to a temporary batch instead of disturbing the caller's.
      result = &s->scratch;
      assert(result->Count() == 0);
      result->Append(*first->batch);
    }
    result->Append(*w->batch);
    *last_writer = w;
  }
  return result;
}

Status UniKVDB::SwitchWal(WriteShard* s) {
  // The swap must exclude cross-shard sync-alls (they hold log_mu while
  // touching wal_file), and the old log must be durable before being
  // retired: otherwise a sync on the new WAL could make post-rotation ops
  // durable while unsynced pre-rotation ops are lost — a mid-sequence gap
  // that breaks prefix recovery.
  MutexLock log_lock(&s->log_mu);
  if (s->wal_file != nullptr) {
    Status sync_status = s->wal_file->Sync();
    if (!sync_status.ok()) return sync_status;
  }
  s->first_unsynced_seq.store(0, std::memory_order_seq_cst);
  uint64_t new_number = versions_->NewFileNumber();
  std::unique_ptr<WritableFile> lfile;
  Status st =
      env_->NewWritableFile(ShardWalFileName(dbname_, new_number), &lfile);
  if (!st.ok()) return st;
  s->wal_file = std::move(lfile);
  s->wal = std::make_unique<log::Writer>(s->wal_file.get());
  // Publish the retiring number before the new one so the flush
  // installer's min-over-shards log-number floor never moves backwards.
  s->imm_wal_number.store(s->wal_number.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  s->wal_number.store(new_number, std::memory_order_relaxed);
  return Status::OK();
}

Status UniKVDB::MakeRoomForWrite(WriteShard* s, bool force) {
  bool counted_stall = false;
  while (true) {
    if (has_bg_error_.load(std::memory_order_acquire)) {
      MutexLock el(&err_mu_);
      return bg_error_;
    }
    if (!force &&
        s->mem->ApproximateMemoryUsage() <= options_.write_buffer_size) {
      return Status::OK();
    }
    if (force && s->mem->NumEntries() == 0) {
      return Status::OK();  // Nothing to rotate out.
    }
    if (s->imm != nullptr) {
      // The previous memtable is still being flushed: wait. For normal
      // writes the whole blocked span is one stall episode, counted here
      // and only here (PerfContext's write_stall_micros is for tracing
      // and is not folded). A forced rotation (manual flush) waiting here
      // is not a write stall.
      const uint64_t stall_start = env_->NowMicros();
      bg_work_cv_.SignalAll();
      s->cv.TimedWaitFor(std::chrono::milliseconds(100));
      if (!force) {
        const uint64_t waited = env_->NowMicros() - stall_start;
        if (!counted_stall) {
          counted_stall = true;
          metrics_.write_stalls->Inc();
        }
        metrics_.stall_micros->Add(waited);
        GetPerfContext()->write_stall_micros += waited;
      }
      continue;
    }
    // Switch to a new memtable + WAL and hand the old one to the
    // background workers. has_imm is the scheduler's wake signal; the
    // notify below is fired without mu_ (writers never take it), so the
    // workers' wait uses a timeout to cover the lost-wakeup window.
    Status st = SwitchWal(s);
    if (!st.ok()) return st;
    s->imm = s->mem;
    s->mem = new MemTable(icmp_);
    s->mem->Ref();
    s->has_imm.store(true, std::memory_order_release);
    MaybeScheduleWork();
    return Status::OK();
  }
}

// ------------------------------------------------------------- read path

SequenceNumber UniKVDB::ReadSequence(const ReadOptions& options) const {
  const SequenceNumber visible = visible_seq_.load(std::memory_order_acquire);
  return options.snapshot != 0 && options.snapshot < visible
             ? options.snapshot
             : visible;
}

Status UniKVDB::Get(const ReadOptions& options, const Slice& key,
                    std::string* value) {
  PerfContext* perf = GetPerfContext();
  // Point gets are fast enough (sub-microsecond on a negative lookup) that
  // two clock reads per call measurably dent throughput, so only every
  // kPerfSampleEvery-th get takes the latency sample.
  const bool timed = (tls_fold.sample_tick++ % kPerfSampleEvery) == 0;
  const uint64_t start_us = timed ? env_->NowMicros() : 0;
  perf->gets++;
  Status s;
  MultiGetImpl(options, &key, 1, value, &s);
  if (timed) {
    const uint64_t dur = env_->NowMicros() - start_us;
    perf->get_micros += dur;
    // Clock-granularity floor: a 0us reading means "< 1us", and recording
    // it as 0 would drag histogram percentiles to zero on fast paths.
    metrics_.get_latency->Add(dur == 0 ? 1 : dur);
  }
  PerfEndOp(perf);
  return s;
}

Status UniKVDB::MultiGet(const ReadOptions& options,
                         const std::vector<Slice>& keys,
                         std::vector<std::string>* values,
                         std::vector<Status>* statuses) {
  PerfContext* perf = GetPerfContext();
  // Unlike point gets, a batch amortizes its two clock reads over every
  // key, so MultiGet latency is timed exactly rather than sampled.
  const uint64_t start_us = env_->NowMicros();
  perf->multigets++;
  perf->multiget_keys += keys.size();
  // resize() (not clear+resize) so a caller reusing its vectors across
  // batches keeps each slot's string capacity: values are assigned over,
  // never appended. Slots whose status ends up non-OK are unspecified.
  values->resize(keys.size());
  statuses->resize(keys.size());
  MultiGetImpl(options, keys.data(), keys.size(), values->data(),
               statuses->data());
  const uint64_t dur = env_->NowMicros() - start_us;
  perf->multiget_micros += dur;
  metrics_.multiget_latency->Add(dur == 0 ? 1 : dur);
  metrics_.multiget_keys_per_batch->Add(keys.size());
  PerfEndOp(perf);
  // Absent keys are per-key NotFound; the batch fails only on a real error.
  for (const Status& s : *statuses) {
    if (!s.ok() && !s.IsNotFound()) return s;
  }
  return Status::OK();
}

namespace {

// Per-call scratch of the point-read path: a one-key read (Get) keeps its
// single element inline, so it allocates nothing; a batch allocates n.
template <typename T>
class OneOrMany {
 public:
  explicit OneOrMany(size_t n)
      : heap_(n > 1 ? std::make_unique<T[]>(n) : nullptr),
        data_(n > 1 ? heap_.get() : &one_) {}
  OneOrMany(const OneOrMany&) = delete;
  OneOrMany& operator=(const OneOrMany&) = delete;

  T& operator[](size_t i) { return data_[i]; }
  T* data() { return data_; }

 private:
  T one_{};
  std::unique_ptr<T[]> heap_;
  T* const data_;
};

struct ShardPin {
  MemTable* mem = nullptr;
  MemTable* imm = nullptr;
};

// One distinct key of a point read.
struct KeyRead {
  size_t slot = 0;  // Its first index in keys[] (by sorted order).
  uint64_t hash = 0;  // HashIndex::KeyHash, computed before mu_.
  int partition = 0;
  const ShardPin* pin = nullptr;
  bool done = false;                 // Resolved by a memtable.
  std::vector<uint16_t> candidates;  // Hash-index hits.
};

}  // namespace

void UniKVDB::MultiGetImpl(const ReadOptions& options, const Slice* keys,
                           size_t n, std::string* values, Status* statuses) {
  if (n == 0) return;
  PerfContext* perf = GetPerfContext();

  // One snapshot for the whole call, at the published sequence (everything
  // at or below it has completed its memtable insert, so acked writes are
  // always readable) or at the caller's older snapshot. Every key reads at
  // or below it, so a concurrent write batch is visible to all of a
  // MultiGet or to none of it.
  const SequenceNumber snapshot = ReadSequence(options);

  // Key-sorted order: FindPartition is a monotone search over range
  // partitions, so each partition's keys form one contiguous run, probed
  // in ascending key order. Duplicate keys resolve once: the call reads
  // one snapshot, so every repeat of a key has the same answer, copied
  // from its first occurrence at the end.
  OneOrMany<size_t> order(n);
  for (size_t i = 0; i < n; i++) order[i] = i;
  std::sort(order.data(), order.data() + n, [keys](size_t a, size_t b) {
    return keys[a].compare(keys[b]) < 0;
  });
  OneOrMany<KeyRead> reads(n);
  size_t m = 0;
  for (size_t j = 0; j < n; j++) {
    if (j > 0 && keys[order[j]] == keys[order[j - 1]]) continue;
    reads[m].slot = order[j];
    if (options_.enable_hash_index) {
      reads[m].hash = HashIndex::KeyHash(keys[order[j]]);
    }
    m++;
  }

  // Pin every touched shard's memtables once, *before* capturing the
  // version: if a flush installs between the two, an entry is in a pinned
  // imm or in the newer version's tables, never in neither.
  const size_t num_pins = n == 1 ? 1 : shards_.size();
  OneOrMany<ShardPin> pins(num_pins);
  for (size_t r = 0; r < m; r++) {
    const uint32_t shard = ShardOf(keys[reads[r].slot]);
    ShardPin& pin = pins[n == 1 ? 0 : shard];
    reads[r].pin = &pin;
    if (pin.mem != nullptr) continue;
    WriteShard* ws = shards_[shard].get();
    MutexLock shard_lock(&ws->mu);
    pin.mem = ws->mem;
    pin.mem->Ref();
    pin.imm = ws->imm;
    if (pin.imm != nullptr) pin.imm->Ref();
  }

  // One mu_ hold captures what must be mutually consistent — the version
  // and the hash-index candidates (index contents always correspond to
  // the version installed under the same lock) — and bumps the
  // per-partition read heat.
  VersionPtr ver;
  {
    MutexLock lock(&mu_);
    ver = versions_->current();
    int last_pi = -1;
    const PartitionRuntime* rt = nullptr;
    for (size_t r = 0; r < m; r++) {
      KeyRead& k = reads[r];
      k.partition = ver->FindPartition(keys[k.slot]);
      const PartitionState& p = *ver->partitions[k.partition];
      if (k.partition != last_pi) {
        last_pi = k.partition;
        rt = &runtime_.at(p.id);
      }
      rt->heat_reads->Inc();
      // No unsorted tables -> no candidates to find; skip the hash.
      if (options_.enable_hash_index && !p.unsorted.empty()) {
        rt->index->Lookup(k.hash, &k.candidates);
      }
    }
  }

  // Memtable probes run lock-free against the pinned tables (skipped
  // entirely against empty memtables — the common read-mostly case).
  for (size_t r = 0; r < m; r++) {
    KeyRead& k = reads[r];
    const ShardPin& pin = *k.pin;
    const bool mem_live = pin.mem->NumEntries() != 0;
    const bool imm_live = pin.imm != nullptr && pin.imm->NumEntries() != 0;
    if (!mem_live && !imm_live) continue;
    LookupKey lkey(keys[k.slot], snapshot);
    Status s;
    if ((mem_live && pin.mem->Get(lkey, &values[k.slot], &s)) ||
        (imm_live && pin.imm->Get(lkey, &values[k.slot], &s))) {
      perf->memtable_hits++;
      statuses[k.slot] = s;
      k.done = true;
    }
  }

  // Store probes, one partition run at a time. A run pins its table
  // handles once (N probes of one table cost one cache lookup) and carries
  // its last data block across keys (Table::Probe; declared after the pin
  // so it releases first). Separated values are not fetched here: their
  // pointers are collected for the one fetch below.
  OneOrMany<ValueFetcher::Item> items(m);
  size_t num_items = 0;
  for (size_t r = 0; r < m;) {
    const int part = reads[r].partition;
    const PartitionState& p = *ver->partitions[part];
    TableCache::BatchPin table_pin;
    Table::Probe probe;
    for (; r < m && reads[r].partition == part; r++) {
      KeyRead& k = reads[r];
      if (k.done) continue;
      LookupKey lkey(keys[k.slot], snapshot);
      std::string* value = &values[k.slot];
      ValuePointer ptr;
      bool separated = false;
      Status s = GetFromStores(p, &k.candidates, lkey, options.fill_cache,
                               &table_pin, &probe, value, &ptr, &separated);
      if (separated) {
        // Status resolves when the log fetch completes.
        items[num_items++] =
            ValueFetcher::Item{ptr, keys[k.slot], value, &statuses[k.slot]};
      } else {
        statuses[k.slot] = std::move(s);
      }
    }
  }

  // One fetch of every separated value, on the calling thread: a lone
  // value (every Get) is a point pread, several are sorted and coalesced.
  if (num_items > 0) {
    const ValueFetcher::Stats fetched =
        ValueFetcher(vlog_cache_.get(), ValueFetcher::Spans::kMapped)
            .Fetch(items.data(), num_items);
    perf->multiget_coalesced_reads += fetched.coalesced_spans;
    perf->multiget_io_bytes_saved += fetched.bytes_saved;
  }

  for (size_t i = 0; i < num_pins; i++) {
    if (pins[i].mem != nullptr) pins[i].mem->Unref();
    if (pins[i].imm != nullptr) pins[i].imm->Unref();
  }

  // Duplicate slots copy the answer of the slot sorted just before them.
  for (size_t j = 1; j < n; j++) {
    const size_t i = order[j], prev = order[j - 1];
    if (keys[i] == keys[prev]) {
      values[i] = values[prev];
      statuses[i] = statuses[prev];
    }
  }
}

Status UniKVDB::GetFromStores(const PartitionState& p,
                              std::vector<uint16_t>* candidates,
                              const LookupKey& lkey, bool fill_cache,
                              TableCache::BatchPin* pin, Table::Probe* probe,
                              std::string* value, ValuePointer* ptr,
                              bool* separated) {
  *separated = false;
  const Slice user_key = lkey.user_key();
  PerfContext* perf = GetPerfContext();
  Status s;
  // Probes one table; true when it settles the key with a value, a
  // separated value's pointer, a tombstone (NotFound) or an error, in s.
  // The probe's scratch strings are reused across the partition's keys;
  // its block stash (`block`) serves only the SortedStore probe, whose
  // consecutive keys usually share a data block.
  auto settles = [&](const FileMeta& f, Table::Probe* block) {
    bool hit = false;
    std::string& found_key = probe->key_scratch;
    std::string& found_value = probe->value_scratch;
    s = table_cache_->GetPinned(pin, f.number, f.size, lkey.internal_key(),
                                fill_cache, &hit, &found_key, &found_value,
                                block);
    if (!s.ok()) return true;
    if (!hit || ExtractUserKey(found_key) != user_key) return false;
    const ValueType type = ExtractValueType(found_key);
    if (type == kTypeDeletion) {
      s = Status::NotFound(Slice());
    } else if (type == kTypeValue) {
      *value = std::move(found_value);
    } else {
      Slice encoded(found_value);
      *separated = ptr->DecodeFrom(&encoded);
      if (!*separated) s = Status::Corruption("bad value pointer");
    }
    return true;
  };

  if (!options_.enable_hash_index) {
    // Ablation mode: every table whose key range covers the key is a
    // candidate.
    for (size_t i = 0; i < p.unsorted.size(); i++) {
      if (user_key.compare(Slice(p.unsorted[i].smallest)) >= 0 &&
          user_key.compare(Slice(p.unsorted[i].largest)) <= 0) {
        candidates->push_back(static_cast<uint16_t>(i));
      }
    }
  }
  // The list is oldest first, so probing positions in descending order
  // makes the newest version win, even under keyTag collisions.
  std::sort(candidates->begin(), candidates->end(), std::greater<uint16_t>());
  candidates->erase(std::unique(candidates->begin(), candidates->end()),
                    candidates->end());
  for (uint16_t pos : *candidates) {
    if (pos >= p.unsorted.size()) {
      return Status::Corruption("hash index names a missing unsorted table");
    }
    perf->unsorted_tables_probed++;
    if (settles(p.unsorted[pos], nullptr)) return s;
  }

  // Binary search the sorted run by largest key (paper: compare boundary
  // keys kept in memory; at most one table can contain the key).
  const auto& files = p.sorted;
  int lo = 0, hi = static_cast<int>(files.size()) - 1;
  int target = -1;
  while (lo <= hi) {
    int mid = (lo + hi) / 2;
    if (Slice(files[mid].largest).compare(user_key) < 0) {
      lo = mid + 1;
    } else {
      target = mid;
      hi = mid - 1;
    }
  }
  if (target >= 0 && user_key.compare(Slice(files[target].smallest)) >= 0) {
    perf->sorted_seeks++;
    if (settles(files[target], probe)) return s;
  }
  return Status::NotFound(Slice());
}

// ------------------------------------------------------------- iterators

Iterator* UniKVDB::NewInternalIterator(const ReadOptions& options,
                                       SequenceNumber* latest_seq) {
  // Same capture order as the point reads (MultiGetImpl): read sequence,
  // then every shard's memtables (one shard lock at a time), then the
  // version — so an entry flushed mid-capture is in a pinned imm or in the
  // version's tables.
  *latest_seq = ReadSequence(options);

  std::vector<Iterator*> children;
  for (auto& shard : shards_) {
    MemTable* mem;
    MemTable* imm = nullptr;
    {
      MutexLock shard_lock(&shard->mu);
      mem = shard->mem;
      mem->Ref();
      imm = shard->imm;
      if (imm != nullptr) imm->Ref();
    }
    Iterator* mem_iter = mem->NewIterator();
    mem_iter->RegisterCleanup([mem] { mem->Unref(); });
    children.push_back(mem_iter);
    if (imm != nullptr) {
      Iterator* imm_iter = imm->NewIterator();
      imm_iter->RegisterCleanup([imm] { imm->Unref(); });
      children.push_back(imm_iter);
    }
  }

  // Capture the version under a short mu_ hold — no I/O. Partition
  // children, their views and their table iterators (which can open files
  // and read blocks on a cache miss) are built only when the cursor
  // enters a partition, with mu_ released; the version the lambdas hold
  // keeps every file they may open live against RemoveObsoleteFiles,
  // exactly as the Get path relies on.
  VersionPtr ver;
  {
    MutexLock lock(&mu_);
    ver = versions_->current();
  }
  const bool fill = options.fill_cache;
  // Partitions cover disjoint, ordered key ranges, and FindPartition names
  // the one that holds a key, so the partitions form one lazy
  // concatenation: a Scan that stays in one partition builds one child.
  children.push_back(NewLazyConcatIterator(
      ver->partitions.size(),
      [ver](const Slice& target) -> size_t {
        return ver->FindPartition(ExtractUserKey(target));
      },
      [this, ver, fill](size_t i) {
        return NewPartitionIterator(*ver->partitions[i], fill);
      }));
  return NewMergingIterator(icmp_, std::move(children));
}

Iterator* UniKVDB::NewPartitionIterator(const PartitionState& p,
                                        bool fill_cache) {
  metrics_.iterator_partitions_opened->Inc();
  Counter* const tables_opened = metrics_.iterator_tables_opened;
  std::vector<Iterator*> children;
  AnchorViewPtr view;
  if (options_.enable_anchor_view && p.unsorted.size() >= 2) {
    view = RefreshAnchorView(p);
  }
  if (view != nullptr) {
    // One anchor-guided child replaces one child per unsorted table:
    // Next() costs a view step instead of a k-way heap pop, and a value
    // read one cursor move in the block the anchor names (DESIGN.md §12).
    // The view holds only the partition's range.
    children.push_back(
        NewAnchorViewIterator(icmp_, std::move(view), fill_cache,
                              tables_opened));
    metrics_.scan_anchor_hits->Inc();
  } else {
    // A table may hold sibling partitions' keys too, so each is read
    // clamped to the partition's range.
    for (const FileMeta& f : p.unsorted) {
      tables_opened->Inc();
      children.push_back(NewClampedIterator(
          table_cache_->NewIterator(f.number, f.size, fill_cache),
          p.lower_bound, p.upper_bound));
    }
  }
  if (!p.sorted.empty()) {
    children.push_back(NewSortedRunIterator(table_cache_.get(), p.sorted,
                                            fill_cache, tables_opened));
  }
  return NewMergingIterator(icmp_, std::move(children));
}

Iterator* UniKVDB::NewIterator(const ReadOptions& options) {
  SequenceNumber seq;
  Iterator* internal = NewInternalIterator(options, &seq);
  return new DBIter(icmp_, internal, seq, vlog_cache_.get());
}

Status UniKVDB::Scan(const ReadOptions& options, const Slice& start,
                     int count,
                     std::vector<std::pair<std::string, std::string>>* out) {
  PerfContext* perf = GetPerfContext();
  const uint64_t start_us = env_->NowMicros();
  perf->scans++;
  Status s = ScanImpl(options, start, count, out);
  const uint64_t dur = env_->NowMicros() - start_us;
  perf->scan_micros += dur;
  if (s.ok()) {
    metrics_.scan_entries->Add(out->size());
    metrics_.scan_latency->Add(dur == 0 ? 1 : dur);
  } else {
    // Failed scans neither count toward throughput metrics nor leave
    // half-filled results for the caller to mistake for data.
    out->clear();
  }
  PerfEndOp(perf);
  return s;
}

Status UniKVDB::ScanImpl(const ReadOptions& options, const Slice& start,
                         int count,
                         std::vector<std::pair<std::string, std::string>>* out) {
  if (!options_.enable_scan_optimization) {
    return DB::Scan(options, start, count, out);
  }
  // Match DB::Scan: non-positive counts are an empty scan.
  if (count <= 0) {
    out->clear();
    return Status::OK();
  }

  // Write keys and inline values into *out's rows in place and collect
  // the value pointers, then fetch every separated value in one
  // ValueFetcher step, as MultiGet does.
  SequenceNumber seq;
  Iterator* internal = NewInternalIterator(options, &seq);
  DBIter iter(icmp_, internal, seq, vlog_cache_.get());

  struct Separated {
    size_t row;
    ValuePointer ptr;
    Status status;
  };
  std::vector<Separated> separated;
  // A hint only: capped so a count larger than the store does not
  // pre-allocate for it.
  separated.reserve(std::min<size_t>(count, 4096));
  size_t n = 0;
  for (iter.Seek(start); iter.Valid() && count > 0; iter.Next(), count--) {
    auto& row = ScanRow(out, n);
    row.first.assign(iter.key().data(), iter.key().size());
    if (iter.raw_type() == kTypeValuePointer) {
      Slice encoded = iter.raw_value();
      ValuePointer ptr;
      if (!ptr.DecodeFrom(&encoded)) {
        return Status::Corruption("bad value pointer in scan");
      }
      separated.push_back(Separated{n, ptr, Status::OK()});
    } else {
      row.second.assign(iter.raw_value().data(), iter.raw_value().size());
    }
    n++;
  }
  Status s = iter.status();
  if (!s.ok()) return s;
  out->resize(n);

  // Merges and GC write values in key order, so a sorted scan mostly
  // dereferences ascending offsets within each log: the fetcher turns the
  // scan's pointers into a few span reads on this thread. Items point at
  // their rows' strings, which no longer move.
  std::vector<ValueFetcher::Item> items;
  items.reserve(separated.size());
  for (Separated& v : separated) {
    auto& row = (*out)[v.row];
    items.push_back(
        ValueFetcher::Item{v.ptr, row.first, &row.second, &v.status});
  }
  ValueFetcher(vlog_cache_.get(), ValueFetcher::Spans::kMapped)
      .Fetch(items.data(), items.size());
  for (const Separated& v : separated) {
    if (!v.status.ok()) return v.status;
  }
  return Status::OK();
}

// ------------------------------------------------------------ properties

size_t UniKVDB::TEST_block_cache_charge() const {
  return block_cache_ == nullptr ? 0 : block_cache_->TotalCharge();
}

Status UniKVDB::GetBackgroundError() {
  MutexLock lock(&err_mu_);
  return bg_error_;
}

bool UniKVDB::GetProperty(const Slice& property, std::string* value) {
  if (property == Slice("db.metrics") || property == Slice("db.metrics.json")) {
    // Push this thread's pending fold window into the registry so the
    // report reflects everything the calling thread has done (lock-free;
    // must happen before mu_ is taken only for tidiness).
    FlushPerfPending();
  }
  MutexLock lock(&mu_);
  VersionPtr ver = versions_->current();
  char buf[256];
  if (property == Slice("db.num-partitions")) {
    std::snprintf(buf, sizeof(buf), "%zu", ver->partitions.size());
    *value = buf;
    return true;
  }
  if (property == Slice("db.hash-index-bytes")) {
    size_t total = 0;
    for (const auto& [pid, rt] : runtime_) total += rt.index->MemoryUsage();
    std::snprintf(buf, sizeof(buf), "%zu", total);
    *value = buf;
    return true;
  }
  if (property == Slice("db.hash-index-entries")) {
    uint64_t total = 0;
    for (const auto& [pid, rt] : runtime_) total += rt.index->NumEntries();
    std::snprintf(buf, sizeof(buf), "%" PRIu64, total);
    *value = buf;
    return true;
  }
  if (property == Slice("db.num-files")) {
    // Distinct files: partitions share unsorted tables and value logs.
    std::set<uint64_t> files;
    ver->AddLiveFiles(&files);
    std::snprintf(buf, sizeof(buf), "%zu", files.size());
    *value = buf;
    return true;
  }
  if (property == Slice("db.last-sequence")) {
    std::snprintf(buf, sizeof(buf), "%" PRIu64,
                  seq_alloc_.load(std::memory_order_acquire));
    *value = buf;
    return true;
  }
  if (property == Slice("db.visible-sequence")) {
    // The published read snapshot: every write at or below this sequence
    // is durable and visible. Pass it as ReadOptions::snapshot to pin
    // later iterators/scans to this point in time.
    std::snprintf(buf, sizeof(buf), "%" PRIu64,
                  visible_seq_.load(std::memory_order_acquire));
    *value = buf;
    return true;
  }
  if (property == Slice("db.stats")) {
    // Keys and order are a contract: parsers match `name=` substrings.
    const CounterSnapshot snap = metrics_.registry.SnapshotCounters();
    const auto& e = snap.engine;
    std::snprintf(
        buf, sizeof(buf),
        "flushes=%" PRIu64 " merges=%" PRIu64 " scan_merges=%" PRIu64
        " gcs=%" PRIu64 " splits=%" PRIu64 " merge_write_mb=%.1f"
        " gc_write_mb=%.1f write_stalls=%" PRIu64 " stall_micros=%" PRIu64,
        e.at("flushes"), e.at("merges"), e.at("scan_merges"), e.at("gcs"),
        e.at("splits"), e.at("merge_bytes_written") / 1048576.0,
        e.at("gc_bytes_written") / 1048576.0, e.at("write_stalls"),
        e.at("stall_micros"));
    *value = buf;
    return true;
  }
  if (property == Slice("db.metrics")) {
    *value = MetricsTextLocked(*ver);
    return true;
  }
  if (property == Slice("db.metrics.json")) {
    *value = MetricsJsonLocked(*ver);
    return true;
  }
  if (property == Slice("db.stats.history")) {
    *value = StatsHistoryJsonLocked();
    return true;
  }
  if (property == Slice("db.sstables")) {
    // Built with string appends: user keys have no length limit, so a
    // fixed snprintf buffer would silently truncate long lower bounds
    // (and everything after them on the line).
    std::string result;
    for (const auto& p : ver->partitions) {
      result += "partition ";
      result += std::to_string(p->id);
      result += " [";
      result += p->lower_bound.empty() ? std::string("-inf") : p->lower_bound;
      result += "..): unsorted=";
      result += std::to_string(p->unsorted.size());
      result += " sorted=";
      result += std::to_string(p->sorted.size());
      result += " vlogs=";
      result += std::to_string(p->vlogs.size());
      result += '\n';
    }
    *value = std::move(result);
    return true;
  }
  if (property == Slice("db.table-accesses")) {
    // One line per table: <kind> <file number> <access count>.
    std::string result;
    for (const auto& p : ver->partitions) {
      for (const FileMeta& f : p->unsorted) {
        std::snprintf(buf, sizeof(buf), "unsorted %llu %llu\n",
                      static_cast<unsigned long long>(f.number),
                      static_cast<unsigned long long>(
                          table_cache_->AccessCount(f.number, f.size)));
        result += buf;
      }
      for (const FileMeta& f : p->sorted) {
        std::snprintf(buf, sizeof(buf), "sorted %llu %llu\n",
                      static_cast<unsigned long long>(f.number),
                      static_cast<unsigned long long>(
                          table_cache_->AccessCount(f.number, f.size)));
        result += buf;
      }
    }
    *value = std::move(result);
    return true;
  }
  return false;
}

namespace {

// Physical bytes flush/merge/scan-merge/GC wrote on a partition's behalf
// per logical user byte flushed into it.
double PartitionWriteAmp(const std::map<std::string, uint64_t>& pc) {
  const uint64_t user = pc.at("user_bytes_flushed");
  const uint64_t physical =
      pc.at("flush_bytes") + pc.at("merge_bytes_written") +
      pc.at("scan_merge_bytes_written") + pc.at("gc_bytes_written");
  return user == 0 ? 0.0 : static_cast<double>(physical) / user;
}

}  // namespace

std::string UniKVDB::MetricsTextLocked(const VersionData& ver) {
  // The registry dump already lists every engine-wide series (job counts,
  // bytes, stalls); the partition lines add structure and heat.
  std::string result = metrics_.registry.ToString();
  const CounterSnapshot snap = metrics_.registry.SnapshotCounters();
  char buf[256];
  result += "-- partitions --\n";
  for (const auto& p : ver.partitions) {
    const uint64_t garbage = runtime_.at(p->id).vlog_garbage;
    const uint64_t vlog_bytes = p->VlogBytes();
    // Registered at the partition's birth (see PartitionRuntime).
    const auto& pc = snap.partitions.at(p->id);
    const uint64_t logical = p->LogicalBytes();
    // The lower bound is an arbitrary user key and goes through string
    // appends; only the fixed-width numeric tail uses the snprintf buffer.
    result += "partition ";
    result += std::to_string(p->id);
    result += " [";
    result += p->lower_bound.empty() ? std::string("-inf") : p->lower_bound;
    std::snprintf(
        buf, sizeof(buf),
        "..): unsorted=%zu/%.1fMB sorted=%zu/%.1fMB"
        " logical=%.1fMB vlogs=%zu/%.1fMB garbage=%.1fMB (%.0f%%)"
        " heat_r=%" PRIu64 " heat_w=%" PRIu64 " wamp=%.2f samp=%.2f\n",
        p->unsorted.size(), p->UnsortedBytes() / 1048576.0, p->sorted.size(),
        p->SortedBytes() / 1048576.0, logical / 1048576.0, p->vlogs.size(),
        vlog_bytes / 1048576.0, garbage / 1048576.0,
        vlog_bytes == 0 ? 0.0 : 100.0 * garbage / vlog_bytes,
        pc.at("heat_reads"), pc.at("heat_writes"),
        PartitionWriteAmp(pc),
        logical == 0 ? 0.0
                     : static_cast<double>(p->TotalBytes()) / logical);
    result += buf;
  }
  return result;
}

std::string UniKVDB::MetricsJsonLocked(const VersionData& ver) {
  const CounterSnapshot snap = metrics_.registry.SnapshotCounters();
  std::string partitions = "[";
  bool first = true;
  for (const auto& p : ver.partitions) {
    if (!first) partitions += ',';
    first = false;

    const PartitionRuntime& rt = runtime_.at(p->id);
    const uint64_t garbage = rt.vlog_garbage;
    const uint64_t vlog_bytes = p->VlogBytes();

    // Structure derived from the version at render time, then every
    // registry series of the partition, then the amplification gauges
    // hotness-aware GC ranks partitions by.
    JsonBuilder pj;
    pj.AddUint("id", p->id);
    pj.AddString("lower_bound", p->lower_bound);
    pj.AddUint("unsorted_tables", p->unsorted.size());
    pj.AddUint("unsorted_bytes", p->UnsortedBytes());
    pj.AddUint("sorted_tables", p->sorted.size());
    pj.AddUint("sorted_bytes", p->SortedBytes());
    pj.AddUint("logical_bytes", p->LogicalBytes());
    pj.AddUint("vlog_files", p->vlogs.size());
    pj.AddUint("vlog_bytes", vlog_bytes);
    pj.AddUint("vlog_garbage_bytes", garbage);
    pj.AddDouble("garbage_ratio",
                 vlog_bytes == 0 ? 0.0
                                 : static_cast<double>(garbage) / vlog_bytes);
    pj.AddUint("index_entries", rt.index->NumEntries());
    pj.AddUint("index_bytes", rt.index->MemoryUsage());
    const auto& pc = snap.partitions.at(p->id);
    for (const auto& [name, v] : pc) pj.AddUint(name, v);
    const uint64_t logical = p->LogicalBytes();
    pj.AddDouble("write_amp", PartitionWriteAmp(pc));
    pj.AddDouble("space_amp",
                 logical == 0 ? 0.0
                              : static_cast<double>(p->TotalBytes()) /
                                    logical);
    partitions += pj.Finish();
  }
  partitions += ']';

  // The background-work view of the engine series (same values as
  // engine.counters, one registry underneath).
  JsonBuilder stats;
  for (const char* name : kJobSeries) stats.AddUint(name, snap.engine.at(name));
  stats.AddUint("write_stalls", snap.engine.at("write_stalls"));
  stats.AddUint("stall_micros", snap.engine.at("stall_micros"));

  JsonBuilder root;
  root.AddRaw("engine", metrics_.registry.ToJson());
  root.AddRaw("stats", stats.Finish());
  root.AddRaw("partitions", partitions);
  return root.Finish();
}

}  // namespace unikv
