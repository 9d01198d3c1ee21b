// Background maintenance for UniKVDB: memtable flushes, UnsortedStore ->
// SortedStore merges with partial KV separation, size-based scan merges,
// value-log garbage collection, and dynamic range-partition splits.

#include <algorithm>
#include <chrono>
#include <iterator>

#include "core/filename.h"
#include "core/merging_iterator.h"
#include "core/table_output_writer.h"
#include "core/unikv_db.h"
#include "util/env.h"
#include "vlog/value_fetcher.h"

namespace unikv {

// ------------------------------------------------------------- scheduling

void UniKVDB::MaybeScheduleWork() { bg_work_cv_.SignalAll(); }

UniKVDB::Wanted UniKVDB::WantedWork(const PartitionState& p) {
  // Ranks: 0 merge at UnsortedLimit (largest backlog first); 1 a split,
  // or the merge that must precede it (the paper runs a split as
  // compaction + GC in sequence); 2 size-based scan-merge; 3 GC (most
  // garbage first). Each requires input: a non-empty UnsortedStore, at
  // least two unsorted tables, garbage > 0 in a partition with logs.
  const uint64_t unsorted_bytes = p.UnsortedBytes();
  if (!p.unsorted.empty() &&
      (unsorted_bytes >= options_.unsorted_limit || compact_all_)) {
    return {WorkKind::kMerge, 0, unsorted_bytes};
  }
  if (options_.enable_partitioning &&
      p.LogicalBytes() >= options_.partition_size_limit) {
    if (!p.unsorted.empty()) return {WorkKind::kMerge, 1, 0};
    if (p.sorted.size() >= 2) return {WorkKind::kSplit, 1, 0};
  }
  if (options_.enable_scan_optimization &&
      p.unsorted.size() >=
          static_cast<size_t>(std::max(2, options_.scan_merge_limit))) {
    return {WorkKind::kScanMerge, 2, 0};
  }
  const uint64_t garbage = runtime_.at(p.id).vlog_garbage;
  if (!p.vlogs.empty() && garbage > 0 &&
      (garbage >= options_.gc_garbage_threshold || compact_all_)) {
    return {WorkKind::kGc, 3, garbage};
  }
  return {};
}

bool UniKVDB::HasWorkPending() {
  for (const auto& shard : shards_) {
    if (shard->has_imm.load(std::memory_order_acquire)) return true;
  }
  VersionPtr ver = versions_->current();
  for (const auto& p : ver->partitions) {
    if (WantedWork(*p).kind != WorkKind::kNone) return true;
  }
  return false;
}

UniKVDB::WorkItem UniKVDB::PickWork() {
  WorkItem item;
  // Flushes of different shards run concurrently (their key ranges are
  // disjoint hash stripes); a given shard's flushes are serialized by its
  // flush_in_progress claim.
  for (size_t i = 0; i < shards_.size(); i++) {
    if (shards_[i]->has_imm.load(std::memory_order_acquire) &&
        !shards_[i]->flush_in_progress) {
      item.kind = WorkKind::kFlush;
      item.shard = static_cast<int>(i);
      return item;
    }
  }
  VersionPtr ver = versions_->current();
  Wanted best;
  for (const auto& p : ver->partitions) {
    if (runtime_.at(p->id).busy) continue;
    const Wanted w = WantedWork(*p);
    if (w.kind == WorkKind::kNone) continue;
    if (best.kind == WorkKind::kNone || w.rank < best.rank ||
        (w.rank == best.rank && w.weight > best.weight)) {
      best = w;
      item.kind = w.kind;
      item.partition = p;
    }
  }
  return item;
}

void UniKVDB::BackgroundWorker() {
  MutexLock lock(&mu_);
  while (true) {
    WorkItem item;
    while (true) {
      if (shutting_down_) break;
      if (!has_bg_error_.load(std::memory_order_acquire)) {
        item = PickWork();
        if (item.kind != WorkKind::kNone) break;
      }
      // Writers signal a rotation (has_imm) without holding mu_, so a
      // notify can slip between this thread's predicate check and its
      // sleep; the timeout bounds that lost-wakeup window.
      bg_work_cv_.TimedWaitFor(std::chrono::milliseconds(100));
    }
    if (shutting_down_) break;

    // Claim the job's target before releasing the mutex so no peer picks
    // the same partition (or the same shard's flush) while this one runs.
    if (item.kind == WorkKind::kFlush) {
      shards_[item.shard]->flush_in_progress = true;
    } else {
      runtime_.at(item.partition->id).busy = true;
    }
    bg_jobs_running_++;
    lock.Unlock();

    // Fold what the job itself observed (cache hits, bloom checks, table
    // opens...) into the engine counters; each worker thread has its own
    // PerfContext, so foreground folds never see this work.
    PerfContext* perf = GetPerfContext();
    const PerfContext perf_before = *perf;
    Status s = DispatchWork(item);
    metrics_.FoldPerf(perf->DeltaSince(perf_before));
    if (!s.ok()) {
      RecordBackgroundError(s);
    }
    RemoveObsoleteFiles();

    lock.Lock();
    if (item.kind == WorkKind::kFlush) {
      shards_[item.shard]->flush_in_progress = false;
    } else {
      runtime_.at(item.partition->id).busy = false;
    }
    bg_jobs_running_--;
    bg_cv_.SignalAll();
    // Finishing a job can unblock peers: a partition leaving the busy set
    // may be the one a waiting worker needs.
    bg_work_cv_.SignalAll();
  }
  bg_cv_.SignalAll();
}

Status UniKVDB::DispatchWork(const WorkItem& item) {
  switch (item.kind) {
    case WorkKind::kFlush:
      return CompactMemTable(static_cast<size_t>(item.shard));
    case WorkKind::kMerge:
      return MergePartition(item.partition);
    case WorkKind::kScanMerge:
      return ScanMergePartition(item.partition);
    case WorkKind::kGc:
      return GcPartition(item.partition);
    case WorkKind::kSplit:
      return SplitPartition(item.partition);
    case WorkKind::kNone:
      break;
  }
  return Status::OK();
}

void UniKVDB::RecordBackgroundError(const Status& s) {
  // Callers may hold shard locks but never mu_ or err_mu_. err_mu_ is a
  // leaf: nothing else is acquired while it is held.
  {
    MutexLock lock(&err_mu_);
    if (bg_error_.ok()) {
      bg_error_ = s;
    }
    has_bg_error_.store(true, std::memory_order_release);
  }
  // Wake every waiter. The empty lock holds order the flag store before
  // each waiter's predicate re-check, closing the lost-wakeup window for
  // threads already inside their wait.
  { MutexLock lock(&mu_); }
  bg_cv_.SignalAll();
  bg_work_cv_.SignalAll();
  for (auto& shard : shards_) {
    { MutexLock shard_lock(&shard->mu); }
    shard->cv.SignalAll();
  }
}

Status UniKVDB::FlushMemTable() {
  // Rotate via each shard's writer queue: a null batch is the rotation
  // sentinel. Rotating here directly (as this method once did) swapped the
  // WAL under the front group writer's feet — a use-after-free. At the
  // queue front no concurrent append can be in flight.
  Status s = WriteImpl(WriteOptions(), nullptr);
  if (!s.ok()) return s;
  MutexLock lock(&mu_);
  bg_work_cv_.SignalAll();
  while (true) {
    if (has_bg_error_.load(std::memory_order_acquire)) break;
    bool imm_pending = false;
    for (const auto& shard : shards_) {
      if (shard->has_imm.load(std::memory_order_acquire)) {
        imm_pending = true;
        break;
      }
    }
    if (!imm_pending) break;
    bg_cv_.Wait();
  }
  return GetBackgroundError();
}

Status UniKVDB::CompactAll() {
  Status s = FlushMemTable();
  if (!s.ok()) return s;
  MutexLock lock(&mu_);
  compact_all_++;
  bg_work_cv_.SignalAll();
  while (!((!HasWorkPending() && bg_jobs_running_ == 0) ||
           has_bg_error_.load(std::memory_order_acquire))) {
    bg_cv_.Wait();
  }
  compact_all_--;
  return GetBackgroundError();
}

// ------------------------------------------------------------------ flush

Status UniKVDB::FlushMemTableToUnsorted(MemTable* mem, const VersionPtr& base,
                                        std::vector<FlushOutput>* outputs) {
  // Entries come out in internal-key order and partitions are contiguous
  // key ranges, so each partition's entries form one run: one table per
  // partition touched. table_id is assigned by the caller at install
  // time, under mu_, from the then-current version: a concurrent merge
  // may clear this partition's epoch, so an id computed from `base` here
  // could collide or break newest-first probe order.
  std::unique_ptr<Iterator> iter(mem->NewIterator());
  Status s;
  FlushOutput* out = nullptr;
  for (iter->SeekToFirst(); s.ok() && iter->Valid(); iter->Next()) {
    const Slice user_key = ExtractUserKey(iter->key());
    const uint32_t pid = base->partitions[base->FindPartition(user_key)]->id;
    if (out == nullptr || out->pid != pid) {
      if (out != nullptr) s = out->writer->Finish();
      if (!s.ok()) break;
      out = &outputs->emplace_back();
      out->pid = pid;
      out->writer = std::make_unique<TableOutputWriter>(
          this, TableOutputWriter::Store::kUnsorted);
    }
    s = out->writer->Add(iter->key(), iter->value(),
                         user_key.size() + iter->value().size());
    if (out->keys.empty() || Slice(out->keys.back()) != user_key) {
      out->keys.push_back(user_key.ToString());
    }
  }
  if (s.ok()) s = iter->status();
  if (s.ok() && out != nullptr) s = out->writer->Finish();
  if (s.ok()) {
    for (FlushOutput& o : *outputs) o.meta = o.writer->outputs()[0];
  }
  return s;
}

// ---------------------------------------------------------------- helpers

namespace {

// A hash-index checkpoint image: the covered-id list, then the index.
std::string CheckpointImage(const HashIndex& index,
                            const std::vector<uint16_t>& covered_ids) {
  std::string image;
  PutVarint32(&image, static_cast<uint32_t>(covered_ids.size()));
  for (uint16_t id : covered_ids) PutVarint32(&image, id);
  index.EncodeTo(&image);
  return image;
}

Status WriteCheckpointFile(Env* env, const std::string& fname,
                           const std::string& image) {
  std::unique_ptr<WritableFile> file;
  Status s = env->NewWritableFile(fname, &file);
  if (!s.ok()) return s;
  s = file->Append(image);
  if (s.ok()) s = file->Sync();
  if (s.ok()) s = file->Close();
  return s;
}

}  // namespace

bool UniKVDB::RoutingStillValid(const VersionData& ver,
                                const std::vector<FlushOutput>& outputs) {
  for (const FlushOutput& out : outputs) {
    // Partition ranges are contiguous, so if both endpoints of the table
    // still map to the partition it was built for, every key in between
    // does too.
    const int pi = ver.FindPartition(Slice(out.meta.smallest));
    if (ver.partitions[pi]->id != out.pid) return false;
    if (ver.FindPartition(Slice(out.meta.largest)) != pi) return false;
  }
  return true;
}

Status UniKVDB::CompactMemTable(size_t shard_idx) {
  const uint64_t start_us = env_->NowMicros();
  WriteShard* shard = shards_[shard_idx].get();
  MemTable* mem;
  {
    MutexLock shard_lock(&shard->mu);
    mem = shard->imm;
  }
  VersionPtr base = versions_->current();
  assert(mem != nullptr);

  // Durability ceiling for the manifest floor. Every sequence allocated
  // before this load is fully appended once the sync-all below has passed
  // its shard's log_mu, and is then durable — so advancing LastSequence
  // to flush_ceiling can never let gap-cut recovery drop an op below the
  // floor. The sync also covers this shard's retiring WAL before the
  // install makes it deletable.
  const uint64_t flush_ceiling = seq_alloc_.load(std::memory_order_acquire);
  Status s = SyncAllShardWals(flush_ceiling, /*force=*/true);
  if (!s.ok()) return s;

  std::vector<FlushOutput> outputs;
  s = FlushMemTableToUnsorted(mem, base, &outputs);
  if (!s.ok()) return s;

  // Periodic hash-index checkpointing (paper: every UnsortedLimit/2 of
  // flushed tables) for the partitions this flush makes due. Each image
  // is the index as it stands before this flush's keys land, copied under
  // a short mu_ hold; the copy is encoded (with its checksum) and written
  // with mu_ released, and the install below records it in the flush's
  // own edit. Writing the files under the install hold made their I/O
  // dominate a hold every Get waits on.
  struct Checkpoint {
    uint32_t pid = 0;
    TableOutputWriter* writer = nullptr;  // The flush output's; owns number.
    uint64_t number = 0;
    std::vector<uint64_t> tables;  // File numbers of the covered tables.
    std::vector<uint16_t> covered;  // Their table ids.
    std::unique_ptr<HashIndex> index;  // Copied under mu_, encoded after.
    bool written = false;
  };
  std::vector<Checkpoint> checkpoints;
  // Time under mu_ for this install (EVENTS install_micros): the index
  // copy hold plus the install hold below.
  uint64_t install_us = 0;
  if (options_.index_checkpoint_interval > 0) {
    {
      MutexLock lock(&mu_);
      const uint64_t copy_start_us = env_->NowMicros();
      VersionPtr cur = versions_->current();
      for (const FlushOutput& out : outputs) {
        const PartitionRuntime& rt = runtime_.at(out.pid);
        if (rt.flushes_since_checkpoint + 1 <
            options_.index_checkpoint_interval) {
          continue;
        }
        auto p = cur->FindById(out.pid);
        if (p == nullptr || p->unsorted.empty()) continue;
        Checkpoint cp;
        cp.pid = out.pid;
        cp.writer = out.writer.get();
        for (const FileMeta& f : p->unsorted) {
          cp.covered.push_back(f.table_id);
          cp.tables.push_back(f.number);
        }
        cp.index = rt.index->Clone();
        checkpoints.push_back(std::move(cp));
      }
      install_us += env_->NowMicros() - copy_start_us;
    }
    for (Checkpoint& cp : checkpoints) {
      cp.number = cp.writer->NewFileNumber();
      cp.written = WriteCheckpointFile(
                       env_, IndexCheckpointFileName(dbname_, cp.number),
                       CheckpointImage(*cp.index, cp.covered))
                       .ok();
      cp.index.reset();
    }
  }

  // Outputs a re-route below replaced; their writers also hold the
  // checkpoint numbers, so they are released with the rest, after mu_.
  std::vector<FlushOutput> rerouted;
  MutexLock lock(&mu_);
  uint64_t install_start_us = env_->NowMicros();

  // A concurrent split may have moved partition boundaries while the
  // tables were building; an output routed by the old boundaries could
  // span a new partition edge and must not be installed. Discard and
  // rebuild against the fresh version (splits are rare — in practice this
  // loop body never runs).
  while (!RoutingStillValid(*versions_->current(), outputs)) {
    std::move(outputs.begin(), outputs.end(), std::back_inserter(rerouted));
    outputs.clear();
    base = versions_->current();
    lock.Unlock();
    s = FlushMemTableToUnsorted(mem, base, &outputs);
    lock.Lock();
    install_start_us = env_->NowMicros();
    if (!s.ok()) return s;
  }

  VersionEdit edit;
  // Manifest log-number floor: the smallest WAL that may still hold
  // un-flushed records across all shards. The flushing shard's retiring
  // WAL is covered by this install, so it contributes its *current* WAL;
  // a shard mid-flush elsewhere contributes its retiring one. Rotation
  // publishes imm_wal_number before wal_number (both under the shard's
  // mu, which we hold while reading), so the floor never moves backwards
  // across installs — VersionSet::Apply has no monotonicity guard.
  uint64_t min_wal = 0;
  for (size_t i = 0; i < shards_.size(); i++) {
    WriteShard* t = shards_[i].get();
    MutexLock tl(&t->mu);
    uint64_t n;
    if (i == shard_idx || t->imm == nullptr) {
      n = t->wal_number.load(std::memory_order_relaxed);
    } else {
      n = t->imm_wal_number.load(std::memory_order_relaxed);
    }
    if (min_wal == 0 || n < min_wal) min_wal = n;
  }
  edit.SetLogNumber(min_wal);

  // Assign table ids from the current version, under the same mutex hold
  // that installs the edit. Ids must be allocated here — not while the
  // tables were building — because a merge may have cleared the
  // partition's epoch (restarting ids from 0) or consumed the tables an
  // earlier snapshot-based id was computed against; probe order depends
  // on ids being newest-largest within the installed epoch.
  {
    VersionPtr cur = versions_->current();
    for (FlushOutput& out : outputs) {
      auto p = cur->FindById(out.pid);
      uint16_t next_id = 0;
      if (p != nullptr) {
        for (const FileMeta& f : p->unsorted) {
          if (f.table_id >= next_id) next_id = f.table_id + 1;
        }
      }
      out.meta.table_id = next_id;
      edit.AddUnsortedFile(out.pid, out.meta);
    }
  }

  // Bring the hash indexes up to date before the new version becomes
  // visible (both are installed under this same mutex hold, so readers
  // always observe a consistent pair).
  for (const FlushOutput& out : outputs) {
    HashIndex& index = *runtime_.at(out.pid).index;
    for (const std::string& key : out.keys) {
      index.Insert(key, out.meta.table_id);
    }
  }

  // Record each checkpoint written above that is still valid. A merge or
  // scan-merge installed meanwhile consumed covered tables (and restarts
  // table ids, so the covered-id list would name other tables); a newer
  // checkpoint makes this one redundant. A skipped one is only an
  // optimization lost: recovery replays the uncovered tables, and the
  // sweep deletes the file.
  if (options_.index_checkpoint_interval > 0) {
    for (const FlushOutput& out : outputs) {
      runtime_.at(out.pid).flushes_since_checkpoint++;
    }
    VersionPtr cur = versions_->current();
    for (const Checkpoint& cp : checkpoints) {
      auto p = cur->FindById(cp.pid);
      auto live = [&p](uint64_t number) {
        return std::any_of(
            p->unsorted.begin(), p->unsorted.end(),
            [number](const FileMeta& f) { return f.number == number; });
      };
      if (cp.written && p != nullptr && p->index_checkpoint < cp.number &&
          std::all_of(cp.tables.begin(), cp.tables.end(), live)) {
        edit.SetIndexCheckpoint(cp.pid, cp.number);
        runtime_.at(cp.pid).flushes_since_checkpoint = 0;
      }
    }
  }

  // Advance the recovery floor only as far as the sync-all made durable
  // (LogAndApply stamps the manifest from VersionSet's own counter, so it
  // must be raised here, before the install).
  if (flush_ceiling > versions_->LastSequence()) {
    versions_->SetLastSequence(flush_ceiling);
  }
  s = versions_->LogAndApply(&edit);
  install_us += env_->NowMicros() - install_start_us;
  if (s.ok()) {
    {
      MutexLock shard_lock(&shard->mu);
      shard->imm->Unref();
      shard->imm = nullptr;
      shard->has_imm.store(false, std::memory_order_release);
      shard->imm_wal_number.store(0, std::memory_order_relaxed);
      shard->cv.SignalAll();  // Stalled writers wait on the shard cv.
    }

    const uint64_t dur = env_->NowMicros() - start_us;
    metrics_.flush_latency->Add(static_cast<double>(dur));
    MetricsRegistry& reg = metrics_.registry;
    reg.GetCounter("flushes")->Inc();
    uint64_t bytes_written = 0;
    for (const FlushOutput& out : outputs) {
      metrics_.CountJob(out.pid, {{"flush_bytes", out.meta.size}});
      reg.GetCounter("flushes", out.pid)->Inc();
      // Heat + write-amp inputs: entries and logical user bytes landing
      // in the partition. Flush routing is where keys first meet
      // partition boundaries, so update frequency is measured here.
      reg.GetCounter("heat_writes", out.pid)->Add(out.keys.size());
      reg.GetCounter("user_bytes_flushed", out.pid)->Add(out.meta.logical);
      bytes_written += out.meta.size;
    }
    JsonBuilder ev;
    ev.AddUint("duration_micros", dur);
    ev.AddUint("bytes_written", bytes_written);
    ev.AddUint("output_tables", outputs.size());
    ev.AddUint("install_micros", install_us);
    event_log_->Log("flush", &ev);
  }
  bg_cv_.SignalAll();
  return s;
}

// ------------------------------------------------------------------ merge

Status UniKVDB::MergePartition(std::shared_ptr<const PartitionState> p) {
  const uint64_t start_us = env_->NowMicros();
  const uint32_t pid = p->id;
  const bool separate = options_.enable_kv_separation;

  // Inputs: every unsorted table + the sorted run.
  std::vector<Iterator*> children;
  uint64_t bytes_read = 0;
  for (const FileMeta& f : p->unsorted) {
    children.push_back(table_cache_->NewIterator(f.number, f.size));
    bytes_read += f.size;
  }
  if (!p->sorted.empty()) {
    bytes_read += p->SortedBytes();
    children.push_back(NewSortedRunIterator(table_cache_.get(), p->sorted));
  }
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(icmp_, std::move(children)));

  // Output value log (partial KV separation: only values arriving from
  // the UnsortedStore are appended; SortedStore values keep their existing
  // pointers).
  TableOutputWriter writer(this, TableOutputWriter::Store::kSorted);
  std::unique_ptr<ValueLogWriter> vlog;
  uint64_t vlog_number = 0;
  if (separate) {
    vlog_number = writer.NewFileNumber();
    std::unique_ptr<WritableFile> vfile;
    Status s =
        env_->NewWritableFile(ValueLogFileName(dbname_, vlog_number), &vfile);
    if (!s.ok()) return s;
    vlog = std::make_unique<ValueLogWriter>(std::move(vfile), pid,
                                            vlog_number);
  }

  uint64_t garbage_added = 0;
  Status s;
  std::string current_user_key;
  bool has_current_user_key = false;
  std::string rewritten;

  for (merged->SeekToFirst(); s.ok() && merged->Valid(); merged->Next()) {
    Slice internal_key = merged->key();
    ParsedInternalKey ikey;
    if (!ParseInternalKey(internal_key, &ikey)) {
      s = Status::Corruption("corrupt internal key during merge");
      break;
    }

    const bool first_occurrence =
        !has_current_user_key ||
        ikey.user_key.compare(Slice(current_user_key)) != 0;
    if (first_occurrence) {
      current_user_key.assign(ikey.user_key.data(), ikey.user_key.size());
      has_current_user_key = true;
    } else {
      // An older, shadowed version: drop it. If it pointed into a value
      // log, its record becomes garbage.
      if (ikey.type == kTypeValuePointer) {
        ValuePointer ptr;
        Slice encoded = merged->value();
        if (ptr.DecodeFrom(&encoded)) garbage_added += ptr.size;
      }
      continue;
    }

    if (ikey.type == kTypeDeletion) {
      // The SortedStore is the terminal level: tombstones die here.
      continue;
    }

    Slice out_value = merged->value();
    ValueType out_type = ikey.type;
    if (ikey.type == kTypeValue && separate &&
        out_value.size() >= options_.value_separation_threshold) {
      // Value arriving from the UnsortedStore: separate it. Values below
      // the separation threshold stay inline (differentiated management
      // of small KVs, paper §Memory overhead discussion).
      ValuePointer ptr;
      s = vlog->Add(ikey.user_key, out_value, &ptr);
      if (!s.ok()) break;
      rewritten.clear();
      ptr.EncodeTo(&rewritten);
      out_value = Slice(rewritten);
      out_type = kTypeValuePointer;
    }

    std::string out_key;
    AppendInternalKey(&out_key,
                      ParsedInternalKey(ikey.user_key, ikey.sequence,
                                        out_type));
    // Logical bytes: key plus the value the entry governs (the pointed-to
    // record for separated values).
    uint64_t governed = ikey.user_key.size();
    if (out_type == kTypeValuePointer) {
      ValuePointer p2;
      Slice encoded2(out_value);
      if (p2.DecodeFrom(&encoded2)) governed += p2.size;
    } else {
      governed += out_value.size();
    }
    s = writer.Add(out_key, out_value, governed);
  }
  if (s.ok()) s = merged->status();
  if (s.ok()) s = writer.Finish();

  uint64_t vlog_size = 0;
  if (s.ok() && vlog != nullptr) {
    vlog_size = vlog->CurrentOffset();
    if (vlog_size > 0) {
      s = vlog->Sync();
      if (s.ok()) s = vlog->Close();
    }
  }
  if (!s.ok()) return s;
  const uint64_t bytes_written = writer.bytes_written() + vlog_size;

  // Install: the snapshot's unsorted files and previous sorted files are
  // replaced wholesale; old value logs stay (their dead records are GC'ed
  // later). Removals are by file number, so unsorted tables flushed into
  // this partition *while the merge ran* — which are not in the snapshot —
  // survive the edit untouched.
  VersionEdit edit;
  for (const FileMeta& f : p->unsorted) edit.RemoveUnsortedFile(pid, f.number);
  for (const FileMeta& f : p->sorted) edit.RemoveSortedFile(pid, f.number);
  for (const FileMeta& f : writer.outputs()) edit.AddSortedFile(pid, f);
  if (separate && vlog_size > 0) {
    VlogMeta v;
    v.number = vlog_number;
    v.size = vlog_size;
    edit.AddValueLog(pid, v);
  }
  // Built off mu_; InstallUnsortedReplacement adds the survivors.
  std::unique_ptr<HashIndex> index = NewHashIndex();

  MutexLock lock(&mu_);
  UnsortedInstall installed;
  s = InstallUnsortedReplacement(*p, &edit, std::move(index), &installed);
  if (s.ok()) {
    runtime_.at(pid).vlog_garbage += garbage_added;
    metrics_.CountJob(pid, {{"merges", 1},
                            {"merge_bytes_read", bytes_read},
                            {"merge_bytes_written", bytes_written}});

    const uint64_t dur = env_->NowMicros() - start_us;
    metrics_.merge_latency->Add(static_cast<double>(dur));
    JsonBuilder ev;
    ev.AddUint("partition", pid);
    ev.AddUint("duration_micros", dur);
    ev.AddUint("bytes_read", bytes_read);
    ev.AddUint("bytes_written", bytes_written);
    ev.AddUint("input_tables", p->unsorted.size() + p->sorted.size());
    ev.AddUint("output_tables", writer.outputs().size());
    ev.AddUint("surviving_tables", installed.survivors);
    ev.AddUint("vlog_bytes", vlog_size);
    ev.AddUint("garbage_added", garbage_added);
    ev.AddUint("install_micros", installed.micros);
    event_log_->Log("merge", &ev);
  }
  bg_cv_.SignalAll();
  return s;
}

// ------------------------------------------------------------- scan merge

Status UniKVDB::ScanMergePartition(std::shared_ptr<const PartitionState> p) {
  const uint64_t start_us = env_->NowMicros();
  const uint32_t pid = p->id;

  // The consolidated table reuses the *largest consumed* table_id (free
  // to reuse — every consumed id is removed in the same edit). Taking
  // max+1 instead would collide with, or outrank, tables flushed into the
  // partition while this job runs: those get ids above the snapshot max
  // and are strictly newer, so they must keep the higher probe priority.
  std::vector<Iterator*> children;
  uint16_t new_table_id = 0;
  uint64_t bytes_read = 0;
  for (const FileMeta& f : p->unsorted) {
    children.push_back(table_cache_->NewIterator(f.number, f.size));
    if (f.table_id > new_table_id) new_table_id = f.table_id;
    bytes_read += f.size;
  }
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(icmp_, std::move(children)));

  TableOutputWriter writer(this, TableOutputWriter::Store::kUnsorted);
  std::unique_ptr<HashIndex> index = NewHashIndex();
  Status s;
  std::string current_user_key;
  bool has_current = false;
  for (merged->SeekToFirst(); s.ok() && merged->Valid(); merged->Next()) {
    const Slice user_key = ExtractUserKey(merged->key());
    if (has_current && user_key.compare(Slice(current_user_key)) == 0) {
      continue;  // Older version within the UnsortedStore: drop.
    }
    current_user_key.assign(user_key.data(), user_key.size());
    has_current = true;
    // Tombstones are preserved: they still shadow the SortedStore.
    s = writer.Add(merged->key(), merged->value(),
                   user_key.size() + merged->value().size());
    index->Insert(user_key, new_table_id);
  }
  if (s.ok()) s = merged->status();
  if (s.ok()) s = writer.Finish();
  if (!s.ok()) return s;
  const uint64_t bytes_written = writer.bytes_written();

  VersionEdit edit;
  for (const FileMeta& f : p->unsorted) edit.RemoveUnsortedFile(pid, f.number);
  for (FileMeta f : writer.outputs()) {
    f.table_id = new_table_id;
    edit.AddUnsortedFile(pid, f);
  }

  MutexLock lock(&mu_);
  UnsortedInstall installed;
  s = InstallUnsortedReplacement(*p, &edit, std::move(index), &installed);
  if (s.ok()) {
    metrics_.CountJob(pid, {{"scan_merges", 1},
                            {"scan_merge_bytes_read", bytes_read},
                            {"scan_merge_bytes_written", bytes_written}});

    const uint64_t dur = env_->NowMicros() - start_us;
    metrics_.scan_merge_latency->Add(static_cast<double>(dur));
    JsonBuilder ev;
    ev.AddUint("partition", pid);
    ev.AddUint("duration_micros", dur);
    ev.AddUint("input_tables", p->unsorted.size());
    ev.AddUint("output_tables", writer.outputs().size());
    ev.AddUint("bytes_read", bytes_read);
    ev.AddUint("bytes_written", bytes_written);
    ev.AddUint("install_micros", installed.micros);
    event_log_->Log("scan_merge", &ev);
  }
  bg_cv_.SignalAll();
  return s;
}

Status UniKVDB::InstallUnsortedReplacement(const PartitionState& snap,
                                           VersionEdit* edit,
                                           std::unique_ptr<HashIndex> index,
                                           UnsortedInstall* result) {
  const uint64_t start_us = env_->NowMicros();
  const uint32_t pid = snap.id;
  edit->SetIndexCheckpoint(pid, 0);
  // Nothing removes partitions, and the job's busy claim keeps other
  // per-partition jobs off this one.
  std::shared_ptr<const PartitionState> cur_p =
      versions_->current()->FindById(pid);
  assert(cur_p != nullptr);
  std::set<uint64_t> consumed;
  for (const FileMeta& f : snap.unsorted) consumed.insert(f.number);

  // Complete the replacement index before installing the edit, so a
  // failed table scan leaves both the version and the old index
  // untouched. Survivor scans do I/O under mu_, but survivors exist only
  // when a flush landed during the job and each is at most one memtable.
  for (const FileMeta& f : cur_p->unsorted) {
    if (consumed.count(f.number)) continue;
    Status s = InsertTableIntoIndex(index.get(), f);
    if (!s.ok()) return s;
    result->survivors++;
  }

  Status s = versions_->LogAndApply(edit);
  result->micros = env_->NowMicros() - start_us;
  if (s.ok()) {
    // The cached anchor view dies with the consumed tables; the next
    // iterator builds one over what remains if two or more tables do.
    InstallAnchorViewLocked(pid, nullptr);
    PartitionRuntime& rt = runtime_.at(pid);
    rt.index = std::move(index);
    rt.flushes_since_checkpoint = 0;
  }
  return s;
}

// --------------------------------------------------------------------- GC

Status UniKVDB::GcPartition(std::shared_ptr<const PartitionState> p) {
  const uint64_t start_us = env_->NowMicros();
  const uint32_t pid = p->id;

  // New value log for the rewritten live values.
  TableOutputWriter writer(this, TableOutputWriter::Store::kSorted);
  const uint64_t vlog_number = writer.NewFileNumber();
  std::unique_ptr<WritableFile> vfile;
  Status s =
      env_->NewWritableFile(ValueLogFileName(dbname_, vlog_number), &vfile);
  if (!s.ok()) return s;
  ValueLogWriter vlog(std::move(vfile), pid, vlog_number);

  // Scan the SortedStore (the authority on liveness), fetch every live
  // value, append it to the new log, and write back keys + new pointers.
  uint64_t bytes_read = p->SortedBytes();
  std::unique_ptr<Iterator> iter(
      NewSortedRunIterator(table_cache_.get(), p->sorted));

  // Live values are fetched a batch at a time with one ValueFetcher call
  // on this worker: pointers into the same log coalesce into span reads,
  // each record is checked against its entry's user key, and the spans
  // are copied, never mapped (GC sweeps whole logs, and ru_maxrss would
  // count every mapped page). Fetch reorders its items, not the entries,
  // so the new table and log are still written in key order.
  struct Entry {
    std::string internal_key;
    std::string value;  // Inline value, or the fetched one.
    bool is_pointer = false;
    ValuePointer ptr;
    Status status;
  };
  std::vector<Entry> batch;
  std::vector<ValueFetcher::Item> items;
  const size_t kBatchSize = 256;
  ValueFetcher fetcher(vlog_cache_.get(), ValueFetcher::Spans::kCopied);

  auto flush_batch = [&]() -> Status {
    if (batch.empty()) return Status::OK();
    items.clear();
    for (Entry& e : batch) {
      if (e.is_pointer) {
        items.push_back(ValueFetcher::Item{
            e.ptr, ExtractUserKey(e.internal_key), &e.value, &e.status});
      }
    }
    if (!items.empty()) fetcher.Fetch(items.data(), items.size());
    std::string encoded;
    for (Entry& e : batch) {
      if (!e.status.ok()) return e.status;
      Slice user_key = ExtractUserKey(e.internal_key);
      Slice out_value(e.value);
      if (e.is_pointer) {
        bytes_read += e.ptr.size;
        ValuePointer new_ptr;
        Status rs = vlog.Add(user_key, e.value, &new_ptr);
        if (!rs.ok()) return rs;
        encoded.clear();
        new_ptr.EncodeTo(&encoded);
        out_value = Slice(encoded);
      }
      Status rs = writer.Add(e.internal_key, out_value,
                             user_key.size() + e.value.size());
      if (!rs.ok()) return rs;
    }
    batch.clear();
    return Status::OK();
  };

  for (iter->SeekToFirst(); s.ok() && iter->Valid(); iter->Next()) {
    Entry e;
    e.internal_key = iter->key().ToString();
    ValueType type = ExtractValueType(iter->key());
    if (type == kTypeValuePointer) {
      Slice encoded = iter->value();
      if (!e.ptr.DecodeFrom(&encoded)) {
        s = Status::Corruption("bad value pointer during GC");
        break;
      }
      e.is_pointer = true;
    } else {
      e.value = iter->value().ToString();
    }
    batch.push_back(std::move(e));
    if (batch.size() >= kBatchSize) {
      s = flush_batch();
    }
  }
  if (s.ok()) s = iter->status();
  if (s.ok()) s = flush_batch();
  if (s.ok()) s = writer.Finish();

  uint64_t vlog_size = vlog.CurrentOffset();
  if (s.ok() && vlog_size > 0) {
    s = vlog.Sync();
    if (s.ok()) s = vlog.Close();
  }
  if (!s.ok()) return s;
  const uint64_t bytes_written = writer.bytes_written() + vlog_size;

  // Install atomically: old sorted tables and this partition's references
  // to the old logs go away; shared logs survive physically until the
  // sibling partition GCs too (lazy split completion).
  VersionEdit edit;
  for (const FileMeta& f : p->sorted) edit.RemoveSortedFile(pid, f.number);
  for (const VlogMeta& v : p->vlogs) edit.RemoveValueLog(pid, v.number);
  for (const FileMeta& f : writer.outputs()) edit.AddSortedFile(pid, f);
  if (vlog_size > 0) {
    VlogMeta v;
    v.number = vlog_number;
    v.size = vlog_size;
    edit.AddValueLog(pid, v);
  }

  MutexLock lock(&mu_);
  const uint64_t install_start_us = env_->NowMicros();

  // Re-validate: per-partition exclusivity means no other job can have
  // touched this partition's sorted run or value logs, but verify rather
  // than assume — installing over a changed sorted run would lose data.
  {
    std::shared_ptr<const PartitionState> cur_p =
        versions_->current()->FindById(pid);
    bool unchanged = cur_p != nullptr &&
                     cur_p->sorted.size() == p->sorted.size() &&
                     cur_p->vlogs.size() == p->vlogs.size();
    for (size_t i = 0; unchanged && i < p->sorted.size(); i++) {
      unchanged = cur_p->sorted[i].number == p->sorted[i].number;
    }
    for (size_t i = 0; unchanged && i < p->vlogs.size(); i++) {
      unchanged = cur_p->vlogs[i].number == p->vlogs[i].number;
    }
    if (!unchanged) {
      assert(false && "partition changed under an exclusive GC");
      return Status::OK();
    }
  }

  if (TEST_gc_unsafe_delete_before_install_.load(std::memory_order_relaxed)) {
    // Deliberately wrong ordering, enabled only by the crash harness: the
    // old logs must outlive a durable manifest install (the safe path
    // defers deletion to RemoveObsoleteFiles). Deleting first loses live
    // values if we crash before the install becomes durable. Logs still
    // shared with a sibling partition stay (they are not obsolete even
    // after this edit), matching what the buggy ordering would delete.
    VersionPtr cur = versions_->current();
    for (const VlogMeta& v : p->vlogs) {
      bool shared = false;
      for (const auto& other : cur->partitions) {
        if (other->id == pid) continue;
        for (const VlogMeta& ov : other->vlogs) {
          if (ov.number == v.number) {
            shared = true;
            break;
          }
        }
      }
      if (shared) continue;
      vlog_cache_->Evict(v.number);
      // Best-effort: a survivor costs disk until the next obsolete-file
      // sweep retries it; GC itself already succeeded.
      (void)env_->RemoveFile(ValueLogFileName(dbname_, v.number));
    }
  }
  s = versions_->LogAndApply(&edit);
  const uint64_t install_us = env_->NowMicros() - install_start_us;
  if (s.ok()) {
    runtime_.at(pid).vlog_garbage = 0;
    metrics_.CountJob(pid, {{"gcs", 1},
                            {"gc_bytes_read", bytes_read},
                            {"gc_bytes_written", bytes_written}});

    const uint64_t dur = env_->NowMicros() - start_us;
    metrics_.gc_latency->Add(static_cast<double>(dur));
    JsonBuilder ev;
    ev.AddUint("partition", pid);
    ev.AddUint("duration_micros", dur);
    ev.AddUint("bytes_read", bytes_read);
    ev.AddUint("bytes_written", bytes_written);
    ev.AddUint("input_vlogs", p->vlogs.size());
    ev.AddUint("output_tables", writer.outputs().size());
    ev.AddUint("vlog_bytes", vlog_size);
    ev.AddUint("install_micros", install_us);
    event_log_->Log("gc", &ev);
  }
  bg_cv_.SignalAll();
  return s;
}

// ------------------------------------------------------------------ split

Status UniKVDB::SplitPartition(std::shared_ptr<const PartitionState> p) {
  // Preconditions: no unsorted tables, >= 2 sorted tables. The key split
  // is metadata-only because the sorted run already consists of disjoint
  // tables; values are split lazily by later GC (paper: lazy split scheme
  // integrated with GC). The whole job is metadata work, so it runs under
  // one mutex hold against the *current* partition state — the snapshot
  // PickWork saw may be stale by now (a flush can add unsorted tables at
  // any time, and those would straddle the boundary).
  const uint64_t start_us = env_->NowMicros();
  MutexLock lock(&mu_);
  const uint64_t install_start_us = env_->NowMicros();
  std::shared_ptr<const PartitionState> cur_p =
      versions_->current()->FindById(p->id);
  if (cur_p == nullptr || !cur_p->unsorted.empty() ||
      cur_p->sorted.size() < 2) {
    // Preconditions no longer hold; bail out. The scheduler will merge
    // the new unsorted data first and revisit the split.
    return Status::OK();
  }
  p = cur_p;

  uint64_t total = 0;
  for (const FileMeta& f : p->sorted) total += f.logical;
  uint64_t cum = 0;
  size_t k = 0;
  for (; k + 1 < p->sorted.size(); k++) {
    cum += p->sorted[k].logical;
    if (cum >= total / 2) {
      k++;
      break;
    }
  }
  if (k == 0 || k >= p->sorted.size()) k = p->sorted.size() / 2;
  if (k == 0) k = 1;
  const std::string boundary = p->sorted[k].smallest;

  uint32_t npid = versions_->NewPartitionId();
  VersionEdit edit;
  edit.AddPartition(npid, boundary);
  for (size_t i = k; i < p->sorted.size(); i++) {
    edit.RemoveSortedFile(p->id, p->sorted[i].number);
    edit.AddSortedFile(npid, p->sorted[i]);
  }
  // Both children reference the old value logs until lazy GC segregates
  // the live values.
  for (const VlogMeta& v : p->vlogs) {
    edit.AddValueLog(npid, v);
  }

  Status s = versions_->LogAndApply(&edit);
  const uint64_t install_us = env_->NowMicros() - install_start_us;
  if (s.ok()) {
    // Split preconditions guarantee no unsorted tables, so neither side
    // has an anchor view: the merge that emptied the store retired it.
    PartitionRuntime& old_rt = runtime_.at(p->id);
    PartitionRuntime& new_rt = runtime_[npid];
    new_rt.index = NewHashIndex();
    new_rt.heat_reads = metrics_.RegisterPartition(npid);
    new_rt.vlog_garbage = old_rt.vlog_garbage - old_rt.vlog_garbage / 2;
    old_rt.vlog_garbage /= 2;
    metrics_.CountJob(p->id, {{"splits", 1}});

    const uint64_t dur = env_->NowMicros() - start_us;
    metrics_.split_latency->Add(static_cast<double>(dur));
    JsonBuilder ev;
    ev.AddUint("partition", p->id);
    ev.AddUint("new_partition", npid);
    ev.AddUint("duration_micros", dur);
    ev.AddString("boundary", boundary);
    ev.AddUint("tables_moved", p->sorted.size() - k);
    ev.AddUint("install_micros", install_us);
    event_log_->Log("split", &ev);
  }
  bg_cv_.SignalAll();
  return s;
}

}  // namespace unikv
