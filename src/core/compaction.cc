// Background maintenance for UniKVDB: memtable flushes, the rewrite job
// (UnsortedStore -> SortedStore merges with partial KV separation,
// size-based scan merges within the UnsortedStore, and value-log garbage
// collection), and dynamic range-partition splits.

#include <algorithm>
#include <chrono>
#include <set>
#include <span>

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
  // Ranks: 0 a split (metadata-only, so it runs at once, and it halves the
  // merge the partition would run next); 1 merge at UnsortedLimit or
  // kMaxUnsortedTables (largest backlog first); 2 size-based scan-merge
  // of one run of similar-size tables (PickScanMergeRun); 3 GC (most
  // garbage first). Each requires input: at least two sorted tables to
  // divide, a non-empty UnsortedStore, at least two unsorted tables,
  // garbage > 0 in a partition with logs.
  if (options_.enable_partitioning && p.sorted.size() >= 2 &&
      p.LogicalBytes() >= options_.partition_size_limit) {
    return {WorkKind::kSplit, 0, 0};
  }
  const uint64_t unsorted_bytes = p.UnsortedBytes();
  if (!p.unsorted.empty() &&
      (unsorted_bytes >= options_.unsorted_limit ||
       p.unsorted.size() >= kMaxUnsortedTables || compact_all_)) {
    return {WorkKind::kMerge, 1, unsorted_bytes};
  }
  if (options_.enable_scan_optimization &&
      p.unsorted.size() >=
          static_cast<size_t>(std::max(2, options_.scan_merge_limit))) {
    // A scan-merge pays by dropping shadowed versions. When the last merge
    // or scan-merge dropped none (a load of new keys), it would only
    // rewrite tables the merge rewrites again, so the partition merges
    // instead when that costs less than its store: the merge's extra write
    // is the sorted run, keys and pointers only.
    if (runtime_.at(p.id).dropped_none &&
        p.SortedBytes() < unsorted_bytes) {
      return {WorkKind::kMerge, 1, unsorted_bytes};
    }
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
    case WorkKind::kScanMerge:
    case WorkKind::kGc:
      return RewritePartition(item.partition, item.kind);
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
  // A flush is done once its worker has also swept the files it made
  // obsolete: flush_in_progress is cleared after the sweep.
  while (true) {
    if (has_bg_error_.load(std::memory_order_acquire)) break;
    bool pending = false;
    for (const auto& shard : shards_) {
      if (shard->has_imm.load(std::memory_order_acquire) ||
          shard->flush_in_progress) {
        pending = true;
        break;
      }
    }
    if (!pending) break;
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

namespace {

// The reference each partition of `ver` installs for `table`, the flush
// of `mem`, in key order: the partition's share of the table's keys, its
// slice of the key-hash block (one hash per distinct key, in key order,
// as the table writer counts them), and its part of the file's bytes in
// proportion to its entries' bytes. table_id is left to the install.
std::vector<std::pair<uint32_t, FileMeta>> FlushShares(MemTable* mem,
                                                       const VersionData& ver,
                                                       const FileMeta& table) {
  std::vector<std::pair<uint32_t, FileMeta>> refs;
  uint64_t total = 0;  // Entry bytes; `share` holds each reference's first.
  uint32_t distinct = 0;
  size_t pi = 0;
  std::unique_ptr<Iterator> iter(mem->NewIterator());
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    const Slice user_key = ExtractUserKey(iter->key());
    // Keys ascend, so the partition only ever moves right.
    if (refs.empty()) pi = ver.FindPartition(user_key);
    while (pi + 1 < ver.partitions.size() &&
           user_key.compare(Slice(ver.partitions[pi + 1]->lower_bound)) >= 0) {
      pi++;
    }
    const uint32_t pid = ver.partitions[pi]->id;
    // A partition's first key is a new key; a user key never spans two.
    const bool new_key = refs.empty() || refs.back().first != pid;
    if (new_key) {
      FileMeta& ref = refs.emplace_back(pid, table).second;
      ref.smallest.assign(user_key.data(), user_key.size());
      ref.logical = ref.share = 0;
      ref.hash_begin = distinct;
    }
    FileMeta& ref = refs.back().second;
    if (new_key || Slice(ref.largest) != user_key) {
      ref.largest.assign(user_key.data(), user_key.size());
      ref.hash_end = ++distinct;
    }
    ref.logical += user_key.size() + iter->value().size();
    ref.share += iter->key().size() + iter->value().size();
    total += iter->key().size() + iter->value().size();
  }
  // The shares add up to the file exactly: the last takes the remainder.
  uint64_t assigned = 0;
  for (size_t i = 0; i < refs.size(); i++) {
    FileMeta& ref = refs[i].second;
    ref.share = i + 1 == refs.size()
                    ? table.size - assigned
                    : static_cast<uint64_t>(static_cast<double>(table.size) *
                                            ref.share / total);
    assigned += ref.share;
  }
  return refs;
}

}  // namespace

Status UniKVDB::FlushMemTableToUnsorted(MemTable* mem, const VersionData& base,
                                        FlushOutput* out) {
  // Entries come out in internal-key order into one table, whatever
  // partitions they fall in; each partition it covers then references its
  // own share (FlushShares).
  out->writer = std::make_unique<TableOutputWriter>(
      this, TableOutputWriter::Store::kUnsorted, /*partition=*/0);
  std::unique_ptr<Iterator> iter(mem->NewIterator());
  Status s;
  for (iter->SeekToFirst(); s.ok() && iter->Valid(); iter->Next()) {
    s = out->writer->Add(iter->key(), iter->value());
  }
  if (s.ok()) s = iter->status();
  if (s.ok()) s = out->writer->Finish();
  if (s.ok() && !out->writer->outputs().empty()) {
    out->refs = FlushShares(mem, base, out->writer->outputs()[0]);
  }
  return s;
}

Status UniKVDB::CompactMemTable(size_t shard_idx) {
  const uint64_t start_us = env_->NowMicros();
  WriteShard* shard = shards_[shard_idx].get();
  MemTable* mem;
  {
    MutexLock shard_lock(&shard->mu);
    mem = shard->imm;
  }
  const VersionPtr base = versions_->current();
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

  FlushOutput out;
  s = FlushMemTableToUnsorted(mem, *base, &out);
  if (!s.ok()) return s;

  MutexLock lock(&mu_);
  const uint64_t install_start_us = env_->NowMicros();
  // A split installed while the table was building moved a boundary (only
  // splits change them, and each adds a partition): the shares are
  // recomputed from the imm, still pinned, against the version this hold
  // installs over. The table itself stays as built.
  const VersionPtr cur = versions_->current();
  if (!out.refs.empty() && cur->partitions.size() != base->partitions.size()) {
    out.refs = FlushShares(mem, *cur, out.writer->outputs()[0]);
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

  // Each reference becomes its partition's newest: it takes the next
  // table_id and the position after the partition's last table.
  for (auto& [pid, ref] : out.refs) {
    ref.table_id = cur->FindById(pid)->NextTableId();
    edit.AddUnsortedFile(pid, ref);
  }

  // Advance the recovery floor only as far as the sync-all made durable
  // (LogAndApply stamps the manifest from VersionSet's own counter, so it
  // must be raised here, before the install).
  if (flush_ceiling > versions_->LastSequence()) {
    versions_->SetLastSequence(flush_ceiling);
  }
  s = versions_->LogAndApply(&edit);
  const uint64_t install_us = env_->NowMicros() - install_start_us;
  if (s.ok()) {
    // The indexes learn their slices in the mutex hold that installed
    // them, so readers, who capture both under mu_, see a matching pair.
    const std::vector<uint64_t>& hashes = out.writer->key_hashes();
    for (const auto& [pid, ref] : out.refs) {
      const size_t position = cur->FindById(pid)->unsorted.size();
      HashIndex& index = *runtime_.at(pid).index;
      for (uint32_t i = ref.hash_begin; i < ref.hash_end; i++) {
        index.Insert(hashes[i], position);
      }
    }
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
    for (const auto& [pid, ref] : out.refs) {
      metrics_.CountJob(pid, {{"flush_bytes", ref.share}});
      reg.GetCounter("flushes", pid)->Inc();
      // Heat + write-amp inputs: distinct keys and logical user bytes
      // landing in the partition. Flush routing is where keys first meet
      // partition boundaries, so update frequency is measured here.
      reg.GetCounter("heat_writes", pid)->Add(ref.hash_end - ref.hash_begin);
      reg.GetCounter("user_bytes_flushed", pid)->Add(ref.logical);
    }
    JsonBuilder ev;
    ev.AddUint("duration_micros", dur);
    ev.AddUint("bytes_written", out.writer->bytes_written());
    ev.AddUint("output_tables", out.writer->outputs().size());
    ev.AddUint("partitions", out.refs.size());
    ev.AddUint("install_micros", install_us);
    event_log_->Log("flush", &ev);
  }
  return s;
}

// ---------------------------------------------------------------- rewrite

std::pair<size_t, size_t> PickScanMergeRun(
    const std::vector<FileMeta>& unsorted) {
  // Greedy maximal groups, newest first: a table joins the current group
  // [i, end) while the group's largest size stays within 2x of its
  // smallest. A later (older) group replaces the best only when strictly
  // longer, so ties go to the newer group.
  const size_t n = unsorted.size();
  size_t best_first = 0, best_end = 0, end = n;
  uint64_t lo = 0, hi = 0;
  for (size_t i = n; i-- > 0;) {
    const uint64_t size = unsorted[i].share;
    if (i + 1 == n || std::max(hi, size) > 2 * std::min(lo, size)) {
      end = i + 1;
      lo = hi = size;
    } else {
      lo = std::min(lo, size);
      hi = std::max(hi, size);
    }
    if (end - i > best_end - best_first) {
      best_first = i;
      best_end = end;
    }
  }
  if (best_end - best_first < 2) return {0, n};
  return {best_first, best_end};
}

Status UniKVDB::RewritePartition(std::shared_ptr<const PartitionState> p,
                                 WorkKind kind) {
  const uint64_t start_us = env_->NowMicros();
  const uint32_t pid = p->id;
  // The kind only picks the job's inputs: the positions [first, end) of
  // the unsorted references it consumes, whether it consumes the sorted
  // run (a terminal job: it writes the SortedStore), and the value logs
  // whose live values it moves. A merge consumes every reference and the
  // run; a scan-merge PickScanMergeRun's run of references and nothing
  // else; a GC the run and every log.
  const auto [first, end] =
      kind == WorkKind::kScanMerge
          ? PickScanMergeRun(p->unsorted)
          : std::pair<size_t, size_t>(
                0, kind == WorkKind::kMerge ? p->unsorted.size() : 0);
  const bool terminal = kind != WorkKind::kScanMerge;
  const std::span<const FileMeta> run =
      std::span(p->unsorted).subspan(first, end - first);
  const std::span<const VlogMeta> logs =
      kind == WorkKind::kGc ? std::span(p->vlogs) : std::span<const VlogMeta>();
  std::set<uint64_t> moved;
  for (const VlogMeta& v : logs) moved.insert(v.number);

  // Every input belongs to files the job is about to replace (or, for a
  // shared table, to this partition's share of one), so none fills the
  // block cache. Unsorted inputs are clamped to the partition's range.
  std::vector<Iterator*> children;
  uint64_t bytes_read = 0;
  for (const FileMeta& f : run) {
    children.push_back(NewClampedIterator(
        table_cache_->NewIterator(f.number, f.size, /*fill_cache=*/false),
        p->lower_bound, p->upper_bound));
    bytes_read += f.share;
  }
  if (terminal && !p->sorted.empty()) {
    bytes_read += p->SortedBytes();
    children.push_back(NewSortedRunIterator(table_cache_.get(), p->sorted,
                                            /*fill_cache=*/false));
  }
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(icmp_, std::move(children)));

  // An entry waits in the batch only behind a pointer into a moved log.
  // Those are fetched with one ValueFetcher call per batch on this
  // worker: pointers into the same log coalesce into span reads, each
  // record is checked against its entry's user key, and the spans are
  // copied, never mapped (GC sweeps whole logs, and ru_maxrss would
  // count every mapped page). The fetcher's items point into the batch,
  // which is sized once; Fetch reorders items, never entries, so the
  // outputs are still written in key order.
  struct Held {
    std::string internal_key;
    std::string value;  // The value, or the encoding of a kept pointer.
    bool kept = false;  // Written as it is (see `kept` below).
    Status status;      // A fetch's outcome.
  };
  constexpr size_t kBatchSize = 256;
  std::vector<Held> batch(kBatchSize);
  size_t held = 0;
  std::vector<ValueFetcher::Item> items;  // One per held moved pointer.
  ValueFetcher fetcher(vlog_cache_.get(), ValueFetcher::Spans::kCopied);
  TableOutputWriter writer(this,
                           terminal ? TableOutputWriter::Store::kSorted
                                    : TableOutputWriter::Store::kUnsorted,
                           pid);

  // A kept entry is written as it is; every value a terminal job holds,
  // from an unsorted table or a moved log, goes through the separation
  // rule.
  auto put = [&](const Slice& internal_key, const Slice& value, bool kept) {
    return kept ? writer.Add(internal_key, value)
                : writer.AddValue(ExtractUserKey(internal_key),
                                  ExtractSequence(internal_key), value);
  };
  auto write_batch = [&]() -> Status {
    if (!items.empty()) fetcher.Fetch(items.data(), items.size());
    items.clear();
    const size_t n = held;
    held = 0;
    for (const Held& e : std::span(batch).first(n)) {
      Status s = e.status.ok() ? put(e.internal_key, e.value, e.kept)
                               : e.status;
      if (!s.ok()) return s;
    }
    return Status::OK();
  };

  uint64_t garbage_added = 0;
  uint64_t dropped = 0;  // Shadowed versions and tombstones.
  Status s;
  std::string current_user_key;
  bool has_current = false;
  for (merged->SeekToFirst(); s.ok() && merged->Valid(); merged->Next()) {
    ParsedInternalKey ikey;
    if (!ParseInternalKey(merged->key(), &ikey)) {
      s = Status::Corruption("corrupt internal key during rewrite");
      break;
    }
    ValuePointer ptr;
    const bool pointer = ikey.type == kTypeValuePointer;
    Slice encoded = merged->value();
    if (pointer && !ptr.DecodeFrom(&encoded)) {
      s = Status::Corruption("bad value pointer during rewrite");
      break;
    }
    const bool in_moved_log = pointer && moved.count(ptr.log_number) > 0;
    if (has_current && ikey.user_key.compare(Slice(current_user_key)) == 0) {
      // An older, shadowed version: drop it. Its record becomes garbage,
      // unless its whole log is going away.
      if (pointer && !in_moved_log) garbage_added += ptr.size;
      dropped++;
      continue;
    }
    current_user_key.assign(ikey.user_key.data(), ikey.user_key.size());
    has_current = true;
    // The SortedStore is the terminal level: tombstones die there. Below
    // it they still shadow older unsorted tables and the sorted run.
    if (terminal && ikey.type == kTypeDeletion) {
      dropped++;
      continue;
    }

    // Written as it is: every entry a non-terminal job keeps, and a
    // pointer into a log the job does not move.
    const bool kept = !terminal || (pointer && !in_moved_log);
    if (held == 0 && !in_moved_log) {
      s = put(merged->key(), merged->value(), kept);
      continue;
    }
    Held& e = batch[held++];
    e.internal_key.assign(merged->key().data(), merged->key().size());
    e.kept = kept;
    e.status = Status::OK();
    if (in_moved_log) {
      bytes_read += ptr.size;
      items.push_back(ValueFetcher::Item{ptr, ExtractUserKey(e.internal_key),
                                         &e.value, &e.status});
    } else {
      e.value.assign(merged->value().data(), merged->value().size());
    }
    if (held == kBatchSize) s = write_batch();
  }
  if (s.ok()) s = merged->status();
  if (s.ok()) s = write_batch();
  if (s.ok()) s = writer.Finish();
  if (!s.ok()) return s;
  const uint64_t bytes_written = writer.bytes_written();

  // One edit replaces the consumed references, the consumed sorted run
  // and the moved logs with the outputs. Removals are by number, so
  // unsorted tables flushed in while the job ran survive it, and logs it
  // does not move stay, their dead records left to a later GC. A moved
  // log still shared with a sibling partition after a split survives
  // physically until the sibling moves it too (lazy split completion).
  // A non-terminal output (at most one table, and none when the run's
  // shares held no key of the partition) keeps the run's largest
  // table_id, free to reuse as the same edit removes it: the run is
  // contiguous in the age-ordered list, so the output takes its place.
  VersionEdit edit;
  for (const FileMeta& f : run) edit.RemoveUnsortedFile(pid, f.number);
  if (terminal) {
    for (const FileMeta& f : p->sorted) edit.RemoveSortedFile(pid, f.number);
  }
  for (const VlogMeta& v : logs) edit.RemoveValueLog(pid, v.number);
  for (FileMeta f : writer.outputs()) {
    if (terminal) {
      edit.AddSortedFile(pid, f);
    } else {
      f.table_id = run.back().table_id;
      edit.AddUnsortedFile(pid, f);
    }
  }
  if (writer.vlog().number != 0) edit.AddValueLog(pid, writer.vlog());

  // A job that consumes references replaces the partition's hash index
  // with one built here, off mu_, over the list the edit leaves, in
  // position order as a rebuild inserts it: the tables before the run
  // keep their positions, the unsorted output takes the run's first, and
  // the tables after it move down by run.size() - unsorted_outputs (for a
  // merge, an empty index). The install adds the tables flushed
  // meanwhile. A job that consumes none keeps the current index.
  const size_t unsorted_outputs = terminal ? 0 : writer.outputs().size();
  const size_t kept_tables = p->unsorted.size() - run.size();
  std::unique_ptr<HashIndex> index;
  if (!run.empty()) {
    index = NewHashIndex();
    for (size_t i = 0; s.ok() && i < first; i++) {
      s = InsertTableIntoIndex(index.get(), p->unsorted[i], i);
    }
    for (uint64_t h : writer.key_hashes()) index->Insert(h, first);
    for (size_t i = end; s.ok() && i < p->unsorted.size(); i++) {
      s = InsertTableIntoIndex(index.get(), p->unsorted[i],
                               i - run.size() + unsorted_outputs);
    }
    if (!s.ok()) return s;
  }

  MutexLock lock(&mu_);
  const uint64_t install_start_us = env_->NowMicros();
  // Per-partition exclusivity means no other job can have touched this
  // partition's sorted run or value logs, but verify rather than assume:
  // installing over a changed sorted run would lose data.
  const auto same_numbers = [](const auto& a, const auto& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const auto& x, const auto& y) {
                        return x.number == y.number;
                      });
  };
  const VersionPtr cur = versions_->current();
  const std::shared_ptr<const PartitionState> cur_p = cur->FindById(pid);
  if (cur_p == nullptr || !same_numbers(cur_p->sorted, p->sorted) ||
      !same_numbers(cur_p->vlogs, p->vlogs)) {
    assert(false && "partition changed under an exclusive rewrite");
    return Status::OK();
  }

  if (!logs.empty() &&
      TEST_gc_unsafe_delete_before_install_.load(std::memory_order_relaxed)) {
    // Deliberately wrong ordering, enabled only by the crash harness: the
    // moved logs must outlive a durable manifest install (the safe path
    // defers deletion to RemoveObsoleteFiles). Deleting first loses live
    // values if we crash before the install becomes durable. Logs still
    // shared with a sibling partition stay (they are not obsolete even
    // after this edit), matching what the buggy ordering would delete.
    std::set<uint64_t> shared;
    for (const auto& other : cur->partitions) {
      if (other->id == pid) continue;
      for (const VlogMeta& v : other->vlogs) shared.insert(v.number);
    }
    for (const VlogMeta& v : logs) {
      if (shared.count(v.number)) continue;
      vlog_cache_->Evict(v.number);
      // Best-effort: a survivor costs disk until the next obsolete-file
      // sweep retries it; the job itself already succeeded.
      (void)env_->RemoveFile(ValueLogFileName(dbname_, v.number));
    }
  }

  // Complete the replacement index before installing the edit, so a
  // failed read leaves both the version and the old index untouched.
  // Each survivor costs one key-hash block read under mu_; survivors
  // exist only when a flush landed during the job. They are newer than
  // every snapshot table, so they follow the job's tables in the list.
  size_t survivors = 0;
  if (index != nullptr) {
    std::set<uint64_t> in_snapshot;
    for (const FileMeta& f : p->unsorted) in_snapshot.insert(f.number);
    for (const FileMeta& f : cur_p->unsorted) {
      if (in_snapshot.count(f.number)) continue;
      s = InsertTableIntoIndex(index.get(), f,
                               kept_tables + unsorted_outputs + survivors++);
      if (!s.ok()) return s;
    }
  }
  s = versions_->LogAndApply(&edit);
  const uint64_t install_us = env_->NowMicros() - install_start_us;
  if (s.ok()) {
    PartitionRuntime& rt = runtime_.at(pid);
    if (index != nullptr) {
      // The cached anchor view dies with the consumed tables; the next
      // iterator builds one over what remains if two or more tables do.
      InstallAnchorViewLocked(pid, nullptr);
      rt.index = std::move(index);
    }
    // A job that moved every log leaves none of the old garbage behind.
    if (logs.size() == p->vlogs.size()) rt.vlog_garbage = 0;
    rt.vlog_garbage += garbage_added;
    if (!run.empty()) rt.dropped_none = dropped == 0;

    // Each kind reports under its own names; the fields are the same.
    struct Names {
      const char* event;
      const char* jobs;
      const char* bytes_read;
      const char* bytes_written;
      ConcurrentHistogram* latency;
    };
    const Names names =
        kind == WorkKind::kMerge
            ? Names{"merge", "merges", "merge_bytes_read",
                    "merge_bytes_written", metrics_.merge_latency}
        : kind == WorkKind::kScanMerge
            ? Names{"scan_merge", "scan_merges", "scan_merge_bytes_read",
                    "scan_merge_bytes_written", metrics_.scan_merge_latency}
            : Names{"gc", "gcs", "gc_bytes_read", "gc_bytes_written",
                    metrics_.gc_latency};
    metrics_.CountJob(pid, {{names.jobs, 1},
                            {names.bytes_read, bytes_read},
                            {names.bytes_written, bytes_written}});
    const uint64_t dur = env_->NowMicros() - start_us;
    names.latency->Add(static_cast<double>(dur));
    JsonBuilder ev;
    ev.AddUint("partition", pid);
    ev.AddUint("duration_micros", dur);
    ev.AddUint("bytes_read", bytes_read);
    ev.AddUint("bytes_written", bytes_written);
    ev.AddUint("input_tables",
               run.size() + (terminal ? p->sorted.size() : 0));
    ev.AddUint("kept_tables", kept_tables);
    ev.AddUint("input_vlogs", logs.size());
    ev.AddUint("output_tables", writer.outputs().size());
    ev.AddUint("surviving_tables", survivors);
    ev.AddUint("vlog_bytes", writer.vlog().size);
    ev.AddUint("garbage_added", garbage_added);
    ev.AddUint("dropped_versions", dropped);
    ev.AddUint("install_micros", install_us);
    event_log_->Log(names.event, &ev);
  }
  return s;
}

// ------------------------------------------------------------------ split

Status UniKVDB::SplitPartition(std::shared_ptr<const PartitionState> p) {
  // Metadata-only: the sorted run already consists of disjoint tables, so
  // its tables are divided at a table boundary; values are split lazily
  // by later GC (paper: lazy split scheme integrated with GC); and both
  // children keep every unsorted reference, each reading it only inside
  // its own range. The whole job runs under one mutex hold against the
  // *current* partition state: the partition is claimed, so only flushes
  // can have changed it since PickWork's snapshot, by adding references.
  const uint64_t start_us = env_->NowMicros();
  MutexLock lock(&mu_);
  const uint64_t install_start_us = env_->NowMicros();
  p = versions_->current()->FindById(p->id);
  if (p == nullptr || p->sorted.size() < 2) {
    assert(false && "partition changed under an exclusive split");
    return Status::OK();
  }

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
  // Both children keep every reference, in the parent's order and with
  // its table_id and hash slice, so positions do not change and each
  // child's index is a copy of the parent's. A share on one side only
  // becomes empty on the other; a share that straddles the boundary is
  // halved between them (an estimate: which side holds more is unknown
  // without reading the table).
  size_t shared = 0;
  for (const FileMeta& f : p->unsorted) {
    const bool left = Slice(f.smallest).compare(Slice(boundary)) < 0;
    const bool right = Slice(f.largest).compare(Slice(boundary)) >= 0;
    FileMeta lo = f, hi = f;
    hi.smallest = std::max(f.smallest, boundary);
    if (left && right) {
      shared++;
      lo.share = f.share / 2;
      hi.share = f.share - lo.share;
    } else {
      (left ? hi : lo).share = 0;
    }
    if (lo.share != f.share) {
      edit.RemoveUnsortedFile(p->id, f.number);
      edit.AddUnsortedFile(p->id, lo);
    }
    edit.AddUnsortedFile(npid, hi);
  }

  Status s = versions_->LogAndApply(&edit);
  const uint64_t install_us = env_->NowMicros() - install_start_us;
  if (s.ok()) {
    PartitionRuntime& old_rt = runtime_.at(p->id);
    PartitionRuntime& new_rt = runtime_[npid];
    new_rt.index = old_rt.index->Clone();
    new_rt.heat_reads = metrics_.RegisterPartition(npid);
    new_rt.vlog_garbage = old_rt.vlog_garbage - old_rt.vlog_garbage / 2;
    old_rt.vlog_garbage /= 2;
    new_rt.dropped_none = old_rt.dropped_none;
    // The parent's view spans both children's keys; the next iterator
    // into either child builds one over its own range.
    InstallAnchorViewLocked(p->id, nullptr);
    metrics_.CountJob(p->id, {{"splits", 1}});

    const uint64_t dur = env_->NowMicros() - start_us;
    metrics_.split_latency->Add(static_cast<double>(dur));
    JsonBuilder ev;
    ev.AddUint("partition", p->id);
    ev.AddUint("new_partition", npid);
    ev.AddUint("duration_micros", dur);
    ev.AddString("boundary", boundary);
    ev.AddUint("tables_moved", p->sorted.size() - k);
    ev.AddUint("unsorted_shared", shared);
    ev.AddUint("install_micros", install_us);
    event_log_->Log("split", &ev);
  }
  return s;
}

}  // namespace unikv
