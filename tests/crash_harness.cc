#include "crash_harness.h"

#include <cstdlib>
#include <memory>
#include <utility>

#include "core/iterator.h"
#include "test_util.h"

namespace unikv {
namespace test {

namespace {
constexpr const char* kDbName = "/crashdb";
constexpr size_t kValueLen = 128;  // Above the 64-byte separation threshold.
// Post-recovery usability probe; sorts after every workload key and is
// excluded from state verification.
constexpr const char* kProbeKey = "zz-post-crash-probe";
}  // namespace

CrashHarness::CrashHarness(int write_shards) : write_shards_(write_shards) {
  auto put = [this](uint64_t i, int version, bool sync) {
    Op op;
    op.kind = Op::kPut;
    op.key = TestKey(i);
    op.value = TestValue(i * 97 + 1000003u * static_cast<uint64_t>(version),
                         kValueLen);
    op.sync = sync;
    universe_.insert(op.key);
    ops_.push_back(std::move(op));
  };
  auto del = [this](uint64_t i) {
    Op op;
    op.kind = Op::kDelete;
    op.key = TestKey(i);
    universe_.insert(op.key);
    ops_.push_back(std::move(op));
  };
  auto barrier = [this](Op::Kind kind) {
    Op op;
    op.kind = kind;
    ops_.push_back(std::move(op));
  };

  // Phase 1 — WAL appends/syncs, then a flush (UnsortedStore tables, hash
  // index, manifest).
  for (uint64_t i = 0; i < 24; i++) put(i, 0, i % 4 == 0);
  barrier(Op::kFlush);

  // Phase 2 — more keys, overwrites and tombstones; a second flush (also
  // triggers the periodic hash-index checkpoint, interval = 2).
  for (uint64_t i = 24; i < 48; i++) put(i, 0, i % 8 == 0);
  for (uint64_t i = 0; i < 10; i++) put(i, 1, false);
  del(3);
  del(11);
  barrier(Op::kFlush);

  // Phase 3 — merge into the SortedStore (KV separation, new value log)
  // followed in the same barrier by a dynamic range split (the merged
  // partition exceeds partition_size_limit).
  barrier(Op::kCompact);

  // Phase 4 — overwrite separated values so their old vlog records become
  // garbage, then merge + GC across the split partitions.
  for (uint64_t i = 8; i < 32; i++) put(i, 2, i % 6 == 0);
  del(20);
  del(21);
  barrier(Op::kFlush);
  barrier(Op::kCompact);

  // Phase 5 — post-GC WAL tail, ending on a synced put so the workload's
  // final state has a non-trivial durability floor.
  for (uint64_t i = 48; i < 56; i++) put(i, 3, i % 2 == 1);
}

Options CrashHarness::MakeOptions(Env* env) const {
  Options o;
  o.env = env;
  // All background work happens inside explicit FlushMemTable/CompactAll
  // barriers, so the counted Env-call sequence is deterministic across
  // runs (the enumeration replays it call-for-call).
  o.write_buffer_size = 1 << 20;
  o.unsorted_limit = 1 << 20;
  o.gc_garbage_threshold = 1 << 20;
  o.partition_size_limit = 6 * 1024;  // Phase-3 merge output exceeds this.
  o.sorted_table_size = 2 * 1024;     // Several sorted tables per merge.
  o.index_checkpoint_interval = 2;
  o.write_shards = write_shards_;
  // One worker keeps the Env-call trace deterministic: with several, the
  // interleaving of per-partition jobs varies run to run and the counted
  // crash-point replay would diverge.
  o.background_threads = 1;
  return o;
}

Status CrashHarness::ApplyOp(DB* db, const Op& op) const {
  WriteOptions w;
  w.sync = op.sync;
  switch (op.kind) {
    case Op::kPut:
      return db->Put(w, op.key, op.value);
    case Op::kDelete:
      return db->Delete(w, op.key);
    case Op::kFlush:
      return db->FlushMemTable();
    case Op::kCompact:
      return db->CompactAll();
  }
  return Status::OK();
}

void CrashHarness::ApplyToModel(const Op& op,
                                std::map<std::string, std::string>* m) const {
  switch (op.kind) {
    case Op::kPut:
      (*m)[op.key] = op.value;
      break;
    case Op::kDelete:
      m->erase(op.key);
      break;
    case Op::kFlush:
    case Op::kCompact:
      break;  // Barriers don't change the logical contents.
  }
}

size_t CrashHarness::RunWorkload(DB* db, const FaultInjectionEnv& env,
                                 size_t* synced_prefix,
                                 bool* in_flight_at_crash) const {
  size_t acked = 0;
  size_t synced = 0;
  if (in_flight_at_crash != nullptr) *in_flight_at_crash = false;
  for (const Op& op : ops_) {
    if (env.crashed()) break;
    Status s = ApplyOp(db, op);
    if (!s.ok()) {
      // An op interrupted by the crash is unacknowledged but may still be
      // durable: with sharded WALs its own shard's record can be synced
      // before the cross-shard sync-all (or the barrier's install)
      // completes. The verifier may accept one extra cut for it.
      if (in_flight_at_crash != nullptr && env.crashed()) {
        *in_flight_at_crash = true;
      }
      break;
    }
    acked++;
    // A sync-acked write persists every earlier op; an acknowledged
    // barrier means the flush/merge installed through a synced manifest.
    if ((op.kind == Op::kPut || op.kind == Op::kDelete) && op.sync) {
      synced = acked;
    } else if (op.kind == Op::kFlush || op.kind == Op::kCompact) {
      synced = acked;
    }
  }
  *synced_prefix = synced;
  return acked;
}

std::string CrashHarness::VerifyRecovered(DB* db, size_t synced_prefix,
                                          size_t acked_ops,
                                          size_t probe_mutations) const {
  // Read the sequence counter before the probe put below bumps it.
  std::string seq_text;
  const bool have_seq = db->GetProperty("db.last-sequence", &seq_text);
  // Collect the recovered state through the iterator (resolves value
  // pointers, so a dangling pointer into a lost vlog surfaces here).
  std::map<std::string, std::string> recovered;
  {
    ReadOptions ropts;
    std::unique_ptr<Iterator> it(db->NewIterator(ropts));
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      std::string key = it->key().ToString();
      if (key == kProbeKey) continue;  // Left over from an earlier verify.
      recovered[std::move(key)] = it->value().ToString();
    }
    if (!it->status().ok()) {
      return "iterator error after recovery: " + it->status().ToString();
    }
  }
  for (const auto& [key, value] : recovered) {
    (void)value;
    if (universe_.find(key) == universe_.end()) {
      return "resurrected/unknown key after recovery: " + key;
    }
  }
  // Cross-check the point-lookup path against the iterator.
  for (const std::string& key : universe_) {
    std::string value;
    Status gs = db->Get(ReadOptions(), key, &value);
    auto it = recovered.find(key);
    if (gs.ok()) {
      if (it == recovered.end() || it->second != value) {
        return "Get and iterator disagree for " + key;
      }
    } else if (gs.IsNotFound()) {
      if (it != recovered.end()) {
        return "iterator returned a key Get cannot find: " + key;
      }
    } else {
      return "Get error for " + key + ": " + gs.ToString();
    }
  }
  // Accept exactly the prefix cuts [S, C].
  std::map<std::string, std::string> model;
  size_t cut = 0;
  for (; cut < synced_prefix; cut++) ApplyToModel(ops_[cut], &model);
  for (;; cut++) {
    if (model == recovered) break;
    if (cut >= acked_ops) {
      // No cut matched: describe the divergence from model_at(C).
      std::string msg = "recovered state matches no cut in [" +
                        std::to_string(synced_prefix) + ", " +
                        std::to_string(acked_ops) + "]:";
      for (const auto& [key, value] : model) {
        auto rit = recovered.find(key);
        if (rit == recovered.end()) {
          msg += " lost:" + key;
        } else if (rit->second != value) {
          msg += " stale:" + key;
        }
      }
      for (const auto& [key, value] : recovered) {
        (void)value;
        if (model.find(key) == model.end()) msg += " extra:" + key;
      }
      return msg;
    }
    ApplyToModel(ops_[cut], &model);
  }
  // Cross-shard sequence consistency: every mutation consumes exactly one
  // globally allocated sequence number, so the recovered counter must
  // equal the matched cut's cumulative mutation count — across however
  // many shard WALs the workload was spread over. A higher value means a
  // sequence was allocated for an op the recovered state does not contain
  // (a lost update); a lower one means replay dropped an applied op.
  if (have_seq) {
    size_t mutations = probe_mutations;
    for (size_t i = 0; i < cut; i++) {
      if (ops_[i].kind == Op::kPut || ops_[i].kind == Op::kDelete) {
        mutations++;
      }
    }
    const uint64_t last_seq =
        std::strtoull(seq_text.c_str(), nullptr, 10);
    if (last_seq != mutations) {
      return "last-sequence " + std::to_string(last_seq) +
             " does not match cut " + std::to_string(cut) + " with " +
             std::to_string(mutations) + " mutations";
    }
  }
  // The store must stay usable after recovery.
  Status ps = db->Put(WriteOptions(), kProbeKey, "alive");
  if (!ps.ok()) return "post-recovery write failed: " + ps.ToString();
  std::string got;
  Status gs = db->Get(ReadOptions(), kProbeKey, &got);
  if (!gs.ok() || got != "alive") {
    return "post-recovery read failed: " + gs.ToString();
  }
  return "";
}

std::string CrashHarness::RunProfile(Profile* out) {
  std::unique_ptr<MemEnv> base(NewMemEnv());
  FaultInjectionEnv fenv(base.get());
  fenv.EnableTrace(true);
  Options opts = MakeOptions(&fenv);

  DB* raw = nullptr;
  Status s = DB::Open(opts, kDbName, &raw);
  std::unique_ptr<DB> db(raw);
  if (!s.ok()) return "profile open failed: " + s.ToString();
  size_t synced = 0;
  size_t acked = RunWorkload(db.get(), fenv, &synced);
  if (acked != ops_.size()) {
    return "profile workload failed at op " + std::to_string(acked);
  }
  if (!db->GetProperty("db.stats", &out->stats)) {
    return "db.stats property missing";
  }
  std::string verify = VerifyRecovered(db.get(), acked, acked);
  if (!verify.empty()) return "profile (pre-close): " + verify;
  db.reset();

  out->workload_calls = fenv.TotalMutatingCalls();
  out->trace = fenv.Trace();

  // A clean reopen (counts M for RunReopenCrashAt's matrix; everything is
  // still present because nothing was dropped).
  raw = nullptr;
  s = DB::Open(opts, kDbName, &raw);
  db.reset(raw);
  if (!s.ok()) return "profile reopen failed: " + s.ToString();
  out->reopen_calls = fenv.TotalMutatingCalls() - out->workload_calls;
  // The pre-close verify's probe put consumed one sequence number.
  verify = VerifyRecovered(db.get(), acked, acked, /*probe_mutations=*/1);
  if (!verify.empty()) return "profile (post-reopen): " + verify;
  return "";
}

std::string CrashHarness::RunCrashAt(uint64_t index) {
  std::unique_ptr<MemEnv> base(NewMemEnv());
  FaultInjectionEnv fenv(base.get());
  fenv.CrashAtCallIndex(index);
  Options opts = MakeOptions(&fenv);

  DB* raw = nullptr;
  Status open_s = DB::Open(opts, kDbName, &raw);
  std::unique_ptr<DB> db(raw);
  size_t synced = 0;
  size_t acked = 0;
  bool in_flight = false;
  if (open_s.ok()) {
    acked = RunWorkload(db.get(), fenv, &synced, &in_flight);
  } else if (!fenv.crashed()) {
    return "initial open failed without crash: " + open_s.ToString();
  }
  db.reset();  // All wrapper file handles must be gone before recovery.

  fenv.ClearFaults();
  if (fenv.crashed()) {
    Status rs = fenv.RecoverAfterCrash();
    if (!rs.ok()) return "RecoverAfterCrash failed: " + rs.ToString();
  }

  raw = nullptr;
  Status ro = DB::Open(opts, kDbName, &raw);
  std::unique_ptr<DB> db2(raw);
  if (!ro.ok()) return "reopen after crash failed: " + ro.ToString();
  return VerifyRecovered(db2.get(), synced,
                         in_flight ? acked + 1 : acked);
}

std::string CrashHarness::RunReopenCrashAt(uint64_t index) {
  std::unique_ptr<MemEnv> base(NewMemEnv());
  FaultInjectionEnv fenv(base.get());
  Options opts = MakeOptions(&fenv);

  DB* raw = nullptr;
  Status s = DB::Open(opts, kDbName, &raw);
  std::unique_ptr<DB> db(raw);
  if (!s.ok()) return "open failed: " + s.ToString();
  size_t synced = 0;
  size_t acked = RunWorkload(db.get(), fenv, &synced);
  if (acked != ops_.size()) {
    return "workload failed at op " + std::to_string(acked);
  }
  db.reset();  // Clean close — but the unsynced WAL tail is still volatile.

  fenv.CrashAtCallIndex(fenv.TotalMutatingCalls() + index);
  raw = nullptr;
  Status ro = DB::Open(opts, kDbName, &raw);
  std::unique_ptr<DB> db2(raw);
  db2.reset();
  if (!ro.ok() && !fenv.crashed()) {
    return "reopen failed without crash: " + ro.ToString();
  }
  fenv.ClearFaults();
  if (fenv.crashed()) {
    Status rs = fenv.RecoverAfterCrash();
    if (!rs.ok()) return "RecoverAfterCrash failed: " + rs.ToString();
  }

  raw = nullptr;
  Status final_s = DB::Open(opts, kDbName, &raw);
  std::unique_ptr<DB> db3(raw);
  if (!final_s.ok()) {
    return "open after recovery-crash failed: " + final_s.ToString();
  }
  return VerifyRecovered(db3.get(), synced, acked);
}

}  // namespace test
}  // namespace unikv
