#include "index/hash_index.h"

#include <cassert>

#include "util/hash.h"
#include "util/perf_context.h"

namespace unikv {

namespace {
constexpr uint64_t kHashSeed = 0x9E3779B97F4A7C15ull;
}  // namespace

HashIndex::HashIndex(size_t expected_entries, int num_hashes)
    : num_hashes_(num_hashes) {
  size_t n = static_cast<size_t>(expected_entries / 0.8) + 16;
  buckets_.resize(n);
}

uint64_t HashIndex::KeyHash(const Slice& user_key) {
  return Hash64(user_key.data(), user_key.size(), kHashSeed);
}

size_t HashIndex::BucketFor(uint64_t key_hash, int hash_idx) const {
  // Double hashing over the two 32-bit halves; both terms fit in 64 bits
  // for any realistic num_hashes.
  const uint64_t lo = key_hash & 0xFFFFFFFFu;
  const uint64_t hi = key_hash >> 32;
  return static_cast<size_t>((lo + static_cast<uint64_t>(hash_idx) * hi) %
                             buckets_.size());
}

uint16_t HashIndex::KeyTag(uint64_t key_hash) {
  // A multiplicative remix folds both halves into the top 16 bits, so two
  // keys sharing a bucket still differ in tag like independent hashes.
  return static_cast<uint16_t>(((key_hash ^ (key_hash >> 32)) * kHashSeed) >>
                               48);
}

std::unique_ptr<HashIndex> HashIndex::Clone() const {
  auto copy = std::make_unique<HashIndex>(0, num_hashes_);
  copy->num_entries_ = num_entries_;
  copy->buckets_ = buckets_;
  copy->overflow_ = overflow_;
  return copy;
}

void HashIndex::Insert(uint64_t key_hash, size_t position) {
  assert(position < kMaxPositions);
  const uint16_t pos = static_cast<uint16_t>(position);
  const uint16_t tag = KeyTag(key_hash);
  // Probe candidate buckets h_1 .. h_n for an empty inline slot.
  for (int i = 0; i < num_hashes_; i++) {
    Bucket& b = buckets_[BucketFor(key_hash, i)];
    if (b.position == kEmpty) {
      b.key_tag = tag;
      b.position = pos;
      num_entries_++;
      return;
    }
  }
  // All candidates occupied: prepend an overflow entry to the chain of the
  // last candidate bucket, so the newest entry is found first.
  Bucket& b = buckets_[BucketFor(key_hash, num_hashes_ - 1)];
  OverflowEntry e;
  e.key_tag = tag;
  e.position = pos;
  e.next = b.overflow_head;
  overflow_.push_back(e);
  b.overflow_head = static_cast<uint32_t>(overflow_.size() - 1);
  num_entries_++;
}

void HashIndex::Lookup(uint64_t key_hash,
                       std::vector<uint16_t>* candidates) const {
  PerfContext* perf = GetPerfContext();
  perf->hash_index_lookups++;
  const size_t candidates_before = candidates->size();
  const uint16_t tag = KeyTag(key_hash);
  // Scan candidate buckets h_n .. h_1 (reverse of insertion probing), each
  // bucket's overflow chain (newest first) before its inline slot.
  for (int i = num_hashes_ - 1; i >= 0; i--) {
    const Bucket& b = buckets_[BucketFor(key_hash, i)];
    perf->hash_index_probes++;
    // Overflow chains only hang off the last candidate bucket.
    if (i == num_hashes_ - 1) {
      uint32_t cur = b.overflow_head;
      while (cur != kNoOverflow) {
        const OverflowEntry& e = overflow_[cur];
        perf->hash_index_probes++;
        if (e.key_tag == tag) {
          candidates->push_back(e.position);
        }
        cur = e.next;
      }
    }
    if (b.position != kEmpty && b.key_tag == tag) {
      candidates->push_back(b.position);
    }
  }
  perf->hash_index_candidates += candidates->size() - candidates_before;
}

size_t HashIndex::MemoryUsage() const {
  return buckets_.size() * sizeof(Bucket) +
         overflow_.size() * sizeof(OverflowEntry);
}

double HashIndex::InlineUtilization() const {
  size_t used = 0;
  for (const Bucket& b : buckets_) {
    if (b.position != kEmpty) used++;
  }
  return buckets_.empty() ? 0.0
                          : static_cast<double>(used) / buckets_.size();
}

}  // namespace unikv
