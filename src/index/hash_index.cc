#include "index/hash_index.h"

#include <limits>

#include "util/coding.h"
#include "util/crc32c.h"
#include "util/hash.h"
#include "util/perf_context.h"

namespace unikv {

namespace {
// Seeds deriving the independent hash functions h_1..h_{n+1}.
constexpr uint64_t kHashSeedBase = 0x9E3779B97F4A7C15ull;
}  // namespace

HashIndex::HashIndex(size_t expected_entries, int num_hashes)
    : num_hashes_(num_hashes) {
  size_t n = static_cast<size_t>(expected_entries / 0.8) + 16;
  buckets_.resize(n);
}

size_t HashIndex::BucketFor(const Slice& key, int hash_idx) const {
  uint64_t h = Hash64(key.data(), key.size(),
                      kHashSeedBase * (hash_idx + 1));
  return static_cast<size_t>(h % buckets_.size());
}

uint16_t HashIndex::KeyTag(const Slice& key) const {
  // h_{n+1}: an extra hash function; keep the top 16 bits.
  uint64_t h = Hash64(key.data(), key.size(),
                      kHashSeedBase * (num_hashes_ + 1));
  return static_cast<uint16_t>(h >> 48);
}

void HashIndex::Insert(const Slice& user_key, uint16_t table_id) {
  const uint16_t tag = KeyTag(user_key);
  // Probe candidate buckets h_1 .. h_n for an empty inline slot.
  for (int i = 0; i < num_hashes_; i++) {
    Bucket& b = buckets_[BucketFor(user_key, i)];
    if (b.table_id == kEmptyTable) {
      b.key_tag = tag;
      b.table_id = table_id;
      num_entries_++;
      return;
    }
  }
  // All candidates occupied: prepend an overflow entry to the chain of the
  // last candidate bucket, so the newest entry is found first.
  Bucket& b = buckets_[BucketFor(user_key, num_hashes_ - 1)];
  OverflowEntry e;
  e.key_tag = tag;
  e.table_id = table_id;
  e.next = b.overflow_head;
  overflow_.push_back(e);
  b.overflow_head = static_cast<uint32_t>(overflow_.size() - 1);
  num_entries_++;
}

void HashIndex::Lookup(const Slice& user_key,
                       std::vector<uint16_t>* candidates) const {
  PerfContext* perf = GetPerfContext();
  perf->hash_index_lookups++;
  const size_t candidates_before = candidates->size();
  const uint16_t tag = KeyTag(user_key);
  // Scan candidate buckets h_n .. h_1 (reverse of insertion probing), each
  // bucket's overflow chain (newest first) before its inline slot.
  for (int i = num_hashes_ - 1; i >= 0; i--) {
    const Bucket& b = buckets_[BucketFor(user_key, i)];
    perf->hash_index_probes++;
    // Overflow chains only hang off the last candidate bucket.
    if (i == num_hashes_ - 1) {
      uint32_t cur = b.overflow_head;
      while (cur != kNoOverflow) {
        const OverflowEntry& e = overflow_[cur];
        perf->hash_index_probes++;
        if (e.key_tag == tag) {
          candidates->push_back(e.table_id);
        }
        cur = e.next;
      }
    }
    if (b.table_id != kEmptyTable && b.key_tag == tag) {
      candidates->push_back(b.table_id);
    }
  }
  perf->hash_index_candidates += candidates->size() - candidates_before;
}

void HashIndex::Clear() {
  for (Bucket& b : buckets_) {
    b = Bucket();
  }
  overflow_.clear();
  num_entries_ = 0;
}

size_t HashIndex::MemoryUsage() const {
  return buckets_.size() * sizeof(Bucket) +
         overflow_.size() * sizeof(OverflowEntry);
}

double HashIndex::InlineUtilization() const {
  size_t used = 0;
  for (const Bucket& b : buckets_) {
    if (b.table_id != kEmptyTable) used++;
  }
  return buckets_.empty() ? 0.0
                          : static_cast<double>(used) / buckets_.size();
}

std::unique_ptr<HashIndex> HashIndex::Clone() const {
  auto copy = std::make_unique<HashIndex>(0, num_hashes_);
  copy->num_entries_ = num_entries_;
  copy->buckets_ = buckets_;
  copy->overflow_ = overflow_;
  return copy;
}

// Checkpoint image:
//   magic(4B) num_hashes(varint) num_buckets(varint) num_overflow(varint)
//   num_entries(varint)
//   buckets: key_tag(2B) table_id(2B) overflow_head(4B) each
//   overflow: key_tag(2B) table_id(2B) next(4B) each
//   crc32c(4B, masked) over everything before it
namespace {
constexpr uint32_t kCheckpointMagic = 0x48494458;  // "HIDX"
}

void HashIndex::EncodeTo(std::string* dst) const {
  const size_t start = dst->size();
  PutFixed32(dst, kCheckpointMagic);
  PutVarint32(dst, static_cast<uint32_t>(num_hashes_));
  PutVarint64(dst, buckets_.size());
  PutVarint64(dst, overflow_.size());
  PutVarint64(dst, num_entries_);
  for (const Bucket& b : buckets_) {
    PutFixed32(dst, (static_cast<uint32_t>(b.key_tag) << 16) | b.table_id);
    PutFixed32(dst, b.overflow_head);
  }
  for (const OverflowEntry& e : overflow_) {
    PutFixed32(dst, (static_cast<uint32_t>(e.key_tag) << 16) | e.table_id);
    PutFixed32(dst, e.next);
  }
  PutFixed32(dst, crc32c::Mask(crc32c::Value(dst->data() + start,
                                             dst->size() - start)));
}

Status HashIndex::DecodeFrom(Slice input) {
  if (input.size() < 4 ||
      crc32c::Unmask(DecodeFixed32(input.data() + input.size() - 4)) !=
          crc32c::Value(input.data(), input.size() - 4)) {
    return Status::Corruption("hash index checkpoint checksum mismatch");
  }
  input = Slice(input.data(), input.size() - 4);
  uint32_t magic;
  if (!GetFixed32(&input, &magic) || magic != kCheckpointMagic) {
    return Status::Corruption("bad hash index checkpoint magic");
  }
  uint32_t num_hashes;
  uint64_t num_buckets, num_overflow, num_entries;
  if (!GetVarint32(&input, &num_hashes) ||
      !GetVarint64(&input, &num_buckets) ||
      !GetVarint64(&input, &num_overflow) ||
      !GetVarint64(&input, &num_entries)) {
    return Status::Corruption("bad hash index checkpoint header");
  }
  if (num_buckets > input.size() || num_overflow > input.size() ||
      input.size() != (num_buckets + num_overflow) * 8) {
    return Status::Corruption("truncated hash index checkpoint");
  }
  if (num_hashes < 1 ||
      num_hashes > static_cast<uint32_t>(std::numeric_limits<int>::max()) ||
      num_buckets == 0) {
    return Status::Corruption("bad hash index checkpoint shape");
  }
  std::vector<Bucket> buckets(num_buckets);
  std::vector<OverflowEntry> overflow(num_overflow);
  for (Bucket& b : buckets) {
    uint32_t packed;
    GetFixed32(&input, &packed);
    GetFixed32(&input, &b.overflow_head);
    b.key_tag = static_cast<uint16_t>(packed >> 16);
    b.table_id = static_cast<uint16_t>(packed & 0xFFFF);
    if (b.overflow_head != kNoOverflow && b.overflow_head >= num_overflow) {
      return Status::Corruption("bad hash index checkpoint overflow head");
    }
  }
  for (uint64_t i = 0; i < num_overflow; i++) {
    OverflowEntry& e = overflow[i];
    uint32_t packed;
    GetFixed32(&input, &packed);
    GetFixed32(&input, &e.next);
    e.key_tag = static_cast<uint16_t>(packed >> 16);
    e.table_id = static_cast<uint16_t>(packed & 0xFFFF);
    // Insertion prepends, so every link points at an older (lower) entry:
    // anything else is out of range or could close a cycle.
    if (e.next != kNoOverflow && e.next >= i) {
      return Status::Corruption("bad hash index checkpoint overflow link");
    }
  }
  num_hashes_ = static_cast<int>(num_hashes);
  num_entries_ = num_entries;
  buckets_ = std::move(buckets);
  overflow_ = std::move(overflow);
  return Status::OK();
}

}  // namespace unikv
