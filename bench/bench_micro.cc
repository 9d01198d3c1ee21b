// Component micro-benchmarks (google-benchmark): the substrates whose
// costs underlie every macro experiment — hashing, CRC, varint coding,
// skiplist ops, the two-level hash index, block build/read, and bloom
// filter probes.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "core/dbformat.h"
#include "index/hash_index.h"
#include "mem/memtable.h"
#include "mem/skiplist.h"
#include "table/block.h"
#include "table/block_builder.h"
#include "table/bloom.h"
#include "util/arena.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/hash.h"
#include "util/random.h"

namespace unikv {
namespace {

std::string Key(uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%012llu",
                static_cast<unsigned long long>(i));
  return buf;
}

void BM_Crc32c(benchmark::State& state) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096)->Arg(65536);

void BM_Hash64(benchmark::State& state) {
  std::string data(state.range(0), 'k');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Hash64(data.data(), data.size(), 17));
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_Hash64)->Arg(16)->Arg(64)->Arg(1024);

void BM_VarintRoundTrip(benchmark::State& state) {
  std::string buf;
  for (auto _ : state) {
    buf.clear();
    for (uint64_t v = 1; v < (1ull << 40); v <<= 4) {
      PutVarint64(&buf, v);
    }
    Slice input(buf);
    uint64_t out;
    while (GetVarint64(&input, &out)) {
      benchmark::DoNotOptimize(out);
    }
  }
}
BENCHMARK(BM_VarintRoundTrip);

void BM_SkipListInsert(benchmark::State& state) {
  struct Cmp {
    int operator()(uint64_t a, uint64_t b) const {
      return a < b ? -1 : (a > b ? 1 : 0);
    }
  };
  Random rnd(42);
  for (auto _ : state) {
    state.PauseTiming();
    Arena arena;
    SkipList<uint64_t, Cmp> list(Cmp(), &arena);
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); i++) {
      list.Insert((static_cast<uint64_t>(rnd.Next()) << 20) | i);
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SkipListInsert)->Arg(10000);

void BM_SkipListLookup(benchmark::State& state) {
  struct Cmp {
    int operator()(uint64_t a, uint64_t b) const {
      return a < b ? -1 : (a > b ? 1 : 0);
    }
  };
  Arena arena;
  SkipList<uint64_t, Cmp> list(Cmp(), &arena);
  const int n = state.range(0);
  for (int i = 0; i < n; i++) {
    list.Insert(static_cast<uint64_t>(i) * 2654435761u % (n * 16));
  }
  Random rnd(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        list.Contains(static_cast<uint64_t>(rnd.Next()) % (n * 16)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SkipListLookup)->Arg(100000);

void BM_HashIndexInsert(benchmark::State& state) {
  const int n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    HashIndex index(n);
    state.ResumeTiming();
    for (int i = 0; i < n; i++) {
      index.Insert(HashIndex::KeyHash(Key(i)),
                   static_cast<uint16_t>(i & 0xff));
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashIndexInsert)->Arg(100000);

void BM_HashIndexLookup(benchmark::State& state) {
  const int n = 100000;
  HashIndex index(n);
  for (int i = 0; i < n; i++) {
    index.Insert(HashIndex::KeyHash(Key(i)),
                 static_cast<uint16_t>(i & 0xff));
  }
  Random rnd(9);
  std::vector<uint16_t> candidates;
  for (auto _ : state) {
    candidates.clear();
    index.Lookup(HashIndex::KeyHash(Key(rnd.Next() % n)), &candidates);
    benchmark::DoNotOptimize(candidates.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashIndexLookup);

void BM_BlockBuildAndSeek(benchmark::State& state) {
  // Build one 4 KiB-ish block and binary-search it.
  BlockBuilder builder(16);
  std::vector<std::string> keys;
  for (int i = 0; i < 64; i++) {
    std::string ikey;
    AppendInternalKey(&ikey, ParsedInternalKey(Key(i), 100, kTypeValue));
    keys.push_back(ikey);
    builder.Add(ikey, "value-payload-for-benchmarks");
  }
  Slice raw = builder.Finish();
  BlockContents contents{raw, false, false};
  Block block(contents);
  InternalKeyComparator icmp;
  Random rnd(11);
  for (auto _ : state) {
    std::unique_ptr<Iterator> iter(block.NewIterator(icmp));
    iter->Seek(keys[rnd.Next() % keys.size()]);
    benchmark::DoNotOptimize(iter->Valid());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockBuildAndSeek);

void BM_BloomBuild(benchmark::State& state) {
  const int n = state.range(0);
  for (auto _ : state) {
    BloomFilterBuilder bloom(10);
    for (int i = 0; i < n; i++) {
      bloom.AddKey(Key(i));
    }
    std::string out;
    bloom.Finish(&out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BloomBuild)->Arg(4096);

void BM_BloomProbe(benchmark::State& state) {
  BloomFilterBuilder bloom(10);
  const int n = 100000;
  for (int i = 0; i < n; i++) bloom.AddKey(Key(i));
  std::string filter;
  bloom.Finish(&filter);
  Random rnd(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BloomFilterMayMatch(Key(rnd.Next() % (2 * n)), filter));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomProbe);

void BM_MemTableAdd(benchmark::State& state) {
  InternalKeyComparator icmp;
  std::string value(256, 'v');
  for (auto _ : state) {
    state.PauseTiming();
    MemTable* mem = new MemTable(icmp);
    mem->Ref();
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); i++) {
      mem->Add(i + 1, kTypeValue, Key(i), value);
    }
    state.PauseTiming();
    mem->Unref();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MemTableAdd)->Arg(10000);

void BM_ZipfianNext(benchmark::State& state) {
  ZipfianGenerator zipf(1000000, 0.99, 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next());
  }
}
BENCHMARK(BM_ZipfianNext);

}  // namespace
}  // namespace unikv

BENCHMARK_MAIN();
