// Microbenchmarks (google-benchmark) for the storage engine hot paths:
// in-memory Get/Put, the staleness-tracking control-word overhead (the
// "vector clock" cost Fig. 10 measures at macro scale), promotion, and the
// baselines' point ops. Run with --benchmark_filter=... as usual.
#include <benchmark/benchmark.h>

#include <memory>

#include "btree/btree_store.h"
#include "io/temp_dir.h"
#include "kv/faster_store.h"
#include "kv/log_iterator.h"
#include "mlkv/optimizer.h"
#include "lsm/lsm_store.h"
#include "store_promote.h"

namespace mlkv {
namespace {

constexpr uint32_t kValueSize = 64;
constexpr uint64_t kKeys = 20000;

struct StoreFixture {
  TempDir dir;
  FasterStore store;

  explicit StoreFixture(bool track_staleness, uint64_t mem_mb = 64) {
    FasterOptions o;
    o.path = dir.File("bench.log");
    o.index_slots = kKeys * 2;
    o.mem_size = mem_mb << 20;
    o.track_staleness = track_staleness;
    o.staleness_bound = UINT32_MAX - 1;
    if (!store.Open(o).ok()) std::abort();
    char value[kValueSize] = {0};
    for (Key k = 0; k < kKeys; ++k) {
      value[0] = static_cast<char>(k);
      store.Upsert(k, value, kValueSize).ok();
    }
  }
};

void BM_FasterGetInMemory(benchmark::State& state) {
  static StoreFixture* fixture = new StoreFixture(false);
  char buf[kValueSize];
  Key k = state.thread_index();
  for (auto _ : state) {
    fixture->store.Read(k % kKeys, buf, kValueSize).ok();
    k += 7919;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FasterGetInMemory)->Threads(1)->Threads(4);

void BM_MlkvGetInMemory(benchmark::State& state) {
  // Same read path with the staleness protocol on: the delta is the
  // per-record vector-clock CAS (paper §IV-E).
  static StoreFixture* fixture = new StoreFixture(true);
  char buf[kValueSize];
  Key k = state.thread_index();
  for (auto _ : state) {
    fixture->store.Read(k % kKeys, buf, kValueSize).ok();
    k += 7919;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MlkvGetInMemory)->Threads(1)->Threads(4);

void BM_FasterUpsertInPlace(benchmark::State& state) {
  static StoreFixture* fixture = new StoreFixture(false);
  char value[kValueSize] = {1};
  Key k = state.thread_index() * 1000;
  for (auto _ : state) {
    fixture->store.Upsert(k % kKeys, value, kValueSize).ok();
    k += 7919;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FasterUpsertInPlace)->Threads(1)->Threads(4);

void BM_MlkvUpsertInPlace(benchmark::State& state) {
  static StoreFixture* fixture = new StoreFixture(true);
  char value[kValueSize] = {1};
  Key k = state.thread_index() * 1000;
  for (auto _ : state) {
    fixture->store.Upsert(k % kKeys, value, kValueSize).ok();
    k += 7919;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MlkvUpsertInPlace)->Threads(1)->Threads(4);

void BM_FasterGetFromDisk(benchmark::State& state) {
  // Tiny buffer: nearly every read misses memory and hits the log file.
  static StoreFixture* fixture = new StoreFixture(false, /*mem_mb=*/1);
  char buf[kValueSize];
  Key k = 0;
  for (auto _ : state) {
    fixture->store.Read(k % (kKeys / 2), buf, kValueSize).ok();
    k += 7919;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FasterGetFromDisk);

void BM_MlkvPromote(benchmark::State& state) {
  static StoreFixture* fixture = new StoreFixture(true, /*mem_mb=*/1);
  Key k = 0;
  for (auto _ : state) {
    Promote(&fixture->store, k % (kKeys / 2)).ok();
    k += 104729;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MlkvPromote);

void BM_LsmGet(benchmark::State& state) {
  static LsmStore* store = [] {
    auto* s = new LsmStore();
    static TempDir dir;
    LsmOptions o;
    o.dir = dir.File("lsm");
    o.memtable_bytes = 1 << 20;
    if (!s->Open(o).ok()) std::abort();
    char value[kValueSize] = {0};
    for (Key k = 0; k < kKeys; ++k) s->Put(k, value, kValueSize).ok();
    return s;
  }();
  std::string out;
  Key k = 0;
  for (auto _ : state) {
    store->Get(k % kKeys, &out).ok();
    k += 7919;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LsmGet);

void BM_BtreeGet(benchmark::State& state) {
  static BTreeStore* store = [] {
    auto* s = new BTreeStore();
    static TempDir dir;
    BTreeOptions o;
    o.path = dir.File("tree.db");
    o.value_size = kValueSize;
    if (!s->Open(o).ok()) std::abort();
    char value[kValueSize] = {0};
    for (Key k = 0; k < kKeys; ++k) s->Put(k, value).ok();
    return s;
  }();
  char buf[kValueSize];
  Key k = 0;
  for (auto _ : state) {
    store->Get(k % kKeys, buf).ok();
    k += 7919;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BtreeGet);


void BM_LogScan(benchmark::State& state) {
  static StoreFixture* fixture = new StoreFixture(false);
  for (auto _ : state) {
    uint64_t n = 0;
    for (LogIterator it(&fixture->store); it.Valid(); it.Next()) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * kKeys);
}
BENCHMARK(BM_LogScan);

void BM_LiveLogScan(benchmark::State& state) {
  static StoreFixture* fixture = new StoreFixture(false);
  for (auto _ : state) {
    uint64_t n = 0;
    for (LiveLogIterator it(&fixture->store); it.Valid(); it.Next()) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * kKeys);
}
BENCHMARK(BM_LiveLogScan);

void BM_CompactChurnedLog(benchmark::State& state) {
  // Fresh store per iteration: churn one round of RCU garbage, compact it.
  char value[kValueSize + 8] = {0};
  for (auto _ : state) {
    state.PauseTiming();
    StoreFixture fixture(false, /*mem_mb=*/4);  // smallest legal buffer
    for (Key k = 0; k < kKeys; k += 2) {
      fixture.store.Upsert(k, value, kValueSize + 8).ok();  // RCU garbage
    }
    state.ResumeTiming();
    fixture.store.Compact(fixture.store.log().read_only_address(), nullptr)
        .ok();
  }
  state.SetItemsProcessed(state.iterations() * kKeys);
}
BENCHMARK(BM_CompactChurnedLog)->Unit(benchmark::kMillisecond);

void BM_EmbeddingRmwFusedAdagrad(benchmark::State& state) {
  // The fused-optimizer hot path: one Rmw per gradient application.
  static StoreFixture* fixture = new StoreFixture(true);
  float grad[kValueSize / sizeof(float)];
  for (auto& g : grad) g = 0.01f;
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kAdagrad;
  // Records are kValueSize embeddings without state here; apply on the
  // embedding floats only (state layout benchmarked at table level).
  const uint32_t dim = kValueSize / sizeof(float);
  Key k = 1;
  for (auto _ : state) {
    fixture->store
        .Rmw(k % kKeys, kValueSize,
             [&](char* v, uint32_t, bool) {
               float* emb = reinterpret_cast<float*>(v);
               for (uint32_t d = 0; d < dim; ++d) {
                 emb[d] -= cfg.lr * grad[d];
               }
             })
        .ok();
    k += 7919;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EmbeddingRmwFusedAdagrad)->Threads(1)->Threads(4);

}  // namespace
}  // namespace mlkv




BENCHMARK_MAIN();
