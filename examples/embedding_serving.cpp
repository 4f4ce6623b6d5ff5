// Train -> checkpoint -> serve: the full lifecycle of an embedding model on
// MLKV (the inference half mirrors HugeCTR's out-of-core parameter server,
// which the paper cites as a motivating integration).
//
//   build/examples/embedding_serving
//
// Phase 1 trains a small CTR-style embedding table and checkpoints it.
// Phase 2 simulates a serving replica: a fresh Mlkv instance recovers the
// directory and serves the table through the caching decorator
// (MakeCachingBackend over MakeTableBackend). It warms the head of the
// popularity distribution into the serving cache and answers zipfian
// batched lookups, printing hit rates and tail latency.
#include <cstdio>
#include <memory>
#include <vector>

#include "backend/kv_backend.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "common/random.h"
#include "io/temp_dir.h"
#include "mlkv/mlkv.h"
#include "obs/metrics.h"

using namespace mlkv;

namespace {
constexpr uint32_t kDim = 16;
constexpr Key kRows = 100000;
}  // namespace

int main() {
  TempDir workdir("mlkv-serving");
  MlkvOptions options;
  options.dir = workdir.File("db");
  options.store.mem_size = 8ull << 20;

  // ---- Phase 1: "train" and checkpoint. ----
  {
    std::unique_ptr<Mlkv> db;
    if (!Mlkv::Open(options, &db).ok()) return 1;
    EmbeddingTable* table = nullptr;
    OptimizerConfig adagrad;
    adagrad.kind = OptimizerKind::kAdagrad;
    if (!db->OpenTable("ctr_emb", kDim, 8, &table, adagrad).ok()) return 1;
    std::vector<float> v(kDim), g(kDim, 0.05f);
    for (Key k = 0; k < kRows; ++k) {
      if (!table->GetOrInit({&k, 1}, v.data()).ok()) return 1;
    }
    // A few gradient passes over a popular subset (what training skew does).
    ZipfianGenerator zipf(kRows, 0.99, 7);
    for (int i = 0; i < 50000; ++i) {
      const Key k = zipf.NextScrambled();
      if (!table->Get({&k, 1}, v.data()).ok()) return 1;
      if (!table->ApplyGradients({&k, 1}, g.data()).ok()) return 1;
    }
    if (!db->CheckpointAll().ok()) return 1;
    std::printf("phase1: trained %llu rows, checkpointed\n",
                static_cast<unsigned long long>(table->num_embeddings()));
  }

  // ---- Phase 2: serving replica recovers and answers lookups. ----
  std::unique_ptr<Mlkv> db;
  if (!Mlkv::Open(options, &db).ok()) return 1;
  EmbeddingTable* table = nullptr;
  if (!db->OpenExistingTable("ctr_emb", &table).ok()) return 1;

  std::unique_ptr<KvBackend> backend, server;
  if (!MakeTableBackend(table, &backend).ok()) return 1;
  if (!MakeCachingBackend(std::move(backend), 1 << 14, CacheAdmission::kLru,
                          &server)
           .ok()) {
    return 1;
  }
  // The serving read: untracked (never touches the trainer's staleness
  // state), and never-stored keys come back kNotFound instead of being
  // initialized.
  MultiGetOptions serve;
  serve.init_missing = false;
  serve.untracked = true;

  // Deploy-time warmup: the head of the id distribution is known. One
  // serving read fills the cache; missing keys are skipped.
  std::vector<Key> head(1 << 13);
  for (size_t i = 0; i < head.size(); ++i) head[i] = i;
  std::vector<float> rows(head.size() * kDim);
  if (server->MultiGet(head, rows.data(), serve).failed > 0) return 1;
  std::printf("phase2: recovered table, warmed %zu hot rows\n", head.size());

  auto cache_count = [&](const char* name) {
    obs::MetricsSink sink;
    server->CollectMetrics(&sink);
    return static_cast<uint64_t>(sink.Sum(name));
  };
  const uint64_t warm_hits = cache_count("mlkv_cache_hits_total");
  const uint64_t warm_misses = cache_count("mlkv_cache_misses_total");

  // Serve zipfian traffic.
  ZipfianGenerator zipf(kRows, 0.99, 99);
  std::vector<Key> batch(256);
  std::vector<float> out(batch.size() * kDim);
  Histogram latency_us;
  uint64_t lookups = 0, missing = 0;
  constexpr int kBatches = 500;
  for (int b = 0; b < kBatches; ++b) {
    for (auto& k : batch) k = zipf.NextScrambled();
    const StopWatch watch;
    const BatchResult r = server->MultiGet(batch, out.data(), serve);
    if (r.failed > 0) return 1;
    latency_us.Record(watch.ElapsedMicros());
    lookups += batch.size();
    missing += r.missing;
  }
  const uint64_t cache_hits = cache_count("mlkv_cache_hits_total") - warm_hits;
  const uint64_t store_hits =
      cache_count("mlkv_cache_misses_total") - warm_misses - missing;
  std::printf("served %llu lookups in %d batches\n",
              static_cast<unsigned long long>(lookups), kBatches);
  std::printf("cache hits %.1f%%  store hits %.1f%%  missing %llu\n",
              100.0 * cache_hits / static_cast<double>(lookups),
              100.0 * store_hits / static_cast<double>(lookups),
              static_cast<unsigned long long>(missing));
  std::printf("batch latency p50 %llu us  p95 %llu us  p99 %llu us\n",
              static_cast<unsigned long long>(latency_us.Percentile(0.50)),
              static_cast<unsigned long long>(latency_us.Percentile(0.95)),
              static_cast<unsigned long long>(latency_us.Percentile(0.99)));
  return missing == 0 && cache_hits > 0 ? 0 : 1;
}
