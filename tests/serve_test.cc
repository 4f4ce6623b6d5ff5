// In-process serving tests: the caching decorator (MakeCachingBackend)
// over a borrowed table (MakeTableBackend), read untracked without
// initialization. Lookup correctness, cache hits, missing keys, warm-up,
// serving a recovered checkpoint, concurrent lookups, TinyLFU admission,
// and serving a table a trainer is writing.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "backend/kv_backend.h"
#include "common/random.h"
#include "io/temp_dir.h"
#include "mlkv/mlkv.h"
#include "obs/metrics.h"

namespace mlkv {
namespace {

constexpr uint32_t kDim = 8;

struct ServeFixture {
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  EmbeddingTable* table = nullptr;

  explicit ServeFixture(Key rows, uint64_t mem_pages = 16) {
    MlkvOptions opts;
    opts.dir = dir.path() + "/db";
    opts.store.index_slots = 4096;
    opts.store.page_size = 4096;
    opts.store.mem_size = mem_pages * 4096;
    EXPECT_TRUE(Mlkv::Open(opts, &db).ok());
    EXPECT_TRUE(db->OpenTable("emb", kDim, 8, &table).ok());
    std::vector<float> v(kDim);
    for (Key k = 0; k < rows; ++k) {
      for (uint32_t d = 0; d < kDim; ++d) {
        v[d] = Expected(k, d);
      }
      EXPECT_TRUE(table->Put({&k, 1}, v.data()).ok());
    }
  }

  static float Expected(Key k, uint32_t d) {
    return static_cast<float>(k) + 0.125f * static_cast<float>(d);
  }
};

// The serving stack: the caching decorator over a borrowed table.
std::unique_ptr<KvBackend> ServeStack(
    EmbeddingTable* table, size_t capacity = 1 << 16,
    CacheAdmission admission = CacheAdmission::kLru) {
  std::unique_ptr<KvBackend> inner, cached;
  EXPECT_TRUE(MakeTableBackend(table, &inner).ok());
  EXPECT_TRUE(
      MakeCachingBackend(std::move(inner), capacity, admission, &cached).ok());
  return cached;
}

// The serving read: untracked, and never-stored keys stay kNotFound.
MultiGetOptions ServeRead() {
  MultiGetOptions o;
  o.init_missing = false;
  o.untracked = true;
  return o;
}

// A metric family summed over its label sets (the cache's per-shard
// counters).
uint64_t Count(const KvBackend& backend, std::string_view name) {
  obs::MetricsSink sink;
  backend.CollectMetrics(&sink);
  return static_cast<uint64_t>(sink.Sum(name));
}

TEST(ServeTest, LookupReturnsStoredEmbeddings) {
  ServeFixture f(200);
  auto server = ServeStack(f.table);
  std::vector<Key> keys = {0, 7, 42, 199};
  std::vector<float> out(keys.size() * kDim);
  const BatchResult r = server->MultiGet(keys, out.data(), ServeRead());
  ASSERT_TRUE(r.AllOk());
  EXPECT_EQ(r.found, keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    for (uint32_t d = 0; d < kDim; ++d) {
      EXPECT_FLOAT_EQ(out[i * kDim + d], ServeFixture::Expected(keys[i], d));
    }
  }
  EXPECT_EQ(Count(*server, "mlkv_cache_misses_total"), keys.size());
  EXPECT_EQ(Count(*server, "mlkv_cache_hits_total"), 0u);
}

TEST(ServeTest, RepeatLookupsHitTheCache) {
  ServeFixture f(200);
  auto server = ServeStack(f.table);
  std::vector<Key> keys = {1, 2, 3, 4};
  std::vector<float> out(keys.size() * kDim);
  ASSERT_TRUE(server->MultiGet(keys, out.data(), ServeRead()).AllOk());
  ASSERT_TRUE(server->MultiGet(keys, out.data(), ServeRead()).AllOk());
  EXPECT_EQ(Count(*server, "mlkv_cache_misses_total"), keys.size());
  EXPECT_EQ(Count(*server, "mlkv_cache_hits_total"), keys.size());
  EXPECT_FLOAT_EQ(out[3 * kDim], ServeFixture::Expected(4, 0));
}

TEST(ServeTest, MissingKeysReportNotFoundForZeroFill) {
  ServeFixture f(10);
  auto server = ServeStack(f.table);
  std::vector<Key> keys = {5, 99999};
  // Twice: cold (both keys miss the cache), then with key 5 cached.
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<float> out(keys.size() * kDim, 1.0f);
    const BatchResult r = server->MultiGet(keys, out.data(), ServeRead());
    EXPECT_EQ(r.codes[0], Status::Code::kOk) << "pass " << pass;
    EXPECT_EQ(r.codes[1], Status::Code::kNotFound) << "pass " << pass;
    EXPECT_EQ(r.found, 1u) << "pass " << pass;
    EXPECT_EQ(r.missing, 1u) << "pass " << pass;
    // The DLRM convention (unseen ids embed to the origin) is the
    // caller's: zero the kNotFound rows.
    for (size_t i = 0; i < keys.size(); ++i) {
      if (r.codes[i] == Status::Code::kNotFound) {
        std::memset(&out[i * kDim], 0, kDim * sizeof(float));
      }
    }
    EXPECT_FLOAT_EQ(out[0], ServeFixture::Expected(5, 0));
    for (uint32_t d = 0; d < kDim; ++d) EXPECT_FLOAT_EQ(out[kDim + d], 0.0f);
  }
}

TEST(ServeTest, WarmPreloadsTheCache) {
  ServeFixture f(200);
  auto server = ServeStack(f.table);
  std::vector<Key> hot(50);
  for (Key k = 0; k < 50; ++k) hot[k] = k;
  std::vector<float> out(hot.size() * kDim);
  // Warm-up is one serving read of the head keys.
  ASSERT_TRUE(server->MultiGet(hot, out.data(), ServeRead()).AllOk());
  const uint64_t misses = Count(*server, "mlkv_cache_misses_total");
  ASSERT_TRUE(server->MultiGet(hot, out.data(), ServeRead()).AllOk());
  EXPECT_EQ(Count(*server, "mlkv_cache_hits_total"), hot.size());
  EXPECT_EQ(Count(*server, "mlkv_cache_misses_total"), misses);
}

TEST(ServeTest, WarmSkipsMissingKeys) {
  ServeFixture f(10);
  auto server = ServeStack(f.table);
  std::vector<Key> keys = {1, 77777, 2};
  std::vector<float> out(keys.size() * kDim);
  const BatchResult r = server->MultiGet(keys, out.data(), ServeRead());
  EXPECT_EQ(r.found, 2u);
  EXPECT_EQ(r.missing, 1u);
  EXPECT_EQ(Count(*server, "mlkv_cache_entries"), 2u);
}

TEST(ServeTest, LookupsDoNotConsumeStalenessBudget) {
  // Serving shares a table with training; its reads must be invisible to
  // the bounded-staleness protocol (Peek, not Read). Read through the
  // table backend directly: the store read the cache issues on a miss.
  ServeFixture f(50);
  std::unique_ptr<KvBackend> store;
  ASSERT_TRUE(MakeTableBackend(f.table, &store).ok());
  Key key = 3;
  std::vector<float> out(kDim);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store->MultiGet({&key, 1}, out.data(), ServeRead()).AllOk());
  }
  // With bound 8, a tracked read x200 would starve this Get.
  ASSERT_TRUE(f.table->Get({&key, 1}, out.data()).ok());
  ASSERT_TRUE(f.table->Put({&key, 1}, out.data()).ok());
}

TEST(ServeTest, ServesRecoveredCheckpointDirectory) {
  TempDir dir;
  MlkvOptions opts;
  opts.dir = dir.path() + "/db";
  opts.store.index_slots = 1024;
  opts.store.page_size = 4096;
  opts.store.mem_size = 16 * 4096;
  {
    std::unique_ptr<Mlkv> db;
    ASSERT_TRUE(Mlkv::Open(opts, &db).ok());
    EmbeddingTable* t = nullptr;
    ASSERT_TRUE(db->OpenTable("emb", kDim, 8, &t).ok());
    std::vector<float> v(kDim, 2.5f);
    for (Key k = 0; k < 100; ++k) {
      ASSERT_TRUE(t->Put({&k, 1}, v.data()).ok());
    }
    ASSERT_TRUE(db->CheckpointAll().ok());
  }
  // Fresh process: recover and serve.
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(opts, &db).ok());
  EmbeddingTable* t = nullptr;
  ASSERT_TRUE(db->OpenExistingTable("emb", &t).ok());
  auto server = ServeStack(t);
  std::vector<Key> keys = {0, 50, 99};
  std::vector<float> out(keys.size() * kDim);
  ASSERT_TRUE(server->MultiGet(keys, out.data(), ServeRead()).AllOk());
  for (float v : out) EXPECT_FLOAT_EQ(v, 2.5f);
}

TEST(ServeTest, ConcurrentLookupsAreSafeAndComplete) {
  ServeFixture f(2000, /*mem_pages=*/8);  // out-of-core
  auto server = ServeStack(f.table);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      std::vector<Key> keys(16);
      std::vector<float> out(keys.size() * kDim);
      for (int i = 0; i < 500; ++i) {
        for (auto& k : keys) k = rng.Next() % 2000;
        if (!server->MultiGet(keys, out.data(), ServeRead()).AllOk()) {
          failures.fetch_add(1);
          continue;
        }
        for (size_t j = 0; j < keys.size(); ++j) {
          if (out[j * kDim] != ServeFixture::Expected(keys[j], 0)) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Every key probed the cache exactly once.
  EXPECT_EQ(Count(*server, "mlkv_cache_hits_total") +
                Count(*server, "mlkv_cache_misses_total"),
            4u * 500u * 16u);
}

TEST(ServeTest, ServingWhileTrainingSeesCommittedValues) {
  ServeFixture f(200);
  // The trainer writes through the serving stack, so its gradient pushes
  // invalidate rows that concurrent serving reads fill.
  auto server = ServeStack(f.table);
  std::atomic<bool> stop{false};
  std::thread trainer([&] {
    std::vector<float> g(kDim, 0.01f);
    std::vector<float> v(kDim);
    Rng rng(9);
    while (!stop.load(std::memory_order_acquire)) {
      const Key k = rng.Next() % 200;
      if (server->MultiGet({&k, 1}, v.data()).AllOk()) {
        server->MultiApplyGradient({&k, 1}, g.data(), 0.1f);
      }
    }
  });
  // Serving reads both through the cache and from the store directly (the
  // table backend: the read the cache issues on a miss).
  std::unique_ptr<KvBackend> store;
  ASSERT_TRUE(MakeTableBackend(f.table, &store).ok());
  Rng rng(4);
  std::vector<float> out(kDim);
  for (int i = 0; i < 2000; ++i) {
    const Key k = rng.Next() % 200;
    for (KvBackend* reader : {server.get(), store.get()}) {
      ASSERT_TRUE(reader->MultiGet({&k, 1}, out.data(), ServeRead()).AllOk());
      // Values only ever decrease from the seed under positive gradients.
      EXPECT_LE(out[0], ServeFixture::Expected(k, 0) + 1e-4f);
      EXPECT_TRUE(std::isfinite(out[0]));
    }
  }
  stop.store(true, std::memory_order_release);
  trainer.join();
}

TEST(ServeTest, TinyLfuAdmissionGuardsTheServingCache) {
  // 16 rows per cache shard (the decorator has 16), so each shard holds
  // its share of the 16 hot keys with room for the scan to press on it.
  ServeFixture f(4000);
  auto server = ServeStack(f.table, /*capacity=*/256, CacheAdmission::kTinyLfu);
  std::vector<Key> hot(16);
  for (Key k = 0; k < 16; ++k) hot[k] = k;
  std::vector<float> out(64 * kDim);
  std::vector<Key> scan(16);
  for (int round = 0; round < 64; ++round) {
    ASSERT_TRUE(server->MultiGet(hot, out.data(), ServeRead()).AllOk());
    for (int i = 0; i < 16; ++i) scan[i] = 1000 + round * 16 + i;
    ASSERT_TRUE(server->MultiGet(scan, out.data(), ServeRead()).AllOk());
  }
  EXPECT_GT(Count(*server, "mlkv_cache_admission_rejects_total"), 0u)
      << "one-hit scan keys should bounce off admission";
  // The hot working set survived the scan: a fresh pass over it is
  // (almost) all cache hits. A handful of misses right after a sketch
  // aging are legitimate.
  const uint64_t hits = Count(*server, "mlkv_cache_hits_total");
  ASSERT_TRUE(server->MultiGet(hot, out.data(), ServeRead()).AllOk());
  EXPECT_GE(Count(*server, "mlkv_cache_hits_total") - hits, 12u);
}

}  // namespace
}  // namespace mlkv
