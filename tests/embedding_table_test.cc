#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <thread>
#include <vector>

#include "io/async_io.h"
#include "io/temp_dir.h"
#include "mlkv/mlkv.h"

namespace mlkv {
namespace {

MlkvOptions SmallMlkv(const TempDir& dir) {
  MlkvOptions o;
  o.dir = dir.File("db");
  o.index_slots = 4096;
  o.page_size = 4096;
  o.mem_size = 16 * 4096;
  o.lookahead_threads = 2;
  return o;
}

TEST(MlkvTest, OpenTableValidatesArguments) {
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(SmallMlkv(dir), &db).ok());
  EmbeddingTable* t = nullptr;
  EXPECT_TRUE(db->OpenTable("m", 0, 4, &t).IsInvalidArgument());
  ASSERT_TRUE(db->OpenTable("m", 8, 4, &t).ok());
  ASSERT_NE(t, nullptr);
  // Reopening with the same dim returns the same table.
  EmbeddingTable* t2 = nullptr;
  ASSERT_TRUE(db->OpenTable("m", 8, 4, &t2).ok());
  EXPECT_EQ(t, t2);
  // Different dim is an error.
  EXPECT_TRUE(db->OpenTable("m", 16, 4, &t2).IsInvalidArgument());
}

TEST(MlkvTest, GetOrInitIsDeterministicPerKey) {
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(SmallMlkv(dir), &db).ok());
  EmbeddingTable* t = nullptr;
  ASSERT_TRUE(db->OpenTable("emb", 16, kAspBound, &t).ok());
  std::vector<Key> keys = {1, 2, 3};
  std::vector<float> a(3 * 16), b(3 * 16);
  ASSERT_TRUE(t->GetOrInit(keys, a.data()).ok());
  ASSERT_TRUE(t->GetOrInit(keys, b.data()).ok());
  EXPECT_EQ(a, b) << "second fetch must return the stored vectors";
  // Init scale ~ 1/sqrt(dim).
  for (float v : a) {
    EXPECT_LE(std::fabs(v), 1.0f / std::sqrt(16.0f) + 1e-6f);
  }
  // Different keys get different vectors.
  EXPECT_NE(std::vector<float>(a.begin(), a.begin() + 16),
            std::vector<float>(a.begin() + 16, a.begin() + 32));
}

TEST(MlkvTest, PutThenGetRoundTrip) {
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(SmallMlkv(dir), &db).ok());
  EmbeddingTable* t = nullptr;
  ASSERT_TRUE(db->OpenTable("emb", 4, kAspBound, &t).ok());
  std::vector<Key> keys = {10, 20};
  std::vector<float> values = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(t->Put(keys, values.data()).ok());
  std::vector<float> out(8);
  ASSERT_TRUE(t->Get(keys, out.data()).ok());
  EXPECT_EQ(values, out);
}

TEST(MlkvTest, GetMissingKeyFails) {
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(SmallMlkv(dir), &db).ok());
  EmbeddingTable* t = nullptr;
  ASSERT_TRUE(db->OpenTable("emb", 4, kAspBound, &t).ok());
  Key k = 99;
  float out[4];
  EXPECT_TRUE(t->Get({&k, 1}, out).IsNotFound());
}

TEST(MlkvTest, ApplyGradientsIsSgdStep) {
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(SmallMlkv(dir), &db).ok());
  EmbeddingTable* t = nullptr;
  ASSERT_TRUE(db->OpenTable("emb", 4, kAspBound, &t).ok());
  std::vector<Key> keys = {1};
  std::vector<float> v = {1.0f, 2.0f, 3.0f, 4.0f};
  ASSERT_TRUE(t->Put(keys, v.data()).ok());
  std::vector<float> g = {0.5f, 0.5f, 0.5f, 0.5f};
  ASSERT_TRUE(t->ApplyGradients(keys, g.data(), /*lr=*/0.1f).ok());
  std::vector<float> out(4);
  ASSERT_TRUE(t->Get(keys, out.data()).ok());
  for (int d = 0; d < 4; ++d) EXPECT_FLOAT_EQ(out[d], v[d] - 0.05f);
}

TEST(MlkvTest, LookaheadPromotesColdKeysToMemory) {
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(SmallMlkv(dir), &db).ok());
  EmbeddingTable* t = nullptr;
  ASSERT_TRUE(db->OpenTable("emb", 16, kAspBound, &t).ok());
  // 4000 x 96B records >> 64 KiB buffer: early keys spill to disk.
  std::vector<float> v(16, 0.5f);
  std::vector<Key> all;
  for (Key k = 0; k < 4000; ++k) {
    ASSERT_TRUE(t->Put({&k, 1}, v.data()).ok());
    all.push_back(k);
  }
  std::vector<Key> cold = {0, 1, 2, 3, 4, 5, 6, 7};
  for (Key k : cold) ASSERT_FALSE(t->store()->IsInMemory(k)) << k;
  ASSERT_TRUE(t->Lookahead(cold).ok());
  t->WaitLookahead();
  for (Key k : cold) EXPECT_TRUE(t->store()->IsInMemory(k)) << k;
  EXPECT_GE(t->store()->stats().promotions, cold.size());
}

TEST(MlkvTest, LookaheadSubmitsFetchesBeforeReturning) {
  // The prefetch wave is submitted on the calling thread, so its reads are
  // queued on the engine ahead of whatever the caller does next, even when
  // every lookahead pool thread is busy. Only completion needs the pool.
  TempDir dir;
  MlkvOptions o = SmallMlkv(dir);
  o.index_slots = 1 << 16;  // no shared chains: one fetch per cold key
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(o, &db).ok());
  EmbeddingTable* t = nullptr;
  ASSERT_TRUE(db->OpenTable("emb", 16, kAspBound, &t).ok());
  std::vector<float> v(16, 0.5f);
  for (Key k = 0; k < 4000; ++k) {
    ASSERT_TRUE(t->Put({&k, 1}, v.data()).ok());
  }
  std::vector<Key> cold;
  for (Key k = 0; k < 32; ++k) {
    ASSERT_FALSE(t->store()->IsInMemory(k)) << k;
    cold.push_back(k);
  }

  // Occupy both pool threads until the latch opens.
  ThreadPool* pool = db->lookahead_pool();
  ASSERT_EQ(pool->num_threads(), 2u);
  std::promise<void> latch;
  std::shared_future<void> open = latch.get_future().share();
  std::atomic<int> held{0};
  for (size_t i = 0; i < pool->num_threads(); ++i) {
    ASSERT_TRUE(pool->Submit([&held, open] {
      held.fetch_add(1);
      open.wait();
    }));
  }
  while (held.load() < 2) std::this_thread::yield();

  const uint64_t submitted0 = db->io_engine()->stats().reads_submitted;
  const uint64_t promotions0 = t->store()->stats().promotions;
  EXPECT_TRUE(t->Lookahead(cold).ok());
  EXPECT_EQ(db->io_engine()->stats().reads_submitted - submitted0,
            cold.size());

  latch.set_value();
  t->WaitLookahead();
  EXPECT_EQ(t->store()->stats().promotions - promotions0, cold.size());
  for (Key k : cold) EXPECT_TRUE(t->store()->IsInMemory(k)) << k;
}

TEST(MlkvTest, LookaheadToApplicationCache) {
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(SmallMlkv(dir), &db).ok());
  EmbeddingTable* t = nullptr;
  ASSERT_TRUE(db->OpenTable("emb", 8, kAspBound, &t).ok());
  std::vector<float> v = {1, 2, 3, 4, 5, 6, 7, 8};
  Key k = 42;
  ASSERT_TRUE(t->Put({&k, 1}, v.data()).ok());
  EmbeddingCache cache(128, 8);
  ASSERT_TRUE(t->Lookahead({&k, 1},
                           EmbeddingTable::LookaheadDest::kApplicationCache,
                           &cache)
                  .ok());
  t->WaitLookahead();
  std::vector<float> out(8);
  ASSERT_TRUE(cache.Get(k, out.data()));
  EXPECT_EQ(out, v);
}

TEST(MlkvTest, CheckpointAllWritesFiles) {
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  const MlkvOptions o = SmallMlkv(dir);
  ASSERT_TRUE(Mlkv::Open(o, &db).ok());
  EmbeddingTable* t = nullptr;
  ASSERT_TRUE(db->OpenTable("emb", 4, kAspBound, &t).ok());
  std::vector<float> v = {1, 2, 3, 4};
  Key k = 1;
  ASSERT_TRUE(t->Put({&k, 1}, v.data()).ok());
  ASSERT_TRUE(db->CheckpointAll().ok());
  // Sharded layout: every shard checkpoints under its own directory.
  for (size_t s = 0; s < t->store()->num_shards(); ++s) {
    const std::string prefix = ShardedStore::ShardFilePath(
        o.dir + "/emb.ckpt", static_cast<uint32_t>(s),
        t->store()->shard_bits());
    EXPECT_TRUE(std::filesystem::exists(prefix + ".meta")) << prefix;
    EXPECT_TRUE(std::filesystem::exists(prefix + ".idx3")) << prefix;
  }
}


TEST(MlkvTest, LookaheadNeverAdvancesStalenessClocks) {
  // Regression: the application-cache Lookahead path must use Peek, not a
  // tracked Read. A tracked prefetch would raise each record's staleness
  // clock with no matching Put, eventually starving bounded Gets
  // (paper §III-C2: lookahead leaves the vector clocks untouched).
  TempDir dir;
  MlkvOptions o = SmallMlkv(dir);
  o.busy_spin_limit = 1 << 10;  // fail fast if a Get would starve
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(o, &db).ok());
  EmbeddingTable* t = nullptr;
  // Bound 0 (BSP): any stray increment makes the next Get spin.
  ASSERT_TRUE(db->OpenTable("emb", 8, kBspBound, &t).ok());
  Key key = 42;
  std::vector<float> v(8, 1.0f);
  ASSERT_TRUE(t->Put({&key, 1}, v.data()).ok());

  EmbeddingCache cache(64, 8);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(t->Lookahead({&key, 1},
                             EmbeddingTable::LookaheadDest::kApplicationCache,
                             &cache)
                    .ok());
  }
  t->WaitLookahead();
  // Storage-buffer lookahead must not touch clocks either.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(t->Lookahead({&key, 1}).ok());
  }
  t->WaitLookahead();
  ASSERT_TRUE(t->Get({&key, 1}, v.data()).ok())
      << "prefetches must not consume the staleness budget";
  ASSERT_TRUE(t->Put({&key, 1}, v.data()).ok());
}

// A table over a store with staleness tracking off (the FASTER baseline's
// shape) runs its tracked batched reads untracked: no Put on such a store
// would ever lower a count, so reads repeated without one must stay
// admitted even at bound 0, on the memory-resident pipeline path too.
TEST(MlkvTest, UntrackedStoreNeverWaitsOnBatchedReads) {
  TempDir dir;
  AsyncIoEngine io;
  ShardedStoreOptions so;
  so.store.path = dir.File("plain.log");
  so.store.index_slots = 4096;
  so.store.page_size = 4096;
  so.store.mem_size = 16 * 4096;
  so.store.track_staleness = false;
  so.store.busy_spin_limit = 64;  // a wait would abort fast with Busy
  so.store.io = &io;
  so.io = &io;
  auto store = std::make_unique<ShardedStore>();
  ASSERT_TRUE(store->Open(so).ok());
  EmbeddingTable table("plain", 4, kBspBound, std::move(store),
                       /*lookahead_pool=*/nullptr);
  const std::vector<Key> keys = {1, 2};
  std::vector<float> out(keys.size() * 4);
  for (int round = 0; round < 5; ++round) {
    BatchResult r;
    ASSERT_TRUE(table.GetOrInit(keys, out.data(), &r).ok());
    EXPECT_EQ(r.busy, 0u) << "round " << round;
    EXPECT_TRUE(r.AllOk()) << "round " << round;
  }
  EXPECT_EQ(table.store()->stats().staleness_waits, 0u);
}

TEST(EmbeddingCacheTest, LruEvictsOldest) {
  EmbeddingCache cache(/*capacity=*/16, /*dim=*/2, /*shards=*/1);
  float v[2] = {1, 2};
  for (Key k = 0; k < 20; ++k) cache.Put(k, v);
  EXPECT_LE(cache.size(), 16u);
  float out[2];
  EXPECT_FALSE(cache.Get(0, out)) << "oldest entries must be evicted";
  EXPECT_TRUE(cache.Get(19, out));
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(EmbeddingCacheTest, GetRefreshesRecency) {
  EmbeddingCache cache(4, 1, 1);
  float v[1] = {9};
  for (Key k = 0; k < 4; ++k) cache.Put(k, v);
  float out[1];
  ASSERT_TRUE(cache.Get(0, out));  // refresh key 0
  cache.Put(100, v);               // evicts key 1, not key 0
  EXPECT_TRUE(cache.Get(0, out));
  EXPECT_FALSE(cache.Get(1, out));
}

TEST(EmbeddingCacheTest, ConcurrentAccessIsSafe) {
  EmbeddingCache cache(1024, 4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      float v[4] = {float(t), 0, 0, 0};
      float out[4];
      for (int i = 0; i < 10000; ++i) {
        cache.Put(i % 500, v);
        cache.Get((i * 7) % 500, out);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(cache.size(), 1024u);
}

}  // namespace
}  // namespace mlkv
