// ShardedStore tests: routing, scatter/gather caller-order mapping, the
// shard_bits=0 single-store equivalence, budget splitting, and recovery
// from the per-shard directory layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "io/temp_dir.h"
#include "kv/sharded_store.h"
#include "store_metrics.h"

namespace mlkv {
namespace {

ShardedStoreOptions SmallSharded(const TempDir& dir, uint32_t shard_bits,
                                 ThreadPool* pool = nullptr) {
  ShardedStoreOptions o;
  o.store.path = dir.File("store.log");
  o.store.index_slots = 1024;
  o.store.page_size = 4096;
  o.store.mem_size = 64 * 4096;
  o.shard_bits = shard_bits;
  o.pool = pool;
  return o;
}

uint64_t ValueFor(Key key) { return key * 2654435761ull + 7; }

// The ShardOp used throughout: store/read fixed-width uint64 values.
ShardedStore::ShardOp UpsertOp(const std::vector<uint64_t>& values) {
  return [&values](FasterStore* shard, Key key, size_t i, BatchResult* part,
                   size_t pi) {
    part->Record(pi, shard->Upsert(key, &values[i], sizeof(uint64_t)));
  };
}

ShardedStore::ShardOp ReadOp(std::vector<uint64_t>* out) {
  return [out](FasterStore* shard, Key key, size_t i, BatchResult* part,
               size_t pi) {
    part->Record(pi, shard->Read(key, &(*out)[i], sizeof(uint64_t)));
  };
}

TEST(ShardedStoreTest, RoutingMatchesSharedHelper) {
  TempDir dir;
  ShardedStore store;
  ASSERT_TRUE(store.Open(SmallSharded(dir, 3)).ok());
  ASSERT_EQ(store.num_shards(), 8u);
  for (Key k = 0; k < 1000; ++k) {
    EXPECT_EQ(store.ShardIndexOf(k), ShardOf(Hash64(k), 7));
    EXPECT_EQ(store.ShardFor(k), store.shard(store.ShardIndexOf(k)));
  }
}

TEST(ShardedStoreTest, RejectsOversizedShardBits) {
  TempDir dir;
  ShardedStore store;
  EXPECT_TRUE(store.Open(SmallSharded(dir, 9)).IsInvalidArgument());
  EXPECT_TRUE(store.Open(SmallSharded(dir, 8)).ok());
}

// BatchResult sinks must land in caller order no matter how the shuffled
// keys scatter across shards — including codes for missing keys.
TEST(ShardedStoreTest, CallerOrderUnderShuffledKeys) {
  TempDir dir;
  ThreadPool pool(2);
  ShardedStore store;
  ASSERT_TRUE(store.Open(SmallSharded(dir, 2, &pool)).ok());

  constexpr size_t kN = 512;
  std::vector<Key> keys(kN);
  std::vector<uint64_t> values(kN);
  for (size_t i = 0; i < kN; ++i) {
    keys[i] = static_cast<Key>(i * 13 + 1);
    values[i] = ValueFor(keys[i]);
  }
  Rng rng(42);
  for (size_t i = kN - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.Next() % (i + 1)]);
  }
  for (size_t i = 0; i < kN; ++i) values[i] = ValueFor(keys[i]);

  BatchResult put;
  store.MultiExecute(keys, UpsertOp(values), &put);
  ASSERT_TRUE(put.AllOk());
  EXPECT_EQ(put.found, kN);

  // Interleave present and absent keys; absent ones must read NotFound at
  // exactly their caller positions.
  std::vector<Key> probe;
  for (size_t i = 0; i < kN; ++i) {
    probe.push_back(keys[i]);
    if (i % 3 == 0) probe.push_back(keys[i] + 1000000000ull);  // never stored
  }
  std::vector<uint64_t> out(probe.size(), 0);
  BatchResult got;
  store.MultiExecute(probe, ReadOp(&out), &got);
  size_t missing = 0;
  for (size_t i = 0; i < probe.size(); ++i) {
    if (probe[i] >= 1000000000ull) {
      EXPECT_EQ(got.codes[i], Status::Code::kNotFound) << i;
      ++missing;
    } else {
      ASSERT_EQ(got.codes[i], Status::Code::kOk) << i;
      EXPECT_EQ(out[i], ValueFor(probe[i])) << i;
    }
  }
  EXPECT_EQ(got.missing, missing);
  EXPECT_EQ(got.found, probe.size() - missing);
}

// Sub-batches shorter than kParallelMinKeys never recruit a pool worker:
// with a pool present and every shard holding work, each ShardOp of such a
// batch still runs on the calling thread.
TEST(ShardedStoreTest, SmallSubBatchesRunOnCallingThread) {
  TempDir dir;
  ThreadPool pool(3);
  ShardedStore store;
  ASSERT_TRUE(store.Open(SmallSharded(dir, 2, &pool)).ok());

  // Exactly kParallelMinKeys - 1 keys per shard, interleaved across shards.
  constexpr size_t kPerShard = ShardedStore::kParallelMinKeys - 1;
  std::vector<std::vector<Key>> by_shard(store.num_shards());
  size_t full = 0;
  for (Key k = 0; full < by_shard.size(); ++k) {
    std::vector<Key>& bucket = by_shard[store.ShardIndexOf(k)];
    if (bucket.size() == kPerShard) continue;
    bucket.push_back(k);
    if (bucket.size() == kPerShard) ++full;
  }
  std::vector<Key> keys;
  for (size_t j = 0; j < kPerShard; ++j) {
    for (const auto& bucket : by_shard) keys.push_back(bucket[j]);
  }
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = ValueFor(keys[i]);

  std::mutex mu;
  std::vector<std::thread::id> ran_on;
  const ShardedStore::ShardOp upsert = UpsertOp(values);
  const ShardedStore::ShardOp recording =
      [&](FasterStore* shard, Key key, size_t i, BatchResult* part,
          size_t pi) {
        {
          std::lock_guard<std::mutex> lk(mu);
          ran_on.push_back(std::this_thread::get_id());
        }
        upsert(shard, key, i, part, pi);
      };
  for (int round = 0; round < 20; ++round) {
    BatchResult put;
    store.MultiExecute(keys, recording, &put);
    ASSERT_TRUE(put.AllOk());
  }
  ASSERT_EQ(ran_on.size(), 20 * keys.size());
  for (const std::thread::id id : ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

// Adversarial skew: every key routes to one shard; the batch must still
// complete correctly (the other sub-batches are empty).
TEST(ShardedStoreTest, AllKeysHashToOneShard) {
  TempDir dir;
  ThreadPool pool(2);
  ShardedStore store;
  ASSERT_TRUE(store.Open(SmallSharded(dir, 2, &pool)).ok());

  const size_t target = 2;
  std::vector<Key> keys;
  for (Key k = 0; keys.size() < 300; ++k) {
    if (store.ShardIndexOf(k) == target) keys.push_back(k);
  }
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) values[i] = ValueFor(keys[i]);

  BatchResult put;
  store.MultiExecute(keys, UpsertOp(values), &put);
  ASSERT_TRUE(put.AllOk());

  std::vector<uint64_t> out(keys.size(), 0);
  BatchResult got;
  store.MultiExecute(keys, ReadOp(&out), &got);
  ASSERT_TRUE(got.AllOk());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(out[i], ValueFor(keys[i]));
  }
  // Only the target shard saw traffic, and the store labels each shard's
  // samples with that shard's index.
  const obs::MetricsSink sink = StoreSamples(store);
  for (size_t s = 0; s < store.num_shards(); ++s) {
    const std::string shard = std::to_string(s);
    EXPECT_EQ(MetricSum(sink, "mlkv_shard_ops_total",
                        {{"shard", shard}, {"op", "upsert"}}),
              s == target ? keys.size() : 0u);
    EXPECT_EQ(MetricSum(sink, "mlkv_store_inserts_total", {{"shard", shard}}),
              s == target ? keys.size() : 0u);
  }
}

// shard_bits=0 must behave exactly like a bare FasterStore: same results,
// same single-file on-disk layout, no shard directories.
TEST(ShardedStoreTest, ShardBitsZeroMatchesSingleStore) {
  TempDir sharded_dir, plain_dir;
  ShardedStore store;
  ASSERT_TRUE(store.Open(SmallSharded(sharded_dir, 0)).ok());
  ASSERT_EQ(store.num_shards(), 1u);

  FasterStore plain;
  {
    FasterOptions o = SmallSharded(plain_dir, 0).store;
    o.path = plain_dir.File("store.log");
    ASSERT_TRUE(plain.Open(o).ok());
  }

  constexpr size_t kN = 400;
  std::vector<Key> keys(kN);
  std::vector<uint64_t> values(kN);
  for (size_t i = 0; i < kN; ++i) {
    keys[i] = static_cast<Key>(i * 7);
    values[i] = ValueFor(keys[i]);
    ASSERT_TRUE(plain.Upsert(keys[i], &values[i], sizeof(uint64_t)).ok());
  }
  BatchResult put;
  store.MultiExecute(keys, UpsertOp(values), &put);
  ASSERT_TRUE(put.AllOk());

  for (size_t i = 0; i < kN; ++i) {
    uint64_t a = 0, b = 0;
    ASSERT_TRUE(store.Read(keys[i], &a, sizeof(a)).ok());
    ASSERT_TRUE(plain.Read(keys[i], &b, sizeof(b)).ok());
    EXPECT_EQ(a, b);
  }

  // Identical telemetry and layout: one log file at the configured path,
  // no shard-NN directories anywhere.
  EXPECT_EQ(StoreMetric(store, "mlkv_store_inserts_total"),
            StoreMetric(plain, "mlkv_store_inserts_total"));
  EXPECT_EQ(store.log_tail_total(), plain.log().tail());
  EXPECT_TRUE(std::filesystem::exists(sharded_dir.path() + "/store.log"));
  for (const auto& entry :
       std::filesystem::directory_iterator(sharded_dir.path())) {
    EXPECT_FALSE(entry.is_directory()) << entry.path();
  }

  // Checkpoints land at the plain prefix too.
  ASSERT_TRUE(store.Checkpoint(sharded_dir.path() + "/c").ok());
  EXPECT_TRUE(std::filesystem::exists(sharded_dir.path() + "/c.meta"));
  EXPECT_TRUE(std::filesystem::exists(sharded_dir.path() + "/c.idx3"));
}

// Budget split: each shard receives mem_size >> bits and index_slots >>
// bits (its HashIndex then rounds up to a power of two).
TEST(ShardedStoreTest, SplitsBudgetsAcrossShards) {
  TempDir dir;
  ShardedStore store;
  ShardedStoreOptions o = SmallSharded(dir, 2);
  o.store.index_slots = 4096;
  ASSERT_TRUE(store.Open(o).ok());
  for (size_t s = 0; s < store.num_shards(); ++s) {
    EXPECT_EQ(store.shard(s)->index_slots(), 1024u);
    EXPECT_EQ(store.shard(s)->options().mem_size, o.store.mem_size / 4);
  }
  EXPECT_EQ(store.index_slots(), 4096u);
}

TEST(ShardedStoreTest, RecoversFromPerShardCheckpointLayout) {
  TempDir dir;
  const std::string prefix = dir.path() + "/ckpt";
  constexpr size_t kN = 600;
  std::vector<Key> keys(kN);
  std::vector<uint64_t> values(kN);
  for (size_t i = 0; i < kN; ++i) {
    keys[i] = static_cast<Key>(i * 31 + 5);
    values[i] = ValueFor(keys[i]);
  }
  {
    ShardedStore store;
    ASSERT_TRUE(store.Open(SmallSharded(dir, 2)).ok());
    BatchResult put;
    store.MultiExecute(keys, UpsertOp(values), &put);
    ASSERT_TRUE(put.AllOk());
    ASSERT_TRUE(store.Checkpoint(prefix).ok());
  }
  // Each shard checkpointed under its own directory.
  for (uint32_t s = 0; s < 4; ++s) {
    const std::string p = ShardedStore::ShardFilePath(prefix, s, 2);
    EXPECT_TRUE(std::filesystem::exists(p + ".meta")) << p;
    EXPECT_TRUE(std::filesystem::exists(p + ".idx3")) << p;
  }
  ShardedStoreOptions probe;
  probe.shard_bits = 2;
  ASSERT_TRUE(ShardedStore::CheckpointExists(probe, prefix));

  ShardedStore recovered;
  ASSERT_TRUE(recovered.Recover(SmallSharded(dir, 2), prefix).ok());
  std::vector<uint64_t> out(kN, 0);
  BatchResult got;
  recovered.MultiExecute(keys, ReadOp(&out), &got);
  ASSERT_TRUE(got.AllOk());
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(out[i], values[i]);
}

// A single-shard store runs a large batch as one sequential pass in caller
// order, even with a pool: it round-trips, and duplicate-key writes keep
// their last-occurrence-wins resolution.
TEST(ShardedStoreTest, SingleShardRoundTripsAndKeepsDuplicateOrder) {
  TempDir dir;
  ThreadPool pool(3);
  ShardedStore store;
  ASSERT_TRUE(store.Open(SmallSharded(dir, 0, &pool)).ok());

  constexpr size_t kN = 512;
  std::vector<Key> keys(kN);
  std::vector<uint64_t> values(kN);
  for (size_t i = 0; i < kN; ++i) {
    keys[i] = static_cast<Key>(i);
    values[i] = ValueFor(keys[i]);
  }
  BatchResult put;
  store.MultiExecute(keys, UpsertOp(values), &put);
  ASSERT_TRUE(put.AllOk());
  std::vector<uint64_t> out(kN, 0);
  BatchResult got;
  store.MultiExecute(keys, ReadOp(&out), &got);
  ASSERT_TRUE(got.AllOk());
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(out[i], values[i]);

  // Every occurrence writes the same key: the batch must resolve to the
  // LAST occurrence's value.
  std::vector<Key> dupes(kN, Key{7});
  std::vector<uint64_t> dupe_values(kN);
  for (size_t i = 0; i < kN; ++i) dupe_values[i] = i;
  store.MultiExecute(dupes, UpsertOp(dupe_values), &put);
  ASSERT_TRUE(put.AllOk());
  uint64_t v = 0;
  ASSERT_TRUE(store.Read(Key{7}, &v, sizeof(v)).ok());
  EXPECT_EQ(v, kN - 1);
}

// A partial sharded checkpoint (some shards written, no commit marker) is
// not a checkpoint: CheckpointExists must stay false until the marker
// lands, so recovery never sees a half-written set of shard files.
TEST(ShardedStoreTest, PartialCheckpointIsNotACheckpoint) {
  TempDir dir;
  const std::string prefix = dir.path() + "/ckpt";
  ShardedStore store;
  ASSERT_TRUE(store.Open(SmallSharded(dir, 2)).ok());
  const uint64_t v = 5;
  ASSERT_TRUE(store.Upsert(1, &v, sizeof(v)).ok());
  ShardedStoreOptions probe;
  probe.shard_bits = 2;
  EXPECT_FALSE(ShardedStore::CheckpointExists(probe, prefix));
  ASSERT_TRUE(store.Checkpoint(prefix).ok());
  EXPECT_TRUE(ShardedStore::CheckpointExists(probe, prefix));
  // Simulate a crash that wrote shard files but not the commit marker.
  std::filesystem::remove(prefix + ".shards");
  EXPECT_FALSE(ShardedStore::CheckpointExists(probe, prefix));
}

// stop_on_error: a single-shard store stops exactly at the first problem
// (the fail-fast contract of the sink-less span APIs).
TEST(ShardedStoreTest, StopOnErrorHaltsSubBatch) {
  TempDir dir;
  ShardedStore store;
  ASSERT_TRUE(store.Open(SmallSharded(dir, 0)).ok());
  const uint64_t v = 1;
  ASSERT_TRUE(store.Upsert(1, &v, sizeof(v)).ok());
  ASSERT_TRUE(store.Upsert(2, &v, sizeof(v)).ok());
  std::vector<Key> keys = {1, 999, 2};  // 999 was never stored
  std::vector<uint64_t> out(keys.size(), 0);
  BatchResult r;
  store.MultiExecute(keys, ReadOp(&out), &r, /*stop_on_error=*/true);
  EXPECT_EQ(r.codes[0], Status::Code::kOk);
  EXPECT_EQ(r.codes[1], Status::Code::kNotFound);
  // Key 2 was never attempted: the store's read count stops at two.
  EXPECT_EQ(StoreMetric(store, "mlkv_shard_ops_total", {{"op", "read"}}), 2u);
}

}  // namespace
}  // namespace mlkv
