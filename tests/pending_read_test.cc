// Two-phase pending-read pipeline tests (kv/pending_read.h): byte-for-byte
// equivalence with the blocking path on a cold working set, duplicate-cold-key
// coalescing, a compaction deterministically racing an in-flight read,
// staleness-bound fallbacks, injected device failures surfacing as per-key
// codes without poisoning batch siblings, and drain-on-close.
#include "kv/pending_read.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "backend/kv_backend.h"
#include "io/async_io.h"
#include "io/faulty_file_device.h"
#include "io/temp_dir.h"
#include "kv/faster_store.h"
#include "kv/sharded_store.h"
#include "mlkv/embedding_init.h"
#include "mlkv/mlkv.h"
#include "obs/metrics.h"

namespace mlkv {
namespace {

constexpr uint32_t kValueBytes = 32;

void FillValue(Key key, char* out) {
  for (uint32_t i = 0; i < kValueBytes; ++i) {
    out[i] = static_cast<char>((key * 31 + i) & 0xFF);
  }
}

// A sharded store with a tiny memory budget so most of `num_keys` end up
// disk-resident after the load.
ShardedStoreOptions ColdStoreOptions(const std::string& path,
                                     uint32_t shard_bits,
                                     AsyncIoEngine* io) {
  ShardedStoreOptions o;
  o.store.path = path;
  o.store.index_slots = 4096;
  o.store.mem_size = 1u << 16;  // 64 KiB total: a few hundred records hot
  o.store.page_size = 1u << 12;
  o.shard_bits = shard_bits;
  o.io = io;
  return o;
}

void LoadKeys(ShardedStore* store, uint64_t num_keys) {
  char value[kValueBytes];
  for (Key k = 0; k < num_keys; ++k) {
    FillValue(k, value);
    ASSERT_TRUE(store->Upsert(k, value, kValueBytes).ok());
  }
}

// The Get-shaped read op the embedding layer builds, reduced to raw bytes:
// phase-1 resolve or park, untracked.
ShardedStore::ShardReadOp RawReadOp(char* out, uint32_t stride) {
  return [out, stride](FasterStore* shard, Key key, size_t i,
                       BatchResult* part, size_t pi, PendingSink* sink) {
    char* dst = out + i * stride;
    if (sink == nullptr) {
      part->Record(pi, shard->Read(key, dst, stride));
      return;
    }
    PendingRead p;
    if (shard->StartRead(key, dst, stride, nullptr, UINT32_MAX,
                         /*tracked=*/false, &p)) {
      part->Record(pi, p.status);
      return;
    }
    sink->Park(shard, std::move(p), [part, pi](PendingRead* done) {
      part->Record(pi, done->status);
    });
  };
}

TEST(PendingReadTest, ColdBatchMatchesSyncByteForByte) {
  constexpr uint64_t kKeys = 2000;
  TempDir sync_dir, async_dir;
  AsyncIoEngine engine;

  ShardedStore sync_store, async_store;
  ASSERT_TRUE(
      sync_store.Open(ColdStoreOptions(sync_dir.File("s.log"), 2, nullptr))
          .ok());
  ASSERT_TRUE(
      async_store.Open(ColdStoreOptions(async_dir.File("a.log"), 2, &engine))
          .ok());
  LoadKeys(&sync_store, kKeys);
  LoadKeys(&async_store, kKeys);

  // Mixed batch: cold keys, hot keys, missing keys, strided order.
  std::vector<Key> keys;
  for (uint64_t i = 0; i < 256; ++i) keys.push_back((i * 37) % kKeys);
  keys.push_back(kKeys + 5);  // never stored
  keys.push_back(3);
  keys.push_back(kKeys + 9);  // never stored

  std::vector<char> sync_out(keys.size() * kValueBytes, 0);
  std::vector<char> async_out(keys.size() * kValueBytes, 0);
  BatchResult sync_r, async_r;
  sync_store.MultiExecuteRead(keys, RawReadOp(sync_out.data(), kValueBytes),
                              &sync_r);
  async_store.MultiExecuteRead(keys, RawReadOp(async_out.data(), kValueBytes),
                               &async_r);

  ASSERT_EQ(sync_r.codes.size(), async_r.codes.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(sync_r.codes[i], async_r.codes[i]) << "key " << keys[i];
    if (sync_r.codes[i] == Status::Code::kOk) {
      EXPECT_EQ(std::memcmp(&sync_out[i * kValueBytes],
                            &async_out[i * kValueBytes], kValueBytes),
                0)
          << "key " << keys[i];
    }
  }
  EXPECT_EQ(sync_r.found, async_r.found);
  EXPECT_EQ(sync_r.missing, async_r.missing);
  // The async store actually used the pipeline (the working set is cold),
  // and the sync store never did.
  EXPECT_GT(async_store.stats().async_reads_submitted, 0u);
  EXPECT_EQ(sync_store.stats().async_reads_submitted, 0u);
  EXPECT_EQ(async_store.stats().async_reads_submitted,
            async_store.stats().async_reads_completed);
}

TEST(PendingReadTest, CollisionChainsHopOnDeviceAndFallBackPastBudget) {
  // An index far smaller than the key count: every bucket is full, so most
  // keys share an overflow chain with dozens of others. Pending reads then
  // hop through other keys' cold records and, past the hop budget, finish
  // on the blocking walk — with results identical to the blocking path.
  constexpr uint64_t kKeys = 2000;
  TempDir sync_dir, async_dir;
  AsyncIoEngine engine;
  ShardedStoreOptions sync_opts =
      ColdStoreOptions(sync_dir.File("s.log"), 0, nullptr);
  ShardedStoreOptions async_opts =
      ColdStoreOptions(async_dir.File("a.log"), 0, &engine);
  sync_opts.store.index_slots = ShardedStore::kMinShardIndexSlots;
  async_opts.store.index_slots = ShardedStore::kMinShardIndexSlots;
  ShardedStore sync_store, async_store;
  ASSERT_TRUE(sync_store.Open(sync_opts).ok());
  ASSERT_TRUE(async_store.Open(async_opts).ok());
  LoadKeys(&sync_store, kKeys);
  LoadKeys(&async_store, kKeys);
  const uint64_t load_hops = async_store.stats().chain_hops;

  std::vector<Key> keys;
  for (uint64_t i = 0; i < 256; ++i) keys.push_back((i * 37) % kKeys);
  keys.push_back(kKeys + 5);  // never stored: walks a whole chain
  std::vector<char> sync_out(keys.size() * kValueBytes, 0);
  std::vector<char> async_out(keys.size() * kValueBytes, 0);
  BatchResult sync_r, async_r;
  sync_store.MultiExecuteRead(keys, RawReadOp(sync_out.data(), kValueBytes),
                              &sync_r);
  async_store.MultiExecuteRead(keys, RawReadOp(async_out.data(), kValueBytes),
                               &async_r);
  ASSERT_EQ(sync_r.codes, async_r.codes);
  EXPECT_EQ(sync_out, async_out);
  EXPECT_EQ(async_r.missing, 1u);

  const FasterStatsSnapshot s = async_store.stats();
  EXPECT_GT(s.async_reads_submitted, 0u);
  EXPECT_GT(s.chain_hops, load_hops);      // hops during the batch...
  EXPECT_GT(s.async_reads_refetched, 0u);  // ...and past kMaxPendingHops
  EXPECT_GT(sync_store.stats().chain_hops, 0u);  // and on the blocking walk
}

TEST(PendingReadTest, DuplicateColdKeysCoalesceIntoOneIo) {
  constexpr uint64_t kKeys = 1500;
  TempDir dir;
  AsyncIoEngine engine;
  ShardedStore store;
  // shard_bits 0: all duplicates land in one shard's sub-batch.
  ASSERT_TRUE(
      store.Open(ColdStoreOptions(dir.File("c.log"), 0, &engine)).ok());
  LoadKeys(&store, kKeys);

  // One definitely-cold key, repeated; plus one other cold key.
  const Key cold = 7;
  std::vector<Key> keys(16, cold);
  keys.push_back(11);
  std::vector<char> out(keys.size() * kValueBytes, 0);
  BatchResult r;
  store.MultiExecuteRead(keys, RawReadOp(out.data(), kValueBytes), &r);

  char expected[kValueBytes];
  FillValue(cold, expected);
  for (size_t i = 0; i < 16; ++i) {
    ASSERT_EQ(r.codes[i], Status::Code::kOk);
    EXPECT_EQ(std::memcmp(&out[i * kValueBytes], expected, kValueBytes), 0);
  }
  FillValue(11, expected);
  EXPECT_EQ(std::memcmp(&out[16 * kValueBytes], expected, kValueBytes), 0);
  const FasterStatsSnapshot s = store.stats();
  // 17 key instances, 2 distinct cold records: at most 2 I/Os (+ hash-chain
  // hops, which an index of 4096 slots over 1500 keys makes rare).
  EXPECT_GT(s.async_reads_submitted, 0u);
  EXPECT_LE(s.async_reads_submitted, 4u);
}

TEST(PendingReadTest, CompactionRacingInFlightReadFallsBackToRefetch) {
  constexpr uint64_t kKeys = 1200;
  TempDir dir;
  AsyncIoEngine engine;
  ShardedStore sharded;
  ASSERT_TRUE(
      sharded.Open(ColdStoreOptions(dir.File("r.log"), 0, &engine)).ok());
  LoadKeys(&sharded, kKeys);
  FasterStore* store = sharded.shard(0);

  // Phase 1 parks a cold key...
  const Key victim = 3;
  char out[kValueBytes] = {0};
  PendingRead p;
  ASSERT_FALSE(store->StartRead(victim, out, kValueBytes, nullptr, UINT32_MAX,
                                /*tracked=*/false, &p));
  // ...then compaction reclaims the whole cold region before the "I/O"
  // completes: the parked address is now below the begin boundary and its
  // live version was republished at the tail.
  ASSERT_TRUE(sharded.CompactAll().ok());
  ASSERT_GT(store->log().begin_address(), p.address);

  PendingSink sink;
  Status final_status;
  sink.Park(store, std::move(p), [&final_status](PendingRead* done) {
    final_status = done->status;
  });
  PendingReadWave wave(&engine);
  wave.Adopt(&sink);
  wave.CompleteAll();

  ASSERT_TRUE(final_status.ok()) << final_status.ToString();
  char expected[kValueBytes];
  FillValue(victim, expected);
  EXPECT_EQ(std::memcmp(out, expected, kValueBytes), 0);
  EXPECT_GE(store->stats().async_reads_refetched, 1u);
}

TEST(PendingReadTest, PromotionInvalidatedInFlightSkipsCleanly) {
  // Regression: a StartPromote fetch has no caller output buffer; when the
  // record moves mid-flight (compaction here), the completion must skip
  // the promotion — not fall into the buffer-refilling refetch path.
  constexpr uint64_t kKeys = 1200;
  TempDir dir;
  AsyncIoEngine engine;
  ShardedStore sharded;
  ASSERT_TRUE(
      sharded.Open(ColdStoreOptions(dir.File("p.log"), 0, &engine)).ok());
  LoadKeys(&sharded, kKeys);
  FasterStore* store = sharded.shard(0);

  PendingRead p;
  bool parked = false;
  ASSERT_TRUE(store->StartPromote(5, kValueBytes, &p, &parked).ok());
  ASSERT_TRUE(parked);
  ASSERT_TRUE(sharded.CompactAll().ok());
  ASSERT_GT(store->log().begin_address(), p.address);

  const uint64_t skipped_before = store->stats().promotions_skipped;
  PendingSink sink;
  sink.Park(store, std::move(p), nullptr);
  PendingReadWave wave(&engine);
  wave.Adopt(&sink);
  wave.CompleteAll();
  EXPECT_GT(store->stats().promotions_skipped, skipped_before);
  // The key still reads correctly afterwards.
  char out[kValueBytes], expected[kValueBytes];
  ASSERT_TRUE(store->Read(5, out, kValueBytes).ok());
  FillValue(5, expected);
  EXPECT_EQ(std::memcmp(out, expected, kValueBytes), 0);
}

TEST(PendingReadTest, LookaheadCountsEachPresentKeyOnce) {
  // A Lookahead wave over every kind of key: each present one lands in
  // exactly one of promotions / promotions_skipped, and an absent one in
  // neither (kv.prefetch_useful_ratio is built from these two counters).
  constexpr uint64_t kKeys = 1200;
  TempDir dir;
  AsyncIoEngine engine;
  ShardedStore sharded;
  ASSERT_TRUE(
      sharded.Open(ColdStoreOptions(dir.File("c.log"), 0, &engine)).ok());
  LoadKeys(&sharded, kKeys);
  FasterStore* store = sharded.shard(0);
  const HybridLog& log = store->log();
  const auto address_of = [store](Key k) {
    RecordMeta meta;
    Address a = kInvalidAddress;
    EXPECT_TRUE(store->PeekMeta(k, &meta, &a).ok()) << "key " << k;
    return a;
  };

  const Key mutable_key = kKeys - 1;
  ASSERT_GE(address_of(mutable_key), log.read_only_address());
  Key read_only_key = kKeys;
  for (Key k = kKeys - 1; k > 0 && read_only_key == kKeys; --k) {
    const Address a = address_of(k);
    if (a < log.read_only_address() && a >= log.head_address()) {
      read_only_key = k;
    }
  }
  ASSERT_LT(read_only_key, kKeys) << "no read-only-resident key";
  const Key moved = 5, disk_a = 10, disk_b = 11;
  for (const Key k : {moved, disk_a, disk_b}) {
    ASSERT_LT(address_of(k), log.head_address()) << "key " << k;
  }
  const Key absent = kKeys + 7;

  const FasterStatsSnapshot before = store->stats();
  PendingSink sink;
  size_t parked_keys = 0;
  for (const Key k :
       {mutable_key, read_only_key, moved, disk_a, disk_b, absent}) {
    PendingRead p;
    bool parked = false;
    const Status s = store->StartPromote(k, kValueBytes, &p, &parked);
    EXPECT_EQ(s.IsNotFound(), k == absent) << "key " << k;
    if (!parked) continue;
    ++parked_keys;
    sink.Park(store, std::move(p), nullptr);
  }
  EXPECT_EQ(parked_keys, 3u);
  // Compaction moves `moved` (but not the keys above it) while in flight.
  const Address until = address_of(moved) + Record::SizeFor(kValueBytes);
  ASSERT_LT(until, address_of(disk_a));
  ASSERT_TRUE(store->Compact(until).ok());
  ASSERT_GE(log.begin_address(), until);
  PendingReadWave wave(&engine);
  wave.Adopt(&sink);
  wave.CompleteAll();

  const FasterStatsSnapshot after = store->stats();
  EXPECT_EQ(after.promotions - before.promotions, 2u);  // disk_a, disk_b
  EXPECT_EQ(after.promotions_skipped - before.promotions_skipped, 3u);
  EXPECT_TRUE(store->IsInMemory(disk_a));
  EXPECT_TRUE(store->IsInMemory(disk_b));
  for (const Key k : {mutable_key, read_only_key, moved, disk_a, disk_b}) {
    char out[kValueBytes], expected[kValueBytes];
    ASSERT_TRUE(store->Peek(k, out, kValueBytes).ok()) << "key " << k;
    FillValue(k, expected);
    EXPECT_EQ(std::memcmp(out, expected, kValueBytes), 0) << "key " << k;
  }
}

TEST(PendingReadTest, StalenessBoundFallsBackToBlockingProtocol) {
  TempDir dir;
  AsyncIoEngine engine;
  ShardedStoreOptions o = ColdStoreOptions(dir.File("b.log"), 0, &engine);
  o.store.track_staleness = true;
  o.store.staleness_bound = 0;       // BSP
  o.store.busy_spin_limit = 16;      // abort fast in the fallback
  ShardedStore sharded;
  ASSERT_TRUE(sharded.Open(o).ok());
  FasterStore* store = sharded.shard(0);

  // Raise one key's staleness while it is still mutable, then bury it so
  // the stale counter freezes on disk.
  char value[kValueBytes];
  FillValue(42, value);
  ASSERT_TRUE(store->Upsert(42, value, kValueBytes).ok());
  char buf[kValueBytes];
  for (int i = 0; i < 3; ++i) {  // tracked reads: staleness -> 3
    ASSERT_TRUE(
        store->Read(42, buf, kValueBytes, nullptr, UINT32_MAX - 2).ok());
  }
  for (Key filler = 1000; filler < 3000; ++filler) {
    FillValue(filler, value);
    ASSERT_TRUE(store->Upsert(filler, value, kValueBytes).ok());
  }
  ASSERT_FALSE(store->IsInMemory(42));

  // Async tracked read under BSP: the landed record fails the bound, the
  // fallback re-read spins out, and the key reports Busy — exactly the
  // blocking path's outcome.
  std::vector<Key> keys = {42};
  keys.push_back(1001);  // sibling must still be served
  std::vector<char> rows(keys.size() * kValueBytes, 0);
  BatchResult r;
  sharded.MultiExecuteRead(
      keys,
      [&rows](FasterStore* shard, Key key, size_t i, BatchResult* part,
              size_t pi, PendingSink* sink) {
        char* dst = rows.data() + i * kValueBytes;
        if (sink == nullptr) {
          part->Record(pi, shard->Read(key, dst, kValueBytes));
          return;
        }
        PendingRead p;
        if (shard->StartRead(key, dst, kValueBytes, nullptr, UINT32_MAX,
                             /*tracked=*/true, &p)) {
          part->Record(pi, p.status);
          return;
        }
        sink->Park(shard, std::move(p), [part, pi](PendingRead* done) {
          part->Record(pi, done->status);
        });
      },
      &r);
  EXPECT_EQ(r.codes[0], Status::Code::kBusy);
  EXPECT_EQ(r.codes[1], Status::Code::kOk);
  EXPECT_GE(store->stats().async_reads_refetched, 1u);
  EXPECT_GE(store->stats().busy_aborts, 1u);
}

TEST(PendingReadTest, InjectedFaultsFailOnlyTheirKeys) {
  constexpr uint64_t kKeys = 1500;
  TempDir dir;
  AsyncIoEngine engine;
  auto script = std::make_shared<FaultyFileDevice::Script>();
  ShardedStoreOptions o = ColdStoreOptions(dir.File("f.log"), 0, &engine);
  o.store.device_factory = [script]() {
    return std::make_unique<FaultyFileDevice>(script);
  };
  ShardedStore store;
  ASSERT_TRUE(store.Open(o).ok());
  LoadKeys(&store, kKeys);

  std::vector<Key> keys;
  for (Key k = 0; k < 32; ++k) keys.push_back(k);  // all cold, distinct
  std::vector<char> out(keys.size() * kValueBytes, 0);

  // Fail exactly one device read; phase 1 issues none, so it is one of
  // the wave's record fetches.
  script->fail_from.store(script->reads.load() + 2);
  script->fail_count.store(1);
  BatchResult r;
  store.MultiExecuteRead(keys, RawReadOp(out.data(), kValueBytes), &r);

  EXPECT_EQ(r.failed, 1u);
  EXPECT_TRUE(r.first_error.IsIOError());
  size_t io_errors = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (r.codes[i] == Status::Code::kIOError) {
      ++io_errors;
      continue;
    }
    ASSERT_EQ(r.codes[i], Status::Code::kOk) << "sibling poisoned at " << i;
    char expected[kValueBytes];
    FillValue(keys[i], expected);
    EXPECT_EQ(std::memcmp(&out[i * kValueBytes], expected, kValueBytes), 0);
  }
  EXPECT_EQ(io_errors, 1u);

  // A persistently failing device fails every cold key — and still no
  // crash, hang, or misattributed success. The pass above copied its keys
  // to the tail, so this one reads keys that are still cold.
  std::vector<Key> cold;
  for (Key k = 32; k < 64; ++k) {
    ASSERT_FALSE(store.IsInMemory(k)) << "key " << k;
    cold.push_back(k);
  }
  script->fail_from.store(1);
  script->fail_count.store(UINT64_MAX);
  BatchResult all_fail;
  store.MultiExecuteRead(cold, RawReadOp(out.data(), kValueBytes),
                         &all_fail);
  EXPECT_EQ(all_fail.failed, cold.size());
  script->fail_from.store(0);  // disarm
}

TEST(PendingReadTest, MlkvWaveServesPutRowsInitAndLookahead) {
  // End-to-end through Mlkv/EmbeddingTable, whose batched reads always go
  // through the wave: cold rows come back as they were Put, a never-stored
  // key gets InitEmbedding's row, Lookahead promotions ride the same
  // pipeline, and closing the DB right after issuing lookaheads drains
  // cleanly.
  constexpr uint32_t kDim = 8;
  constexpr uint64_t kKeys = 1500;
  TempDir dir;
  MlkvOptions o;
  o.dir = dir.path() + "/db";
  o.mem_size = 1u << 16;
  o.page_size = 1u << 12;
  o.shard_bits = 2;
  o.io_threads = 4;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(o, &db).ok());
  EmbeddingTable* table = nullptr;
  ASSERT_TRUE(db->OpenTable("emb", kDim, kAspBound, &table).ok());

  const auto row_value = [](Key k, uint32_t d) {
    return static_cast<float>(k * 100 + d);
  };
  std::vector<Key> keys(kKeys);
  std::vector<float> rows(kKeys * kDim);
  for (uint64_t k = 0; k < kKeys; ++k) {
    keys[k] = k;
    for (uint32_t d = 0; d < kDim; ++d) rows[k * kDim + d] = row_value(k, d);
  }
  BatchResult put;
  ASSERT_TRUE(table->Put(keys, rows.data(), &put).ok());

  // Cold batched gets: strided + duplicates + a fresh key.
  const Key fresh = kKeys + 77;
  std::vector<Key> batch;
  for (uint64_t i = 0; i < 300; ++i) batch.push_back((i * 13) % kKeys);
  batch.push_back(batch[0]);
  batch.push_back(fresh);
  std::vector<float> out(batch.size() * kDim, 0.0f);
  BatchResult got;
  ASSERT_TRUE(table->GetOrInit(batch, out.data(), &got).ok());
  EXPECT_TRUE(got.AllOk());
  EXPECT_EQ(got.missing, 1u);
  EXPECT_GT(table->store()->stats().async_reads_submitted, 0u);
  for (size_t i = 0; i + 1 < batch.size(); ++i) {
    for (uint32_t d = 0; d < kDim; ++d) {
      ASSERT_EQ(out[i * kDim + d], row_value(batch[i], d))
          << "key " << batch[i] << " lane " << d;
    }
  }
  std::vector<float> init(kDim);
  InitEmbedding(fresh, kDim, init.data());
  EXPECT_EQ(std::memcmp(&out[(batch.size() - 1) * kDim], init.data(),
                        kDim * sizeof(float)),
            0);
  // The bootstrap row was stored: a plain Get serves it now.
  std::vector<float> again(kDim, 0.0f);
  ASSERT_TRUE(table->Get({&fresh, 1}, again.data()).ok());
  EXPECT_EQ(again, init);

  // Lookahead promotion over cold keys rides the same pipeline.
  std::vector<Key> ahead;
  for (Key k = 0; k < 64; ++k) ahead.push_back(k);
  ASSERT_TRUE(table->Lookahead(ahead).ok());
  table->WaitLookahead();
  EXPECT_GT(table->store()->stats().promotions, 0u);

  // Drain-on-close: issue lookaheads and destroy immediately.
  ASSERT_TRUE(table->Lookahead(ahead).ok());
  db.reset();
}

TEST(PendingReadTest, TrackedColdGetLeavesThePutNothingToRead) {
  // A training step: tracked MultiGet of cold rows, then MultiPut of the
  // same rows. The Get copies each cold record to the mutable tail with
  // its staleness increment, so the Put updates every row in place and
  // issues no device read (the store's own exposition shows both).
  constexpr uint32_t kDim = 8;
  constexpr size_t kLoad = 2000, kStep = 64;
  constexpr double kStepRows = kStep;
  TempDir dir;
  BackendConfig cfg;
  cfg.dir = dir.File("m");
  cfg.dim = kDim;
  cfg.buffer_bytes = 1u << 16;
  cfg.index_slots = 4096;
  cfg.io_threads = 2;
  std::unique_ptr<KvBackend> backend;
  ASSERT_TRUE(MakeBackend(BackendKind::kMlkv, cfg, &backend).ok());
  const auto sample = [&](const char* name) {
    obs::MetricsSink sink;
    backend->CollectMetrics(&sink);
    double total = 0;
    for (const obs::MetricsSink::Sample& s : sink.samples()) {
      if (s.name == name) total += s.value;
    }
    return total;
  };

  std::vector<Key> keys(kLoad);
  std::vector<float> rows(kLoad * kDim);
  for (size_t i = 0; i < kLoad; ++i) {
    keys[i] = i;
    for (uint32_t d = 0; d < kDim; ++d) {
      rows[i * kDim + d] = static_cast<float>(i) + 0.5f * static_cast<float>(d);
    }
  }
  ASSERT_TRUE(backend->MultiPut(keys, rows.data()).AllOk());

  // The first rows written are the coldest.
  const std::vector<Key> step(keys.begin(), keys.begin() + kStep);
  const double reads_before_get = sample("mlkv_io_disk_record_reads_total");
  std::vector<float> got(kStep * kDim);
  ASSERT_TRUE(backend->MultiGet(step, got.data()).AllOk());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), rows.begin()));
  const double reads_before_put = sample("mlkv_io_disk_record_reads_total");
  EXPECT_GE(reads_before_put - reads_before_get, kStepRows) << "rows warm";
  EXPECT_EQ(sample("mlkv_store_read_copies_total"), kStepRows);

  const double inplace_before = sample("mlkv_store_inplace_updates_total");
  for (float& v : got) v += 1.0f;
  ASSERT_TRUE(backend->MultiPut(step, got.data()).AllOk());
  EXPECT_EQ(sample("mlkv_io_disk_record_reads_total"), reads_before_put);
  EXPECT_EQ(sample("mlkv_store_inplace_updates_total") - inplace_before,
            kStepRows);

  std::vector<float> again(kStep * kDim);
  ASSERT_TRUE(backend->MultiGet(step, again.data()).AllOk());
  EXPECT_EQ(again, got);
}

}  // namespace
}  // namespace mlkv
