// Whole-stack concurrency stress: trainers, prefetchers, evaluators, and
// the garbage collector running against one table at once. These tests are
// about crash-freedom and protocol invariants under contention, not
// throughput; sizes are chosen to finish in seconds while still forcing
// page rolls, evictions, RCU updates, promotions, and GC.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "backend/delayed_backend.h"
#include "backend/kv_backend.h"
#include "cluster/cluster_backend.h"
#include "cluster/cluster_map.h"
#include "cluster/replicator.h"
#include "common/random.h"
#include "io/temp_dir.h"
#include "kv/faster_store.h"
#include "kv/log_iterator.h"
#include "mlkv/mlkv.h"
#include "net/kv_server.h"
#include "net/remote_backend.h"
#include "obs/metrics.h"
#include "store_metrics.h"
#include "store_promote.h"

namespace mlkv {
namespace {

// --------------------------------------------------------- store level --

// Five mutator kinds (upsert, rmw, delete+reinsert, promote, compact) race
// on a shared store; each key has one owning writer thread recording the
// last committed version, verified at the end.
TEST(StoreStressTest, MixedOpsWithCompactorAndPromoter) {
  TempDir dir;
  FasterOptions o;
  o.path = dir.File("stress.log");
  o.index_slots = 4096;
  o.page_size = 4096;
  o.mem_size = 16 * 4096;
  FasterStore store;
  ASSERT_TRUE(store.Open(o).ok());

  constexpr int kWriters = 3;
  constexpr int kKeysPerWriter = 80;
  constexpr int kOpsPerWriter = 4000;
  std::vector<std::vector<uint64_t>> committed(
      kWriters, std::vector<uint64_t>(kKeysPerWriter, 0));
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(99 + w);
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const int slot = static_cast<int>(rng.Next() % kKeysPerWriter);
        const Key key = static_cast<Key>(w) * kKeysPerWriter + slot;
        const uint64_t version = committed[w][slot] + 1;
        const double roll = rng.NextDouble();
        if (roll < 0.55) {
          // Upsert with occasional size change (forces RCU).
          char buf[96];
          std::memset(buf, 0, sizeof(buf));
          std::memcpy(buf, &version, sizeof(version));
          const uint32_t size = 48 + (version % 3) * 16;
          ASSERT_TRUE(store.Upsert(key, buf, size).ok());
          committed[w][slot] = version;
        } else if (roll < 0.85) {
          // Rmw bumping the version in place.
          ASSERT_TRUE(store
                          .Rmw(key, 48,
                               [version](char* v, uint32_t, bool) {
                                 std::memcpy(v, &version, sizeof(version));
                               })
                          .ok());
          committed[w][slot] = version;
        } else {
          // Delete then reinsert (tombstone churn).
          store.Delete(key).ok();  // NotFound fine on fresh keys
          char buf[48];
          std::memset(buf, 0, sizeof(buf));
          std::memcpy(buf, &version, sizeof(version));
          ASSERT_TRUE(store.Upsert(key, buf, sizeof(buf)).ok());
          committed[w][slot] = version;
        }
      }
    });
  }
  threads.emplace_back([&] {  // compactor
    while (!stop.load(std::memory_order_acquire)) {
      Status s = store.Compact(store.log().read_only_address(), nullptr);
      ASSERT_TRUE(s.ok() || s.IsBusy()) << s.ToString();
    }
  });
  threads.emplace_back([&] {  // promoter (lookahead's storage half)
    Rng rng(4242);
    while (!stop.load(std::memory_order_acquire)) {
      const Key key = rng.Next() % (kWriters * kKeysPerWriter);
      Status s = Promote(&store, key);
      ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
    }
  });
  threads.emplace_back([&] {  // reader (untracked peeks)
    Rng rng(1717);
    char buf[96];
    while (!stop.load(std::memory_order_acquire)) {
      const Key key = rng.Next() % (kWriters * kKeysPerWriter);
      Status s = store.Peek(key, buf, sizeof(buf));
      ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
    }
  });
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  for (int w = 0; w < kWriters; ++w) {
    for (int slot = 0; slot < kKeysPerWriter; ++slot) {
      const Key key = static_cast<Key>(w) * kKeysPerWriter + slot;
      if (committed[w][slot] == 0) continue;
      std::string out;
      ASSERT_TRUE(store.Read(key, &out).ok()) << "key " << key;
      uint64_t version = 0;
      std::memcpy(&version, out.data(), sizeof(version));
      EXPECT_EQ(version, committed[w][slot]) << "key " << key;
    }
  }
  // The live scan and point reads agree on the key population.
  uint64_t live = 0;
  for (LiveLogIterator it(&store); it.Valid(); it.Next()) ++live;
  uint64_t readable = 0;
  std::string out;
  for (Key key = 0; key < kWriters * kKeysPerWriter; ++key) {
    if (store.Read(key, &out).ok()) ++readable;
  }
  EXPECT_EQ(live, readable);
}

// --------------------------------------------------------- table level --

// A full training-shaped pipeline: worker threads own disjoint rows and run
// GetOrInit -> ApplyGradients(fused adagrad) while a prefetch thread drives
// both Lookahead destinations and a maintenance thread compacts. Rows must
// end exactly at the value the owner's deterministic gradient sequence
// produces (per-record Rmw atomicity).
TEST(TableStressTest, TrainersPrefetchersAndGc) {
  TempDir dir;
  MlkvOptions opts;
  opts.dir = dir.path() + "/db";
  opts.store.index_slots = 4096;
  opts.store.page_size = 4096;
  opts.store.mem_size = 24 * 4096;
  opts.lookahead_threads = 2;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(opts, &db).ok());
  EmbeddingTable* table = nullptr;
  OptimizerConfig sgd;  // stateless keeps the expected value analytic
  sgd.kind = OptimizerKind::kSgd;
  sgd.lr = 0.5f;
  ASSERT_TRUE(db->OpenTable("t", 8, kAspBound, &table, sgd).ok());

  constexpr int kWorkers = 3;
  constexpr int kRowsPerWorker = 400;  // 1200 rows x 64 B > the 96 KiB buffer
  constexpr int kSteps = 150;
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      std::vector<float> zero(8, 0.0f), grad(8);
      // Seed rows to zero so the final value is analytic.
      for (int rr = 0; rr < kRowsPerWorker; ++rr) {
        const Key row = static_cast<Key>(w) * kRowsPerWorker + rr;
        ASSERT_TRUE(table->Put({&row, 1}, zero.data()).ok());
      }
      for (int step = 1; step <= kSteps; ++step) {
        for (int rr = 0; rr < kRowsPerWorker; ++rr) {
          const Key row = static_cast<Key>(w) * kRowsPerWorker + rr;
          for (int d = 0; d < 8; ++d) {
            grad[d] = (d % 2 == 0 ? 1.0f : -1.0f) *
                      static_cast<float>(1 + (step % 2));
          }
          ASSERT_TRUE(table->ApplyGradients({&row, 1}, grad.data()).ok());
        }
      }
    });
  }
  threads.emplace_back([&] {  // prefetcher
    EmbeddingCache cache(256, 8);
    Rng rng(5);
    std::vector<Key> batch(32);
    while (!stop.load(std::memory_order_acquire)) {
      for (auto& k : batch) k = rng.Next() % (kWorkers * kRowsPerWorker);
      ASSERT_TRUE(table->Lookahead(batch).ok());
      ASSERT_TRUE(table->Lookahead(
                          batch,
                          EmbeddingTable::LookaheadDest::kApplicationCache,
                          &cache)
                      .ok());
      // Pace the flood: the queue stays busy without starving the workers
      // (under TSan's serialized scheduler an unpaced submit loop can
      // livelock against CompactStorage's WaitLookahead spin).
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    table->WaitLookahead();
  });
  threads.emplace_back([&] {  // maintenance
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(table->CompactStorage(64 * 4096).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (int w = 0; w < kWorkers; ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  for (size_t i = kWorkers; i < threads.size(); ++i) threads[i].join();

  // Expected value: sum over steps of -lr*grad; grads alternate magnitude
  // 2,1,2,1,... starting at step 1 -> per-dim total = -lr * sign * total_mag.
  float total_mag = 0;
  for (int step = 1; step <= kSteps; ++step) {
    total_mag += static_cast<float>(1 + (step % 2));
  }
  std::vector<float> v(8);
  for (Key row = 0; row < kWorkers * kRowsPerWorker; ++row) {
    ASSERT_TRUE(table->Get({&row, 1}, v.data()).ok()) << "row " << row;
    for (int d = 0; d < 8; ++d) {
      const float expect =
          -(0.5f) * (d % 2 == 0 ? 1.0f : -1.0f) * total_mag;
      ASSERT_NEAR(v[d], expect, 1e-3f) << "row " << row << " dim " << d;
    }
  }
}

// SSP pipeline at a tight bound with paired Get/Put across threads sharing
// all keys: the protocol must neither deadlock nor lose updates.
TEST(TableStressTest, SharedKeysBoundedPipeline) {
  TempDir dir;
  MlkvOptions opts;
  opts.dir = dir.path() + "/db";
  opts.store.index_slots = 1024;
  opts.store.page_size = 4096;
  opts.store.mem_size = 16 * 4096;
  opts.store.busy_spin_limit = 1 << 14;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(opts, &db).ok());
  EmbeddingTable* table = nullptr;
  ASSERT_TRUE(db->OpenTable("t", 4, /*staleness_bound=*/4, &table).ok());

  constexpr Key kRows = 64;
  std::vector<float> zero(4, 0.0f);
  for (Key row = 0; row < kRows; ++row) {
    ASSERT_TRUE(table->Put({&row, 1}, zero.data()).ok());
  }
  std::atomic<uint64_t> applied{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(31 + w);
      std::vector<float> v(4), g(4, 1.0f);
      for (int i = 0; i < 2000; ++i) {
        const Key row = rng.Next() % kRows;
        Status s = table->Get({&row, 1}, v.data());
        if (s.IsBusy()) continue;  // bounded abort: retry another row
        ASSERT_TRUE(s.ok()) << s.ToString();
        // Matching Put completes the protocol round for this Get.
        ASSERT_TRUE(table->ApplyGradients({&row, 1}, g.data(), 0.001f).ok());
        applied.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_GT(applied.load(), 0u);
  // Every row's value reflects exactly the applied updates in total: sum of
  // all dims across rows == -0.001 * applied * 4 dims.
  double total = 0;
  std::vector<float> v(4);
  for (Key row = 0; row < kRows; ++row) {
    ASSERT_TRUE(table->Get({&row, 1}, v.data()).ok());
    ASSERT_TRUE(table->Put({&row, 1}, v.data()).ok());
    for (int d = 0; d < 4; ++d) total += v[d];
  }
  EXPECT_NEAR(total, -0.001 * static_cast<double>(applied.load()) * 4,
              0.05);
}

// ------------------------------------------------------- backend level --

// Concurrent batched traffic over the KvBackend seam: several caller
// threads issue overlapping MultiPut / MultiGet / MultiApplyGradient
// batches while the hybrid-log engines scatter every batch's shard
// sub-batches over their shared lookahead pool (LSM and B-tree run them
// inline). This is the race surface the batch API introduced (pool workers
// and callers writing shared engine state); run under TSan in CI.
TEST(BackendBatchStressTest, ConcurrentParallelBatches) {
  constexpr uint32_t kDim = 8;
  constexpr int kCallers = 4;
  constexpr int kRounds = 40;
  constexpr size_t kBatch = 256;
  constexpr Key kKeySpace = 512;  // overlap guaranteed

  for (const BackendKind kind : {BackendKind::kMlkv, BackendKind::kFaster,
                                 BackendKind::kLsm, BackendKind::kBtree}) {
    TempDir dir;
    BackendConfig cfg;
    cfg.dir = dir.File("b");
    cfg.dim = kDim;
    cfg.buffer_bytes = 2ull << 20;
    cfg.staleness_bound = kAspBound;  // concurrent tracked reads never wait
    std::unique_ptr<KvBackend> backend;
    ASSERT_TRUE(MakeBackend(kind, cfg, &backend).ok());

    std::atomic<int> hard_failures{0};
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        Rng rng(31 + c);
        std::vector<Key> keys(kBatch);
        std::vector<float> values(kBatch * kDim);
        std::vector<float> out(kBatch * kDim);
        for (int round = 0; round < kRounds; ++round) {
          for (auto& k : keys) k = rng.Next() % kKeySpace;
          for (auto& v : values) v = static_cast<float>(c);
          const BatchResult put = backend->MultiPut(keys, values.data());
          const BatchResult got = backend->MultiGet(keys, out.data());
          const BatchResult applied =
              backend->MultiApplyGradient(keys, values.data(), 0.001f);
          if (put.failed + got.failed + applied.failed > 0) {
            hard_failures.fetch_add(1);
          }
          // Every value read must be finite (no torn float reads).
          for (const float v : out) {
            if (!std::isfinite(v)) hard_failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : callers) t.join();
    EXPECT_EQ(hard_failures.load(), 0) << BackendKindName(kind);
  }
}

// Parallel batches across a sharded MLKV table: several trainer-shaped
// caller threads issue large span calls concurrently while each call's
// per-shard sub-batches fan out onto the shared lookahead pool — the race
// surface the sharded scatter/gather introduced (pool workers + callers
// executing different shards' sub-batches of overlapping batches at once).
// Disjoint row ownership makes the final values analytic; run under TSan
// in CI.
TEST(ShardedBatchStressTest, ParallelSpanCallsAcrossShards) {
  TempDir dir;
  MlkvOptions opts;
  opts.dir = dir.File("db");
  opts.store.index_slots = 4096;
  opts.store.page_size = 4096;
  opts.store.mem_size = 64 * 4096;
  opts.shard_bits = 2;
  opts.lookahead_threads = 3;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(opts, &db).ok());
  EmbeddingTable* table = nullptr;
  ASSERT_TRUE(db->OpenTable("t", 8, kAspBound, &table).ok());
  ASSERT_EQ(table->store()->num_shards(), 4u);

  constexpr int kWorkers = 4;
  constexpr int kRowsPerWorker = 256;
  constexpr int kSteps = 60;
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      std::vector<Key> rows(kRowsPerWorker);
      for (int r = 0; r < kRowsPerWorker; ++r) {
        rows[r] = static_cast<Key>(w) * kRowsPerWorker + r;
      }
      std::vector<float> zero(kRowsPerWorker * 8, 0.0f);
      std::vector<float> grad(kRowsPerWorker * 8, 1.0f);
      std::vector<float> out(kRowsPerWorker * 8);
      BatchResult r;
      table->Put(rows, zero.data(), &r);
      ASSERT_TRUE(r.AllOk());
      for (int step = 0; step < kSteps; ++step) {
        table->ApplyGradients(rows, grad.data(), 0.5f, &r);
        ASSERT_TRUE(r.AllOk());
        if (step % 8 == 0) {
          // Interleave prefetch traffic on the same pool the scatter uses.
          table->Lookahead(rows).ok();
        }
      }
      table->Get(rows, out.data(), &r);
      ASSERT_TRUE(r.AllOk());
      for (int i = 0; i < kRowsPerWorker * 8; ++i) {
        ASSERT_FLOAT_EQ(out[i], -0.5f * kSteps) << "row-elem " << i;
      }
    });
  }
  for (auto& t : workers) t.join();
  table->WaitLookahead();
}

// The pending-read pipeline under contention: caller threads issue cold
// batched gets through the shared AsyncIoEngine (waves submitting from
// several threads at once, completions running on each caller) while
// writers RCU the same keys, prefetchers promote them, and a maintenance
// thread compacts — the full set of actors that can move a record while
// its image is in flight. Values are self-describing so every served row
// is checkable regardless of which version the read linearized against.
// Run under TSan in CI.
TEST(AsyncReadStressTest, ColdWavesVersusWritersAndCompaction) {
  TempDir dir;
  MlkvOptions opts;
  opts.dir = dir.File("db");
  opts.store.index_slots = 4096;
  opts.store.page_size = 4096;
  opts.store.mem_size = 16 * 4096;  // tiny: most of the key space lives on disk
  opts.shard_bits = 2;
  opts.lookahead_threads = 2;
  opts.engine.io_threads = 3;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(opts, &db).ok());
  EmbeddingTable* table = nullptr;
  ASSERT_TRUE(db->OpenTable("t", 8, kAspBound, &table).ok());

  constexpr uint64_t kKeys = 3000;
  constexpr int kReaders = 3;
  constexpr int kSteps = 40;
  {
    std::vector<Key> keys(kKeys);
    std::vector<float> rows(kKeys * 8);
    for (uint64_t k = 0; k < kKeys; ++k) {
      keys[k] = k;
      for (int d = 0; d < 8; ++d) {
        rows[k * 8 + d] = static_cast<float>(k);
      }
    }
    BatchResult r;
    table->Put(keys, rows.data(), &r);
    ASSERT_TRUE(r.AllOk());
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kReaders; ++w) {
    threads.emplace_back([&, w] {
      std::vector<Key> batch(128);
      std::vector<float> out(batch.size() * 8);
      BatchResult r;
      for (int step = 0; step < kSteps; ++step) {
        for (size_t i = 0; i < batch.size(); ++i) {
          batch[i] = (static_cast<Key>(w) * 7919 + step * 131 + i * 17) %
                     kKeys;
        }
        table->Get(batch, out.data(), &r);
        for (size_t i = 0; i < batch.size(); ++i) {
          if (r.codes[i] != Status::Code::kOk) continue;
          // Every version of key k holds either k (initial) or k + 1000
          // (writer update) in every lane.
          const float v = out[i * 8];
          ASSERT_TRUE(v == static_cast<float>(batch[i]) ||
                      v == static_cast<float>(batch[i] + 1000))
              << "key " << batch[i] << " -> " << v;
          for (int d = 1; d < 8; ++d) {
            ASSERT_FLOAT_EQ(out[i * 8 + d], v) << "torn row " << batch[i];
          }
        }
        if (step % 8 == 3) table->Lookahead(batch).ok();
      }
    });
  }
  threads.emplace_back([&] {  // writer: RCU updates racing the waves
    std::vector<float> row(8);
    for (int step = 0; step < kSteps * 4 && !stop.load(); ++step) {
      const Key k = static_cast<Key>(step * 37) % kKeys;
      for (int d = 0; d < 8; ++d) row[d] = static_cast<float>(k + 1000);
      BatchResult r;
      table->Put({&k, 1}, row.data(), &r);
    }
  });
  threads.emplace_back([&] {  // maintenance: move the begin boundary
    for (int i = 0; i < 6 && !stop.load(); ++i) {
      table->CompactStorage().ok();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  for (size_t t = 0; t < threads.size() - 2; ++t) threads[t].join();
  stop.store(true);
  threads[threads.size() - 2].join();
  threads.back().join();
  table->WaitLookahead();
  EXPECT_GT(
      StoreMetric(*table->store(), "mlkv_io_async_reads_submitted_total"),
      0u);
}

// ------------------------------------------- group durability stress --

// Writers hammer one kGroup store — in-place updates, RCU size changes —
// while every thread takes its own per-batch Persist() ticket, so
// concurrent committers pile onto the GroupCommitter's shared fsyncs and
// flush waves race in-flight appends. After the threads join, one final
// Persist marks everything durable; a simulated crash (no shutdown
// checkpoint) plus Recover() must then serve every writer's last version.
TEST(GroupDurabilityStressTest, ConcurrentWritersShareGroupCommits) {
  TempDir dir;
  FasterOptions o;
  o.path = dir.File("group.log");
  o.index_slots = 4096;
  o.page_size = 4096;
  o.mem_size = 32 * 4096;
  o.mutable_fraction = 0.5;
  o.durability = DurabilityMode::kGroup;
  o.group_commit.window_us = 100;
  const std::string prefix = dir.File("ckpt");

  constexpr int kWriters = 4;
  constexpr int kKeysPerWriter = 48;
  constexpr int kBatches = 40;
  constexpr int kOpsPerBatch = 12;
  // Value size flips every third version, so runs of same-size versions
  // update in place and the flips force RCU appends.
  const auto size_for = [](uint64_t version) -> uint32_t {
    return (version / 3) % 2 == 0 ? 24 : 48;
  };
  const auto key_for = [](int w, int slot) -> Key {
    return 1000 + static_cast<Key>(w) * kKeysPerWriter + slot;
  };
  std::vector<std::vector<uint64_t>> last(
      kWriters, std::vector<uint64_t>(kKeysPerWriter, 1));
  uint64_t group_commits = 0;
  {
    FasterStore store;
    ASSERT_TRUE(store.Open(o).ok());
    // Seed version 1 of every key and checkpoint, so recovery exercises
    // base restore plus group-committed tail replay.
    for (int w = 0; w < kWriters; ++w) {
      for (int s = 0; s < kKeysPerWriter; ++s) {
        char buf[48] = {};
        const uint64_t version = 1;
        std::memcpy(buf, &version, sizeof(version));
        ASSERT_TRUE(
            store.Upsert(key_for(w, s), buf, size_for(version)).ok());
      }
    }
    ASSERT_TRUE(store.Checkpoint(prefix).ok());

    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        Rng rng(7 + w);
        for (int b = 0; b < kBatches && !failed.load(); ++b) {
          for (int i = 0; i < kOpsPerBatch; ++i) {
            const int slot = static_cast<int>(rng.Next() % kKeysPerWriter);
            const uint64_t version = ++last[w][slot];
            char buf[48] = {};
            std::memcpy(buf, &version, sizeof(version));
            if (!store.Upsert(key_for(w, slot), buf, size_for(version))
                     .ok()) {
              failed.store(true);
              break;
            }
          }
          if (!store.Persist().ok()) failed.store(true);
        }
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_FALSE(failed.load());
    ASSERT_TRUE(store.Persist().ok());  // quiesced: covers every write
    group_commits = StoreMetric(store, "mlkv_io_group_commits_total");
  }  // crash: no shutdown-time checkpoint

  // With 4 threads parking ~160 tickets on 100 us windows, fsync sharing
  // is statistically certain; its absence means the committer broke.
  EXPECT_GT(group_commits, 0u);

  FasterStore store;
  ASSERT_TRUE(store.Recover(o, prefix).ok());
  for (int w = 0; w < kWriters; ++w) {
    for (int s = 0; s < kKeysPerWriter; ++s) {
      std::string out;
      ASSERT_TRUE(store.Read(key_for(w, s), &out).ok()) << w << "/" << s;
      const uint64_t want = last[w][s];
      ASSERT_EQ(out.size(), size_for(want)) << w << "/" << s;
      uint64_t got = 0;
      std::memcpy(&got, out.data(), sizeof(got));
      EXPECT_EQ(got, want) << w << "/" << s;
    }
  }
}

// ---------------------------------------------------------- replication --

// Writers hammer a primary KvServer over the wire while a replica tails
// its committed-update feed concurrently — the TSan target for the whole
// shipping path (Persist + cursor on the primary, Upsert races on the
// replica). After the writers join, the replica must catch up and hold a
// byte-identical copy of every key.
TEST(ReplicationStressTest, ConcurrentWritersWithTailingReplica) {
  TempDir dir;
  BackendConfig cfg;
  cfg.dir = dir.File("primary");
  cfg.dim = 8;
  cfg.buffer_bytes = 4ull << 20;
  cfg.staleness_bound = UINT32_MAX - 1;
  cfg.mlkv.shard_bits = 2;
  std::unique_ptr<KvBackend> engine;
  ASSERT_TRUE(MakeBackend(BackendKind::kFaster, cfg, &engine).ok());
  net::KvServerOptions so;
  so.num_workers = 6;
  net::KvServer primary(std::move(engine), so);
  ASSERT_TRUE(primary.Start().ok());

  cfg.dir = dir.File("replica");
  cfg.mlkv.shard_bits = 1;  // layouts may differ: replication routes by key
  std::unique_ptr<KvBackend> replica;
  ASSERT_TRUE(MakeBackend(BackendKind::kFaster, cfg, &replica).ok());

  cluster::ReplicatorOptions ropts;
  ropts.primary_addr = primary.addr();
  ropts.poll_interval_ms = 1;  // tail aggressively while writers run
  cluster::Replicator rep(replica.get(), ropts);
  ASSERT_TRUE(rep.Start().ok());

  constexpr int kWriters = 3;
  constexpr int kKeysPerWriter = 200;
  constexpr int kRounds = 20;
  std::vector<std::thread> writers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      net::RemoteBackendOptions o;
      o.addr = primary.addr();
      o.pool_size = 1;
      std::unique_ptr<KvBackend> client;
      if (!net::RemoteBackend::Connect(o, &client).ok()) {
        failures.fetch_add(1);
        return;
      }
      std::vector<Key> keys(kKeysPerWriter);
      std::vector<float> values(kKeysPerWriter * 8);
      for (int r = 0; r < kRounds; ++r) {
        for (int i = 0; i < kKeysPerWriter; ++i) {
          keys[i] = static_cast<Key>(t) * 100000 + i;
          for (int d = 0; d < 8; ++d) {
            values[i * 8 + d] = static_cast<float>(t * 1000 + r * 8 + d);
          }
        }
        if (!client->MultiPut(keys, values.data()).AllOk()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  ASSERT_EQ(failures.load(), 0);

  ASSERT_TRUE(rep.WaitCaughtUp(60000));
  rep.Stop();
  const cluster::ReplicationProgress progress = rep.progress();
  EXPECT_GE(progress.replicated_records,
            static_cast<uint64_t>(kWriters) * kKeysPerWriter);
  EXPECT_EQ(progress.replica_lag_records, 0u);
  EXPECT_EQ(progress.apply_failures, 0u);

  // Final audit: the replica serves the primary's bytes for every key.
  KvBackend* primary_engine = primary.backend();
  std::vector<float> want(8), got(8);
  for (int t = 0; t < kWriters; ++t) {
    for (int i = 0; i < kKeysPerWriter; ++i) {
      const Key k = static_cast<Key>(t) * 100000 + i;
      ASSERT_TRUE(primary_engine->PeekEmbedding(k, want.data()).ok()) << k;
      ASSERT_TRUE(replica->PeekEmbedding(k, got.data()).ok()) << k;
      ASSERT_EQ(std::memcmp(want.data(), got.data(), 8 * sizeof(float)), 0)
          << "key " << k;
    }
  }
  primary.Stop();
}

// ------------------------------------------------------ cluster level --

// Hedged reads under contention, for TSan: a mutual-replica pair (each
// server primary of one partition, replica of the other, identically
// preloaded) where one server stalls every Nth read, hammered by client
// threads with hedging on and the auto hedge delay.
// The caller returns on the first usable response while the loser finishes
// against shared state in the background — exactly the overlap a data race
// would live in. Asserts are correctness (every batch serves the written
// bytes) plus liveness of the hedge counters.
TEST(ClusterHedgeStressTest, ConcurrentHedgedReadsAgainstStraggler) {
  TempDir dir;
  constexpr size_t kRows = 256;
  std::vector<Key> keys(kRows);
  std::vector<float> values(kRows * 8);
  for (size_t i = 0; i < kRows; ++i) {
    keys[i] = i + 1;
    for (int d = 0; d < 8; ++d) values[i * 8 + d] = i * 2.0f + d;
  }
  net::KvServer* servers[2] = {nullptr, nullptr};
  std::unique_ptr<net::KvServer> owned[2];
  DelayedBackend* slow = nullptr;
  for (int i = 0; i < 2; ++i) {
    BackendConfig cfg;
    cfg.dir = dir.File(i == 0 ? "hs0" : "hs1");
    cfg.dim = 8;
    cfg.buffer_bytes = 4ull << 20;
    cfg.staleness_bound = UINT32_MAX - 1;
    cfg.mlkv.shard_bits = 1;
    std::unique_ptr<KvBackend> engine;
    ASSERT_TRUE(MakeBackend(BackendKind::kFaster, cfg, &engine).ok());
    ASSERT_TRUE(engine->MultiPut(keys, values.data()).AllOk());
    if (i == 0) {
      DelayedBackend::Options d;
      d.delay_us = 2000;
      d.every_nth = 16;  // intermittent straggler
      auto dec = std::make_unique<DelayedBackend>(std::move(engine), d);
      slow = dec.get();
      engine = std::move(dec);
    }
    net::KvServerOptions so;
    so.num_workers = 6;
    owned[i] = std::make_unique<net::KvServer>(std::move(engine), so);
    ASSERT_TRUE(owned[i]->Start().ok());
    servers[i] = owned[i].get();
  }
  auto map = std::make_shared<cluster::ClusterMap>();
  ASSERT_TRUE(cluster::BuildClusterMap(
                  {servers[0]->addr(), servers[1]->addr()},
                  {servers[1]->addr(), servers[0]->addr()}, 1,
                  cluster::ReadPreference::kPrimary, 1, map.get())
                  .ok());
  servers[0]->UpdateClusterMap(map, 0);
  servers[1]->UpdateClusterMap(map, 1);

  cluster::ClusterBackendOptions co;
  co.endpoints = {servers[0]->addr(), servers[1]->addr()};
  co.hedge_us = kHedgeAuto;  // per-endpoint p99 hedge delay
  std::unique_ptr<cluster::ClusterBackend> client;
  ASSERT_TRUE(cluster::ClusterBackend::Connect(co, &client).ok());

  constexpr int kThreads = 4;
  constexpr int kBatches = 200;
  constexpr size_t kBatch = 16;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(77 + t);
      std::vector<Key> batch(kBatch);
      std::vector<float> out(kBatch * 8);
      MultiGetOptions o;
      o.untracked = true;
      o.init_missing = false;
      for (int b = 0; b < kBatches; ++b) {
        for (auto& k : batch) {
          // Zipf-ish: half the reads land on the first 8 keys.
          k = (rng.Next() & 1) ? keys[rng.Next() % 8]
                               : keys[rng.Next() % kRows];
        }
        const BatchResult r = client->MultiGet(batch, out.data(), o);
        if (!r.AllOk()) {
          failures.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < kBatch; ++i) {
          const size_t row = static_cast<size_t>(batch[i] - 1);
          if (out[i * 8] != values[row * 8] ||
              out[i * 8 + 7] != values[row * 8 + 7]) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(slow->delays(), 0u);
  // The straggler script fired; with an auto delay hedges are best-effort,
  // so only assert the accounting invariant, not a fixed count.
  obs::MetricsSink sink;
  client->CollectMetrics(&sink);
  EXPECT_GE(sink.Sum("mlkv_cluster_hedge_issued_total"),
            sink.Sum("mlkv_cluster_hedge_wins_total"));
  client.reset();
  servers[0]->Stop();
  servers[1]->Stop();
}

// ------------------------------------------------------ metrics level --

// Writers hammer native cells (including lazy registration of new labeled
// cells) while scrapers render the exposition and a toggler flips the
// global enable switch — the registry's lock-free record path versus its
// mutex-guarded registration and scrape paths, for TSan.
TEST(MetricsRegistryStressTest, ConcurrentRecordRegisterAndScrape) {
  obs::MetricsRegistry reg;
  obs::MetricFamily* ops = reg.CounterFamily("ops_total", "Ops.", {"shard"});
  obs::MetricFamily* lat =
      reg.HistogramFamily("lat_seconds", "Latency.", {"op"});
  obs::Gauge* depth = reg.GaugeFamily("depth", "Depth.")->GetGauge();
  const uint64_t collector =
      reg.AddCollector([](obs::MetricsSink* sink) {
        sink->AddCounter("pulled_total", "Pulled.", 1);
      });

  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 20000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kOpsPerWriter; ++i) {
        // A small rotating label set: most Adds hit existing cells, some
        // race the lazy registration path.
        ops->GetCounter({std::to_string(rng.Next() % 8)})->Add();
        lat->GetHistogram({(i & 1) != 0 ? "read" : "write"})
            ->Observe(rng.Next() % 10000);
        depth->Add(1.0);
      }
    });
  }
  std::thread scraper([&]() {
    while (!stop.load(std::memory_order_acquire)) {
      const std::string text = reg.ExpositionText();
      ASSERT_NE(text.find("ops_total"), std::string::npos);
      ASSERT_NE(text.find("pulled_total"), std::string::npos);
    }
  });
  std::thread toggler([&]() {
    while (!stop.load(std::memory_order_acquire)) {
      obs::SetMetricsEnabled(false);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      obs::SetMetricsEnabled(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  for (auto& th : threads) th.join();
  stop.store(true, std::memory_order_release);
  scraper.join();
  toggler.join();
  obs::SetMetricsEnabled(true);
  reg.RemoveCollector(collector);

  // With the toggler dropping some records, totals are bounded above by
  // the attempted count and the exposition must stay well-formed.
  uint64_t total = 0;
  for (int s = 0; s < 8; ++s) {
    total += ops->GetCounter({std::to_string(s)})->value();
  }
  EXPECT_LE(total, static_cast<uint64_t>(kWriters) * kOpsPerWriter);
  EXPECT_GT(total, 0u);
}

}  // namespace
}  // namespace mlkv
