// Parameterized conformance suite: every backend behind the KvBackend seam
// must satisfy the same embedding-store contract (the reusability property
// of Table I — swapping engines must not change application semantics).
// The suite runs each engine in-process and — for MLKV and FASTER — behind
// a loopback KvServer through RemoteBackend, and across a 2-server
// loopback cluster through ClusterBackend, so both network boundaries are
// held to the exact same contract as a linked engine.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "backend/kv_backend.h"
#include "cluster/cluster_map.h"
#include "common/hash.h"
#include "common/random.h"
#include "io/temp_dir.h"
#include "mlkv/embedding_init.h"
#include "mlkv/mlkv.h"
#include "net/kv_server.h"
#include "net/remote_backend.h"
#include "obs/metrics.h"
#include "store_metrics.h"

namespace mlkv {
namespace {

const char* KindNameOf(BackendKind kind) {
  switch (kind) {
    case BackendKind::kMlkv: return "Mlkv";
    case BackendKind::kFaster: return "Faster";
    case BackendKind::kLsm: return "Lsm";
    case BackendKind::kBtree: return "Btree";
    case BackendKind::kInMemory: return "InMemory";
    case BackendKind::kRemote: return "Remote";
    case BackendKind::kCluster: return "Cluster";
  }
  return "Unknown";
}

// How the engine is reached: linked in-process, behind one loopback
// KvServer, or scattered across a 2-server loopback cluster.
enum class Via { kInProcess, kRemote, kCluster };

using ConformanceParam = std::tuple<BackendKind, Via>;

class BackendConformanceTest
    : public ::testing::TestWithParam<ConformanceParam> {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>();
    BackendConfig cfg;
    cfg.dir = dir_->File("backend");
    cfg.dim = 8;
    cfg.buffer_bytes = 4ull << 20;
    cfg.staleness_bound = kHugeBound;
    const Via via = std::get<1>(GetParam());
    if (via == Via::kInProcess) {
      ASSERT_TRUE(MakeBackend(std::get<0>(GetParam()), cfg, &backend_).ok());
      return;
    }
    net::KvServerOptions so;
    so.num_workers = 6;  // >= max pooled client sockets any case below uses
    if (via == Via::kRemote) {
      // Remote variant: same engine, served over an in-process loopback
      // KvServer, with the test talking to it through BackendKind::kRemote.
      std::unique_ptr<KvBackend> engine;
      ASSERT_TRUE(MakeBackend(std::get<0>(GetParam()), cfg, &engine).ok());
      servers_.push_back(
          std::make_unique<net::KvServer>(std::move(engine), so));
      ASSERT_TRUE(servers_[0]->Start().ok());
      BackendConfig rcfg;
      rcfg.remote_addr = servers_[0]->addr();
      ASSERT_TRUE(MakeBackend(BackendKind::kRemote, rcfg, &backend_).ok());
      return;
    }
    // Cluster variant: two loopback KvServers, each owning its own engine
    // instance, with a route_bits=1 map installed after Start (the
    // ephemeral ports are only known then) and the test talking to them
    // through BackendKind::kCluster.
    cfg.shard_bits = 1;
    for (int s = 0; s < 2; ++s) {
      cfg.dir = dir_->File("backend" + std::to_string(s));
      std::unique_ptr<KvBackend> engine;
      ASSERT_TRUE(MakeBackend(std::get<0>(GetParam()), cfg, &engine).ok());
      servers_.push_back(
          std::make_unique<net::KvServer>(std::move(engine), so));
      ASSERT_TRUE(servers_[s]->Start().ok());
    }
    auto map = std::make_shared<cluster::ClusterMap>();
    ASSERT_TRUE(cluster::BuildClusterMap(
                    {servers_[0]->addr(), servers_[1]->addr()}, {},
                    /*route_bits=*/1, cluster::ReadPreference::kPrimary,
                    /*epoch=*/1, map.get())
                    .ok());
    for (uint32_t s = 0; s < 2; ++s) servers_[s]->UpdateClusterMap(map, s);
    BackendConfig ccfg;
    ccfg.cluster_addrs = servers_[0]->addr() + "," + servers_[1]->addr();
    ASSERT_TRUE(MakeBackend(BackendKind::kCluster, ccfg, &backend_).ok());
  }

  void TearDown() override {
    backend_.reset();  // client sockets close before the servers stop
    for (auto& s : servers_) s->Stop();
  }

  static constexpr uint32_t kHugeBound = UINT32_MAX - 1;
  std::unique_ptr<TempDir> dir_;
  std::vector<std::unique_ptr<net::KvServer>> servers_;
  std::unique_ptr<KvBackend> backend_;
};

TEST_P(BackendConformanceTest, GetInitializesDeterministically) {
  std::vector<float> a(8), b(8);
  ASSERT_TRUE(backend_->GetEmbedding(42, a.data()).ok());
  ASSERT_TRUE(backend_->GetEmbedding(42, b.data()).ok());
  EXPECT_EQ(a, b);
  // Init scale bound: |v| <= 1/sqrt(dim).
  for (float v : a) EXPECT_LE(std::fabs(v), 1.0f / std::sqrt(8.0f) + 1e-6f);
}

TEST_P(BackendConformanceTest, InitIsBackendIndependent) {
  // All backends share the init derivation, so convergence comparisons
  // start from identical embeddings.
  std::vector<float> v(8);
  ASSERT_TRUE(backend_->GetEmbedding(7, v.data()).ok());
  Rng rng(Hash64(Key{7} ^ 0xE5B0C47Aull));
  const float scale = 1.0f / std::sqrt(8.0f);
  for (int d = 0; d < 8; ++d) {
    EXPECT_FLOAT_EQ(v[d],
                    static_cast<float>(rng.NextDouble() * 2.0 - 1.0) * scale);
  }
}

TEST_P(BackendConformanceTest, PutThenGetRoundTrips) {
  std::vector<float> v = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(backend_->PutEmbedding(1, v.data()).ok());
  std::vector<float> out(8);
  ASSERT_TRUE(backend_->GetEmbedding(1, out.data()).ok());
  EXPECT_EQ(v, out);
}

TEST_P(BackendConformanceTest, PeekMatchesGet) {
  std::vector<float> v = {8, 7, 6, 5, 4, 3, 2, 1};
  ASSERT_TRUE(backend_->PutEmbedding(2, v.data()).ok());
  std::vector<float> out(8);
  ASSERT_TRUE(backend_->PeekEmbedding(2, out.data()).ok());
  EXPECT_EQ(v, out);
}

TEST_P(BackendConformanceTest, ManyKeysLargerThanBuffer) {
  // 40k keys x 32B values exceed small internal buffers for the disk
  // backends; all must still round-trip.
  std::vector<float> v(8), out(8);
  for (Key k = 0; k < 5000; ++k) {
    for (int d = 0; d < 8; ++d) v[d] = static_cast<float>(k + d);
    ASSERT_TRUE(backend_->PutEmbedding(k, v.data()).ok()) << k;
  }
  for (Key k = 0; k < 5000; k += 37) {
    ASSERT_TRUE(backend_->GetEmbedding(k, out.data()).ok()) << k;
    for (int d = 0; d < 8; ++d) EXPECT_FLOAT_EQ(out[d], k + d) << k;
  }
}

TEST_P(BackendConformanceTest, LookaheadIsHarmless) {
  std::vector<float> v = {1, 1, 2, 3, 5, 8, 13, 21};
  ASSERT_TRUE(backend_->PutEmbedding(5, v.data()).ok());
  std::vector<Key> keys = {5, 6, 7};
  ASSERT_TRUE(backend_->Lookahead(keys).ok());
  backend_->WaitIdle();
  std::vector<float> out(8);
  ASSERT_TRUE(backend_->GetEmbedding(5, out.data()).ok());
  EXPECT_EQ(v, out);
}

TEST_P(BackendConformanceTest, ConcurrentWorkersDisjointKeys) {
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::vector<float> v(8), out(8);
      for (Key i = 0; i < 300; ++i) {
        const Key k = static_cast<Key>(t) * 1000 + i;
        for (int d = 0; d < 8; ++d) v[d] = static_cast<float>(k * 10 + d);
        if (!backend_->PutEmbedding(k, v.data()).ok() ||
            !backend_->GetEmbedding(k, out.data()).ok() || out != v) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}


TEST_P(BackendConformanceTest, ApplyGradientMatchesGetAxpyPut) {
  std::vector<float> before(8), grad(8), after(8);
  ASSERT_TRUE(backend_->GetEmbedding(11, before.data()).ok());
  for (int d = 0; d < 8; ++d) grad[d] = 0.25f * static_cast<float>(d + 1);
  ASSERT_TRUE(backend_->ApplyGradient(11, grad.data(), 0.1f).ok());
  ASSERT_TRUE(backend_->GetEmbedding(11, after.data()).ok());
  for (int d = 0; d < 8; ++d) {
    EXPECT_NEAR(after[d], before[d] - 0.1f * grad[d], 1e-5f) << "dim " << d;
  }
  // Repeated application accumulates.
  ASSERT_TRUE(backend_->ApplyGradient(11, grad.data(), 0.1f).ok());
  ASSERT_TRUE(backend_->GetEmbedding(11, after.data()).ok());
  for (int d = 0; d < 8; ++d) {
    EXPECT_NEAR(after[d], before[d] - 0.2f * grad[d], 1e-5f) << "dim " << d;
  }
}

TEST_P(BackendConformanceTest, ApplyGradientOnFreshKeyStartsFromInit) {
  // A gradient on a never-stored key applies to the key's bootstrap, as if
  // a MultiGet had initialized it first.
  const Key key = 77;
  std::vector<float> init(8), grad(8), after(8);
  InitEmbedding(key, 8, init.data());
  for (int d = 0; d < 8; ++d) grad[d] = 0.5f * static_cast<float>(d + 1);
  ASSERT_TRUE(backend_->ApplyGradient(key, grad.data(), 0.1f).ok());
  ASSERT_TRUE(backend_->GetEmbedding(key, after.data()).ok());
  for (int d = 0; d < 8; ++d) {
    EXPECT_NEAR(after[d], init[d] - 0.1f * grad[d], 1e-5f) << "dim " << d;
  }
}

TEST_P(BackendConformanceTest, ConcurrentApplyGradientLosesNothingOnMlkv) {
  // The fused path is atomic per record on MLKV; emulated backends may
  // lose updates under races (the paper's point about stock engines), so
  // the exact-sum assertion applies to the MLKV backend only (local or
  // behind the wire — the server executes the same fused Rmw).
  if (std::get<0>(GetParam()) != BackendKind::kMlkv) {
    GTEST_SKIP() << "atomicity guaranteed only by the fused Rmw path";
  }
  std::vector<float> zero(8, 0.0f);
  ASSERT_TRUE(backend_->PutEmbedding(3, zero.data()).ok());
  constexpr int kThreads = 4;
  constexpr int kApplies = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::vector<float> grad(8, 1.0f);
      for (int i = 0; i < kApplies; ++i) {
        ASSERT_TRUE(backend_->ApplyGradient(3, grad.data(), 0.001f).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  std::vector<float> v(8);
  ASSERT_TRUE(backend_->GetEmbedding(3, v.data()).ok());
  for (int d = 0; d < 8; ++d) {
    EXPECT_NEAR(v[d], -0.001f * kThreads * kApplies, 1e-2f) << "dim " << d;
  }
}

// --- Batch-first surface: MultiGet / MultiPut / MultiApplyGradient ---

TEST_P(BackendConformanceTest, MultiPutThenMultiGetRoundTrips) {
  constexpr size_t kN = 64;
  std::vector<Key> keys(kN);
  std::vector<float> values(kN * 8);
  for (size_t i = 0; i < kN; ++i) {
    keys[i] = 100 + i * 3;
    for (int d = 0; d < 8; ++d) values[i * 8 + d] = i * 10.0f + d;
  }
  const BatchResult put = backend_->MultiPut(keys, values.data());
  EXPECT_TRUE(put.AllOk());
  EXPECT_EQ(put.size(), kN);
  std::vector<float> out(kN * 8);
  const BatchResult got = backend_->MultiGet(keys, out.data());
  EXPECT_TRUE(got.AllOk());
  EXPECT_EQ(got.found, kN);
  EXPECT_EQ(got.missing, 0u);
  EXPECT_EQ(out, values);
}

TEST_P(BackendConformanceTest, MultiGetReportsPerKeyFoundAndMissing) {
  std::vector<float> v(8, 1.5f);
  ASSERT_TRUE(backend_->PutEmbedding(10, v.data()).ok());
  ASSERT_TRUE(backend_->PutEmbedding(12, v.data()).ok());
  // Key 11 is absent and appears twice: the duplicate-key path must also
  // leave missing rows untouched.
  std::vector<Key> keys = {10, 11, 12, 13, 11};
  std::vector<float> out(keys.size() * 8, -7.0f);
  MultiGetOptions no_init;
  no_init.init_missing = false;
  const BatchResult r = backend_->MultiGet(keys, out.data(), no_init);
  EXPECT_EQ(r.codes[0], Status::Code::kOk);
  EXPECT_EQ(r.codes[1], Status::Code::kNotFound);
  EXPECT_EQ(r.codes[2], Status::Code::kOk);
  EXPECT_EQ(r.codes[3], Status::Code::kNotFound);
  EXPECT_EQ(r.codes[4], Status::Code::kNotFound);
  EXPECT_EQ(r.found, 2u);
  EXPECT_EQ(r.missing, 3u);
  EXPECT_FALSE(r.AllOk());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_TRUE(r.StatusAt(1).IsNotFound());
  // Found rows are served; missing rows stay untouched.
  EXPECT_FLOAT_EQ(out[0], 1.5f);
  EXPECT_FLOAT_EQ(out[8], -7.0f);
  EXPECT_FLOAT_EQ(out[3 * 8], -7.0f);
  EXPECT_FLOAT_EQ(out[4 * 8], -7.0f);
}

TEST_P(BackendConformanceTest, MultiGetInitializesMissingAndCountsThem) {
  std::vector<float> v(8, 2.0f);
  ASSERT_TRUE(backend_->PutEmbedding(20, v.data()).ok());
  std::vector<Key> keys = {20, 21};
  std::vector<float> out(keys.size() * 8);
  const BatchResult r = backend_->MultiGet(keys, out.data());
  EXPECT_TRUE(r.AllOk());
  EXPECT_EQ(r.found, 1u);
  EXPECT_EQ(r.missing, 1u) << "fresh key should count as missing";
  // The bootstrap is the shared deterministic derivation.
  Rng rng(Hash64(Key{21} ^ 0xE5B0C47Aull));
  const float scale = 1.0f / std::sqrt(8.0f);
  for (int d = 0; d < 8; ++d) {
    EXPECT_FLOAT_EQ(out[8 + d],
                    static_cast<float>(rng.NextDouble() * 2.0 - 1.0) * scale);
  }
}

TEST_P(BackendConformanceTest, MultiGetDuplicateKeysAgree) {
  std::vector<Key> keys = {9, 9, 9};
  std::vector<float> out(keys.size() * 8);
  const BatchResult r = backend_->MultiGet(keys, out.data());
  EXPECT_TRUE(r.AllOk());
  EXPECT_EQ(r.missing, 1u) << "only the first occurrence bootstraps";
  EXPECT_EQ(r.found, 2u);
  for (int d = 0; d < 8; ++d) {
    EXPECT_FLOAT_EQ(out[d], out[8 + d]);
    EXPECT_FLOAT_EQ(out[d], out[16 + d]);
  }
}

TEST_P(BackendConformanceTest, MultiPutDuplicateKeysLastWins) {
  std::vector<Key> keys = {4, 4};
  std::vector<float> values(keys.size() * 8);
  for (int d = 0; d < 8; ++d) {
    values[d] = 1.0f;
    values[8 + d] = 2.0f;
  }
  EXPECT_TRUE(backend_->MultiPut(keys, values.data()).AllOk());
  std::vector<float> out(8);
  ASSERT_TRUE(backend_->GetEmbedding(4, out.data()).ok());
  for (int d = 0; d < 8; ++d) EXPECT_FLOAT_EQ(out[d], 2.0f);
}

TEST_P(BackendConformanceTest, MultiApplyGradientAccumulatesDuplicates) {
  std::vector<float> zero(8, 0.0f);
  ASSERT_TRUE(backend_->PutEmbedding(30, zero.data()).ok());
  ASSERT_TRUE(backend_->PutEmbedding(31, zero.data()).ok());
  // Key 30 appears twice with different gradients: SGD is linear, so the
  // batch must apply their sum no matter how the engine dedups.
  std::vector<Key> keys = {30, 31, 30};
  std::vector<float> grads(keys.size() * 8);
  for (int d = 0; d < 8; ++d) {
    grads[d] = 1.0f;
    grads[8 + d] = 2.0f;
    grads[16 + d] = 3.0f;
  }
  EXPECT_TRUE(backend_->MultiApplyGradient(keys, grads.data(), 0.5f).AllOk());
  std::vector<float> out(8);
  ASSERT_TRUE(backend_->GetEmbedding(30, out.data()).ok());
  for (int d = 0; d < 8; ++d) EXPECT_NEAR(out[d], -2.0f, 1e-5f);
  ASSERT_TRUE(backend_->GetEmbedding(31, out.data()).ok());
  for (int d = 0; d < 8; ++d) EXPECT_NEAR(out[d], -1.0f, 1e-5f);
}

TEST_P(BackendConformanceTest, UntrackedMultiGetServesEveryKey) {
  // Untracked batch reads must serve values (bootstrapping fresh keys) on
  // every backend; on MLKV they additionally leave the staleness clocks
  // alone (asserted at the store layer by staleness_test).
  std::vector<float> v = {3, 1, 4, 1, 5, 9, 2, 6};
  ASSERT_TRUE(backend_->PutEmbedding(77, v.data()).ok());
  std::vector<Key> keys = {77, 78};
  std::vector<float> out(keys.size() * 8);
  MultiGetOptions untracked;
  untracked.untracked = true;
  const BatchResult r = backend_->MultiGet(keys, out.data(), untracked);
  EXPECT_TRUE(r.AllOk());
  EXPECT_EQ(r.found, 1u);
  EXPECT_EQ(r.missing, 1u);
  for (int d = 0; d < 8; ++d) EXPECT_FLOAT_EQ(out[d], v[d]);
}

const char* KindName(const ::testing::TestParamInfo<BackendKind>& info) {
  return KindNameOf(info.param);
}

std::string ConformanceParamName(
    const ::testing::TestParamInfo<ConformanceParam>& info) {
  std::string name = KindNameOf(std::get<0>(info.param));
  switch (std::get<1>(info.param)) {
    case Via::kInProcess: break;
    case Via::kRemote: name += "Remote"; break;
    case Via::kCluster: name += "Cluster"; break;
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendConformanceTest,
    ::testing::Values(ConformanceParam{BackendKind::kMlkv, Via::kInProcess},
                      ConformanceParam{BackendKind::kFaster, Via::kInProcess},
                      ConformanceParam{BackendKind::kLsm, Via::kInProcess},
                      ConformanceParam{BackendKind::kBtree, Via::kInProcess},
                      ConformanceParam{BackendKind::kInMemory,
                                       Via::kInProcess}),
    ConformanceParamName);

// The same contract over the wire: RemoteBackend in front of a loopback
// KvServer must be indistinguishable from the engine linked in-process.
INSTANTIATE_TEST_SUITE_P(
    RemoteLoopback, BackendConformanceTest,
    ::testing::Values(ConformanceParam{BackendKind::kMlkv, Via::kRemote},
                      ConformanceParam{BackendKind::kFaster, Via::kRemote}),
    ConformanceParamName);

// And across a partitioned 2-server cluster: ClusterBackend's scatter /
// gather (plus the servers' ownership enforcement) must also be
// indistinguishable from the engine linked in-process.
INSTANTIATE_TEST_SUITE_P(
    ClusterLoopback, BackendConformanceTest,
    ::testing::Values(ConformanceParam{BackendKind::kMlkv, Via::kCluster},
                      ConformanceParam{BackendKind::kFaster, Via::kCluster}),
    ConformanceParamName);

// Large batches on the disk engines: the hybrid-log engines scatter their
// shard sub-batches over their Mlkv's lookahead pool, LSM and B-tree run
// them inline after dedup. The conformance contract must not change with
// either.
class BackendBatchParallelTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>();
    BackendConfig cfg;
    cfg.dir = dir_->File("backend");
    cfg.dim = 8;
    cfg.buffer_bytes = 4ull << 20;
    cfg.staleness_bound = kAspBound;
    ASSERT_TRUE(MakeBackend(GetParam(), cfg, &backend_).ok());
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<KvBackend> backend_;
};

TEST_P(BackendBatchParallelTest, LargeBatchRoundTripsAcrossChunks) {
  constexpr size_t kN = 1000;
  std::vector<Key> keys(kN);
  std::vector<float> values(kN * 8);
  for (size_t i = 0; i < kN; ++i) {
    keys[i] = i * 7 + 1;
    for (int d = 0; d < 8; ++d) {
      values[i * 8 + d] = static_cast<float>(i + d);
    }
  }
  ASSERT_TRUE(backend_->MultiPut(keys, values.data()).AllOk());
  std::vector<float> out(kN * 8);
  const BatchResult r = backend_->MultiGet(keys, out.data());
  EXPECT_TRUE(r.AllOk());
  EXPECT_EQ(r.found, kN);
  EXPECT_EQ(out, values);
  std::vector<float> grads(kN * 8, 2.0f);
  EXPECT_TRUE(backend_->MultiApplyGradient(keys, grads.data(), 0.25f).AllOk());
  std::vector<float> one(8);
  ASSERT_TRUE(backend_->GetEmbedding(keys[123], one.data()).ok());
  for (int d = 0; d < 8; ++d) {
    EXPECT_NEAR(one[d], values[123 * 8 + d] - 0.5f, 1e-5f);
  }
}

TEST_P(BackendBatchParallelTest, MixedBatchKeepsPerKeyCodesInInputOrder) {
  // Seed every third key, then read a large no-init batch: per-key codes
  // must line up with input positions even after chunked fan-out + stitch.
  constexpr size_t kN = 600;
  std::vector<float> v(8, 4.0f);
  for (size_t i = 0; i < kN; i += 3) {
    ASSERT_TRUE(backend_->PutEmbedding(i, v.data()).ok());
  }
  std::vector<Key> keys(kN);
  for (size_t i = 0; i < kN; ++i) keys[i] = i;
  std::vector<float> out(kN * 8);
  MultiGetOptions no_init;
  no_init.init_missing = false;
  const BatchResult r = backend_->MultiGet(keys, out.data(), no_init);
  ASSERT_EQ(r.size(), kN);
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(r.codes[i], i % 3 == 0 ? Status::Code::kOk
                                     : Status::Code::kNotFound)
        << "key " << i;
  }
  EXPECT_EQ(r.found, kN / 3);
  EXPECT_EQ(r.missing, kN - kN / 3);
}

INSTANTIATE_TEST_SUITE_P(IoEngines, BackendBatchParallelTest,
                         ::testing::Values(BackendKind::kMlkv,
                                           BackendKind::kFaster,
                                           BackendKind::kLsm,
                                           BackendKind::kBtree),
                         KindName);

// Shard-routing conformance for the sharded engines (MLKV and FASTER):
// whatever shard a key scatters to, results must land at the caller's
// indices with semantics identical to the unsharded store.
class ShardRoutingConformanceTest : public ::testing::TestWithParam<
                                        std::tuple<BackendKind, uint32_t>> {
 protected:
  std::unique_ptr<KvBackend> MakeShardedBackend(const std::string& dir,
                                                uint32_t shard_bits) {
    BackendConfig cfg;
    cfg.dir = dir;
    cfg.dim = 8;
    cfg.buffer_bytes = 4ull << 20;
    cfg.staleness_bound = UINT32_MAX - 1;
    cfg.shard_bits = shard_bits;
    std::unique_ptr<KvBackend> backend;
    EXPECT_TRUE(MakeBackend(std::get<0>(GetParam()), cfg, &backend).ok());
    return backend;
  }
};

TEST_P(ShardRoutingConformanceTest, ShuffledBatchLandsInCallerOrder) {
  TempDir dir;
  auto backend = MakeShardedBackend(dir.File("b"), std::get<1>(GetParam()));
  constexpr size_t kN = 700;
  std::vector<Key> keys(kN);
  for (size_t i = 0; i < kN; ++i) keys[i] = i * 11 + 3;
  Rng rng(7);
  for (size_t i = kN - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.Next() % (i + 1)]);
  }
  std::vector<float> values(kN * 8);
  for (size_t i = 0; i < kN; ++i) {
    for (int d = 0; d < 8; ++d) {
      values[i * 8 + d] = static_cast<float>(keys[i] + d);
    }
  }
  ASSERT_TRUE(backend->MultiPut(keys, values.data()).AllOk());
  std::vector<float> out(kN * 8);
  const BatchResult r = backend->MultiGet(keys, out.data());
  ASSERT_TRUE(r.AllOk());
  EXPECT_EQ(out, values);
}

TEST_P(ShardRoutingConformanceTest, ResultsIndependentOfShardCount) {
  // The shard count is a layout/scaling knob, never a semantic one: the
  // deterministic bootstrap and a fixed op sequence must produce identical
  // vectors under any shard_bits.
  TempDir dir;
  auto sharded = MakeShardedBackend(dir.File("s"), std::get<1>(GetParam()));
  auto single = MakeShardedBackend(dir.File("u"), 0);
  constexpr size_t kN = 300;
  std::vector<Key> keys(kN);
  for (size_t i = 0; i < kN; ++i) keys[i] = i * 5 + 1;
  std::vector<float> a(kN * 8), b(kN * 8);
  ASSERT_TRUE(sharded->MultiGet(keys, a.data()).AllOk());  // init path
  ASSERT_TRUE(single->MultiGet(keys, b.data()).AllOk());
  EXPECT_EQ(a, b);
  std::vector<float> grads(kN * 8, 1.5f);
  ASSERT_TRUE(sharded->MultiApplyGradient(keys, grads.data(), 0.1f).AllOk());
  ASSERT_TRUE(single->MultiApplyGradient(keys, grads.data(), 0.1f).AllOk());
  ASSERT_TRUE(sharded->MultiGet(keys, a.data()).AllOk());
  ASSERT_TRUE(single->MultiGet(keys, b.data()).AllOk());
  EXPECT_EQ(a, b);
}

TEST_P(ShardRoutingConformanceTest, MissingKeysReportAtCallerPositions) {
  TempDir dir;
  auto backend = MakeShardedBackend(dir.File("b"), std::get<1>(GetParam()));
  constexpr size_t kN = 400;
  std::vector<float> v(8, 2.0f);
  for (size_t i = 0; i < kN; i += 2) {
    ASSERT_TRUE(backend->PutEmbedding(i, v.data()).ok());
  }
  std::vector<Key> keys(kN);
  for (size_t i = 0; i < kN; ++i) keys[i] = i;
  std::vector<float> out(kN * 8);
  MultiGetOptions no_init;
  no_init.init_missing = false;
  const BatchResult r = backend->MultiGet(keys, out.data(), no_init);
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(r.codes[i], i % 2 == 0 ? Status::Code::kOk
                                     : Status::Code::kNotFound)
        << "key " << i;
  }
  EXPECT_EQ(r.found, kN / 2);
  EXPECT_EQ(r.missing, kN / 2);
}

std::string ShardParamName(
    const ::testing::TestParamInfo<std::tuple<BackendKind, uint32_t>>& info) {
  return std::string(KindName(::testing::TestParamInfo<BackendKind>(
             std::get<0>(info.param), info.index))) +
         "Bits" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    ShardedEngines, ShardRoutingConformanceTest,
    ::testing::Combine(::testing::Values(BackendKind::kMlkv,
                                         BackendKind::kFaster),
                       ::testing::Values(0u, 1u, 2u, 3u)),
    ShardParamName);

// FASTER is the MLKV table path with staleness tracking and lookahead off
// (paper Fig. 10's framing). Pinned at the seam under settings where MLKV
// would do both: a BSP bound, reads repeated with no Put in between, and a
// Lookahead before every batch. The batch mixes keys the load left on disk
// with keys still in the mutable region, so both read paths run.
TEST(FasterBaselineShapeTest, NoStalenessTrackingNoLookahead) {
  TempDir dir;
  BackendConfig cfg;
  cfg.dir = dir.File("backend");
  cfg.dim = 8;
  cfg.buffer_bytes = 64u << 10;
  cfg.shard_bits = 0;
  cfg.staleness_bound = 0;
  std::unique_ptr<KvBackend> backend;
  ASSERT_TRUE(MakeBackend(BackendKind::kFaster, cfg, &backend).ok());

  constexpr size_t kN = 4000;  // ~256 KiB of records vs a 64 KiB buffer
  std::vector<Key> keys(kN);
  for (size_t i = 0; i < kN; ++i) keys[i] = i * 3 + 1;
  std::vector<float> values(kN * 8, 1.0f);
  ASSERT_TRUE(backend->MultiPut(keys, values.data()).AllOk());
  std::vector<Key> batch(keys.begin(), keys.begin() + 100);  // on disk
  batch.insert(batch.end(), keys.end() - 100, keys.end());   // mutable
  std::vector<float> out(batch.size() * 8);
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(backend->Lookahead(batch).ok());
    const BatchResult r = backend->MultiGet(batch, out.data());
    EXPECT_EQ(r.busy, 0u) << "round " << round;
    EXPECT_TRUE(r.AllOk()) << "round " << round;
  }
  backend->WaitIdle();

  obs::MetricsSink sink;
  backend->CollectMetrics(&sink);
  // The setup really reads the device, so a promotion had work to do.
  EXPECT_GT(MetricSum(sink, "mlkv_io_disk_record_reads_total"), 0u);
  EXPECT_EQ(MetricSum(sink, "mlkv_store_staleness_waits_total"), 0u);
  EXPECT_EQ(MetricSum(sink, "mlkv_store_promotions_total"), 0u);
}

// The hybrid-log store's counters are read only through per-shard samples:
// every store and I/O family (all but the backend's device byte totals)
// is emitted exactly once per shard, labelled with the shard's index, and
// never as an unlabeled total.
TEST(StoreMetricsTest, EveryStoreFamilyIsEmittedOncePerShard) {
  TempDir dir;
  BackendConfig cfg;
  cfg.dir = dir.File("backend");
  cfg.dim = 8;
  cfg.shard_bits = 2;
  std::unique_ptr<KvBackend> backend;
  ASSERT_TRUE(MakeBackend(BackendKind::kMlkv, cfg, &backend).ok());
  std::vector<Key> keys(64);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i;
  std::vector<float> rows(keys.size() * 8, 1.0f);
  ASSERT_TRUE(backend->MultiPut(keys, rows.data()).AllOk());

  obs::MetricsSink sink;
  backend->CollectMetrics(&sink);
  std::set<std::string> families;
  // Series (name plus every label but `shard`) -> the shards it was seen on.
  std::map<std::string, std::multiset<std::string>> shards_of;
  for (const obs::MetricsSink::Sample& s : sink.samples()) {
    const bool store_family =
        s.name.starts_with("mlkv_store_") ||
        s.name == "mlkv_shard_ops_total" ||
        (s.name.starts_with("mlkv_io_") &&
         !s.name.starts_with("mlkv_io_device_"));
    if (!store_family) continue;
    families.insert(s.name);
    std::string series = s.name, shard;
    for (const auto& [key, value] : s.labels) {
      if (key == "shard") {
        shard = value;
      } else {
        series += "," + key + "=" + value;
      }
    }
    EXPECT_FALSE(shard.empty()) << series << " has no shard label";
    shards_of[series].insert(shard);
  }
  // 15 mlkv_store_*, 10 mlkv_io_* and mlkv_shard_ops_total (4 op series).
  EXPECT_EQ(families.size(), 26u);
  EXPECT_EQ(shards_of.size(), 29u);
  const std::multiset<std::string> all = {"0", "1", "2", "3"};
  for (const auto& [series, shards] : shards_of) {
    EXPECT_EQ(shards, all) << series;
  }
  EXPECT_EQ(MetricSum(sink, "mlkv_store_inserts_total"), keys.size());
}

// --- remote/in-process parity --------------------------------------------

// Two instances of the same engine, one linked in-process and one behind a
// loopback KvServer, driven through an identical op sequence: MultiGet
// results must be byte-identical and every per-key BatchResult code equal.
// This pins the wire encode/decode to exact fidelity — float rows survive
// bit-for-bit, codes and counts are not re-derived on the client.
class RemoteParityTest : public ::testing::TestWithParam<BackendKind> {};

TEST_P(RemoteParityTest, ByteIdenticalResultsAndCodesVsInProcess) {
  TempDir dir;
  BackendConfig cfg;
  cfg.dim = 8;
  cfg.buffer_bytes = 4ull << 20;
  cfg.staleness_bound = UINT32_MAX - 1;

  cfg.dir = dir.File("local");
  std::unique_ptr<KvBackend> local;
  ASSERT_TRUE(MakeBackend(GetParam(), cfg, &local).ok());

  cfg.dir = dir.File("served");
  std::unique_ptr<KvBackend> served;
  ASSERT_TRUE(MakeBackend(GetParam(), cfg, &served).ok());
  net::KvServer server(std::move(served), {});
  ASSERT_TRUE(server.Start().ok());
  BackendConfig rcfg;
  rcfg.remote_addr = server.addr();
  std::unique_ptr<KvBackend> remote;
  ASSERT_TRUE(MakeBackend(BackendKind::kRemote, rcfg, &remote).ok());
  EXPECT_EQ(remote->dim(), local->dim());
  EXPECT_EQ(remote->shard_bits(), local->shard_bits());

  constexpr size_t kN = 200;
  std::vector<Key> keys(kN);
  for (size_t i = 0; i < kN; ++i) keys[i] = i * 13 + 1;
  keys[5] = keys[50];  // duplicates ride along
  keys[7] = keys[70];

  auto expect_same = [&](const BatchResult& a, const BatchResult& b,
                         const char* what) {
    EXPECT_EQ(a.codes, b.codes) << what;
    EXPECT_EQ(a.found, b.found) << what;
    EXPECT_EQ(a.missing, b.missing) << what;
    EXPECT_EQ(a.busy, b.busy) << what;
    EXPECT_EQ(a.failed, b.failed) << what;
  };

  // 1. Bootstrap pass: deterministic init must agree bit-for-bit.
  std::vector<float> la(kN * 8), ra(kN * 8);
  expect_same(local->MultiGet(keys, la.data()),
              remote->MultiGet(keys, ra.data()), "init MultiGet");
  EXPECT_EQ(la, ra);

  // 2. Gradient pass (duplicates accumulate identically).
  std::vector<float> grads(kN * 8);
  for (size_t i = 0; i < grads.size(); ++i) {
    grads[i] = static_cast<float>(i % 17) * 0.125f - 1.0f;
  }
  expect_same(local->MultiApplyGradient(keys, grads.data(), 0.05f),
              remote->MultiApplyGradient(keys, grads.data(), 0.05f),
              "MultiApplyGradient");

  // 3. Overwrite a slice.
  std::vector<float> values(kN * 8);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<float>(i) * 0.5f;
  }
  expect_same(local->MultiPut({keys.data(), 64}, values.data()),
              remote->MultiPut({keys.data(), 64}, values.data()),
              "MultiPut");

  // 4. Mixed found/missing read-back, no init: untouched rows, identical
  // codes at every caller position.
  std::vector<Key> probe(keys.begin(), keys.begin() + 100);
  for (size_t i = 0; i < probe.size(); i += 3) {
    probe[i] = 1000000 + i;  // never written
  }
  MultiGetOptions no_init;
  no_init.init_missing = false;
  std::vector<float> lb(probe.size() * 8, -3.0f), rb(probe.size() * 8, -3.0f);
  expect_same(local->MultiGet(probe, lb.data(), no_init),
              remote->MultiGet(probe, rb.data(), no_init), "mixed MultiGet");
  EXPECT_EQ(lb, rb);

  remote.reset();
  server.Stop();
}

INSTANTIATE_TEST_SUITE_P(ShardedEngines, RemoteParityTest,
                         ::testing::Values(BackendKind::kMlkv,
                                           BackendKind::kFaster),
                         KindName);

// Per-key kBusy (bounded-staleness abort) must survive the wire: a BSP
// table whose key is read twice without an intervening Put reports the
// second read Busy, remote exactly like local.
TEST(RemoteBusyPropagationTest, BusyCodesCrossTheWire) {
  TempDir dir;
  BackendConfig cfg;
  cfg.dir = dir.File("backend");
  cfg.dim = 8;
  cfg.buffer_bytes = 4ull << 20;
  cfg.staleness_bound = 0;   // BSP: one Get per Put
  cfg.busy_spin_limit = 64;  // abort fast — no writer will ever come
  std::unique_ptr<KvBackend> engine;
  ASSERT_TRUE(MakeBackend(BackendKind::kMlkv, cfg, &engine).ok());
  net::KvServer server(std::move(engine), {});
  ASSERT_TRUE(server.Start().ok());
  BackendConfig rcfg;
  rcfg.remote_addr = server.addr();
  std::unique_ptr<KvBackend> remote;
  ASSERT_TRUE(MakeBackend(BackendKind::kRemote, rcfg, &remote).ok());

  std::vector<Key> key = {42};
  std::vector<float> v(8, 1.0f);
  ASSERT_TRUE(remote->MultiPut(key, v.data()).AllOk());
  std::vector<float> out(8);
  EXPECT_TRUE(remote->MultiGet(key, out.data()).AllOk());
  const BatchResult second = remote->MultiGet(key, out.data());
  EXPECT_EQ(second.codes[0], Status::Code::kBusy);
  EXPECT_EQ(second.busy, 1u);
  EXPECT_EQ(second.found, 0u);
  EXPECT_TRUE(second.status().IsBusy());
  // The standard caller recovery — an untracked re-read — works remotely.
  MultiGetOptions untracked;
  untracked.untracked = true;
  const BatchResult peek = remote->MultiGet(key, out.data(), untracked);
  EXPECT_TRUE(peek.AllOk());
  EXPECT_FLOAT_EQ(out[0], 1.0f);

  remote.reset();
  server.Stop();
}

// The serving read through the caching decorator: untracked, and absent
// keys stay kNotFound. Each absent key counts missing exactly once, on the
// cold call (every key goes to the engine) and on the repeat (present keys
// hit the cache), and never leaves `found` short.
TEST(CachingBackendCountsTest, UninitializedMissesCountOnce) {
  TempDir dir;
  BackendConfig cfg;
  cfg.dir = dir.File("backend");
  cfg.dim = 8;
  cfg.buffer_bytes = 4ull << 20;
  std::unique_ptr<KvBackend> engine, cached;
  ASSERT_TRUE(MakeBackend(BackendKind::kMlkv, cfg, &engine).ok());
  ASSERT_TRUE(MakeCachingBackend(std::move(engine), /*capacity=*/64,
                                 CacheAdmission::kLru, &cached)
                  .ok());
  const Key present = 7, absent = 8;
  std::vector<float> v(8, 1.0f);
  ASSERT_TRUE(cached->PutEmbedding(present, v.data()).ok());

  MultiGetOptions serve;
  serve.init_missing = false;
  serve.untracked = true;
  std::vector<float> out(2 * 8);
  for (int pass = 0; pass < 2; ++pass) {
    const std::vector<Key> both = {present, absent};
    const BatchResult r = cached->MultiGet(both, out.data(), serve);
    EXPECT_EQ(r.found, 1u) << "pass " << pass;
    EXPECT_EQ(r.missing, 1u) << "pass " << pass;
    EXPECT_EQ(r.codes[1], Status::Code::kNotFound) << "pass " << pass;
    const BatchResult only = cached->MultiGet({&absent, 1}, out.data(), serve);
    EXPECT_EQ(only.found, 0u) << "pass " << pass;
    EXPECT_EQ(only.missing, 1u) << "pass " << pass;
  }
  // An initializing read still moves the fresh key found -> missing.
  const Key fresh = 9;
  serve.init_missing = true;
  const BatchResult init = cached->MultiGet({&fresh, 1}, out.data(), serve);
  EXPECT_TRUE(init.AllOk());
  EXPECT_EQ(init.found, 0u);
  EXPECT_EQ(init.missing, 1u);
}

}  // namespace
}  // namespace mlkv
