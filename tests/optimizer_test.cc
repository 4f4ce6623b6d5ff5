// Fused embedding optimizer tests: update math against hand-computed
// references, state layout, EmbeddingTable integration, and a convergence
// property sweep across all optimizer kinds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "io/temp_dir.h"
#include "mlkv/mlkv.h"
#include "mlkv/optimizer.h"
#include "store_metrics.h"

namespace mlkv {
namespace {

TEST(OptimizerLayoutTest, StateFloatsPerKind) {
  EXPECT_EQ(OptimizerStateFloats(OptimizerKind::kSgd, 16), 0u);
  EXPECT_EQ(OptimizerStateFloats(OptimizerKind::kMomentum, 16), 16u);
  EXPECT_EQ(OptimizerStateFloats(OptimizerKind::kAdagrad, 16), 16u);
  EXPECT_EQ(OptimizerStateFloats(OptimizerKind::kAdam, 16), 33u);
}

TEST(OptimizerLayoutTest, ValueBytes) {
  EXPECT_EQ(OptimizerValueBytes(OptimizerKind::kSgd, 8), 32u);
  EXPECT_EQ(OptimizerValueBytes(OptimizerKind::kMomentum, 8), 64u);
  EXPECT_EQ(OptimizerValueBytes(OptimizerKind::kAdam, 8), (8 + 17) * 4u);
}

TEST(OptimizerLayoutTest, KindNames) {
  EXPECT_STREQ(OptimizerKindName(OptimizerKind::kSgd), "sgd");
  EXPECT_STREQ(OptimizerKindName(OptimizerKind::kMomentum), "momentum");
  EXPECT_STREQ(OptimizerKindName(OptimizerKind::kAdagrad), "adagrad");
  EXPECT_STREQ(OptimizerKindName(OptimizerKind::kAdam), "adam");
}

TEST(OptimizerMathTest, SgdStep) {
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kSgd;
  cfg.lr = 0.1f;
  float emb[2] = {1.0f, -2.0f};
  const float grad[2] = {0.5f, -0.25f};
  ApplyOptimizerUpdate(cfg, 2, emb, nullptr, grad);
  EXPECT_FLOAT_EQ(emb[0], 1.0f - 0.1f * 0.5f);
  EXPECT_FLOAT_EQ(emb[1], -2.0f + 0.1f * 0.25f);
}

TEST(OptimizerMathTest, SgdWeightDecay) {
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kSgd;
  cfg.lr = 0.1f;
  cfg.weight_decay = 0.01f;
  float emb[1] = {2.0f};
  const float grad[1] = {0.0f};
  ApplyOptimizerUpdate(cfg, 1, emb, nullptr, grad);
  // Pure decay: w -= lr * wd * w.
  EXPECT_FLOAT_EQ(emb[0], 2.0f - 0.1f * 0.01f * 2.0f);
}

TEST(OptimizerMathTest, MomentumAccumulatesVelocity) {
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kMomentum;
  cfg.lr = 0.1f;
  cfg.momentum = 0.9f;
  float emb[1] = {0.0f};
  float state[1] = {0.0f};
  const float grad[1] = {1.0f};
  ApplyOptimizerUpdate(cfg, 1, emb, state, grad);
  // u1 = 1, w1 = -0.1
  EXPECT_FLOAT_EQ(state[0], 1.0f);
  EXPECT_FLOAT_EQ(emb[0], -0.1f);
  ApplyOptimizerUpdate(cfg, 1, emb, state, grad);
  // u2 = 0.9 * 1 + 1 = 1.9, w2 = -0.1 - 0.19 = -0.29
  EXPECT_FLOAT_EQ(state[0], 1.9f);
  EXPECT_FLOAT_EQ(emb[0], -0.29f);
}

TEST(OptimizerMathTest, AdagradShrinksEffectiveLr) {
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kAdagrad;
  cfg.lr = 0.1f;
  cfg.eps = 0.0f;
  float emb[1] = {0.0f};
  float state[1] = {0.0f};
  const float grad[1] = {2.0f};
  ApplyOptimizerUpdate(cfg, 1, emb, state, grad);
  // a1 = 4, step = lr * 2 / 2 = 0.1
  EXPECT_FLOAT_EQ(state[0], 4.0f);
  EXPECT_FLOAT_EQ(emb[0], -0.1f);
  const float w1 = emb[0];
  ApplyOptimizerUpdate(cfg, 1, emb, state, grad);
  // a2 = 8, step2 = 0.1 * 2 / sqrt(8) < 0.1 — strictly smaller.
  EXPECT_FLOAT_EQ(state[0], 8.0f);
  EXPECT_LT(std::abs(emb[0] - w1), 0.1f);
}

TEST(OptimizerMathTest, AdamFirstStepIsBiasCorrected) {
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kAdam;
  cfg.lr = 0.001f;
  cfg.eps = 0.0f;
  float emb[1] = {0.0f};
  float state[3] = {0.0f, 0.0f, 0.0f};  // m, v, t
  const float grad[1] = {3.0f};
  ApplyOptimizerUpdate(cfg, 1, emb, state, grad);
  // With bias correction the first step is exactly lr * sign(g).
  EXPECT_NEAR(emb[0], -0.001f, 1e-7f);
  EXPECT_FLOAT_EQ(state[2], 1.0f);  // step counter advanced
}

TEST(OptimizerMathTest, AdamMatchesReferenceTrace) {
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kAdam;
  cfg.lr = 0.01f;
  float emb[1] = {1.0f};
  float state[3] = {0.0f, 0.0f, 0.0f};
  // Reference implementation (double precision, same recurrences).
  double w = 1.0, m = 0.0, v = 0.0;
  for (int t = 1; t <= 20; ++t) {
    const double g = 2.0 * w;  // grad of w^2
    const float gf[1] = {static_cast<float>(g)};
    ApplyOptimizerUpdate(cfg, 1, emb, state, gf);
    m = 0.9 * m + 0.1 * g;
    v = 0.999 * v + 0.001 * g * g;
    const double mh = m / (1.0 - std::pow(0.9, t));
    const double vh = v / (1.0 - std::pow(0.999, t));
    w -= 0.01 * mh / (std::sqrt(vh) + 1e-8);
    ASSERT_NEAR(emb[0], w, 1e-4) << "step " << t;
  }
}

// ------------------------------------------------- table integration ----

struct TableFixture {
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  EmbeddingTable* table = nullptr;

  explicit TableFixture(OptimizerKind kind, float lr = 0.1f) {
    MlkvOptions opts;
    opts.dir = dir.path() + "/db";
    opts.store.index_slots = 1024;
    opts.store.page_size = 4096;
    opts.store.mem_size = 16 * 4096;
    EXPECT_TRUE(Mlkv::Open(opts, &db).ok());
    OptimizerConfig cfg;
    cfg.kind = kind;
    cfg.lr = lr;
    EXPECT_TRUE(db->OpenTable("t", 8, 16, &table, cfg).ok());
  }
};

TEST(FusedOptimizerTableTest, GetReturnsEmbeddingOnly) {
  TableFixture f(OptimizerKind::kAdam);
  const Key key = 5;
  std::vector<float> emb(8);
  ASSERT_TRUE(f.table->GetOrInit({&key, 1}, emb.data()).ok());
  EXPECT_EQ(f.table->value_bytes(), 8 * 4u);
  EXPECT_EQ(f.table->record_bytes(), (8 + 17) * 4u);
  // A second Get returns the same embedding (state invisible).
  std::vector<float> again(8);
  ASSERT_TRUE(f.table->Get({&key, 1}, again.data()).ok());
  EXPECT_EQ(emb, again);
}

TEST(FusedOptimizerTableTest, StatePersistsAcrossApplications) {
  // Adagrad's accumulated squared gradients must shrink later steps; that
  // only happens if state survives between ApplyGradients calls.
  TableFixture f(OptimizerKind::kAdagrad);
  const Key key = 9;
  std::vector<float> zero(8, 0.0f);
  ASSERT_TRUE(f.table->Put({&key, 1}, zero.data()).ok());
  std::vector<float> grad(8, 1.0f);
  std::vector<float> w1(8), w2(8);
  ASSERT_TRUE(f.table->ApplyGradients({&key, 1}, grad.data()).ok());
  ASSERT_TRUE(f.table->Get({&key, 1}, w1.data()).ok());
  ASSERT_TRUE(f.table->ApplyGradients({&key, 1}, grad.data()).ok());
  ASSERT_TRUE(f.table->Get({&key, 1}, w2.data()).ok());
  const float step1 = std::abs(w1[0]);
  const float step2 = std::abs(w2[0] - w1[0]);
  EXPECT_GT(step1, 0.0f);
  EXPECT_LT(step2, step1);  // effective lr decayed => state persisted
}

TEST(FusedOptimizerTableTest, PutPreservesOptimizerState) {
  TableFixture f(OptimizerKind::kAdagrad);
  const Key key = 3;
  std::vector<float> zero(8, 0.0f), grad(8, 1.0f);
  ASSERT_TRUE(f.table->Put({&key, 1}, zero.data()).ok());
  ASSERT_TRUE(f.table->ApplyGradients({&key, 1}, grad.data()).ok());
  // Overwrite the embedding; the accumulator must survive.
  ASSERT_TRUE(f.table->Put({&key, 1}, zero.data()).ok());
  std::vector<float> w(8);
  ASSERT_TRUE(f.table->ApplyGradients({&key, 1}, grad.data()).ok());
  ASSERT_TRUE(f.table->Get({&key, 1}, w.data()).ok());
  // With state preserved (a = 1 then 2): step = 0.1/sqrt(2) ≈ 0.0707.
  // With state reset it would be 0.1 again.
  EXPECT_NEAR(std::abs(w[0]), 0.1f / std::sqrt(2.0f), 1e-3f);
}

TEST(FusedOptimizerTableTest, LegacySgdOverloadIgnoresConfig) {
  TableFixture f(OptimizerKind::kAdam);
  const Key key = 4;
  std::vector<float> zero(8, 0.0f), grad(8, 1.0f), w(8);
  ASSERT_TRUE(f.table->Put({&key, 1}, zero.data()).ok());
  ASSERT_TRUE(f.table->ApplyGradients({&key, 1}, grad.data(), 0.5f).ok());
  ASSERT_TRUE(f.table->Get({&key, 1}, w.data()).ok());
  EXPECT_FLOAT_EQ(w[0], -0.5f);  // plain SGD with the explicit lr
}

TEST(FusedOptimizerTableTest, ColdTrackedReadsKeepFusedState) {
  // A tracked Get of a disk-resident row copies the whole record to the
  // tail, fused optimizer state included. Two Get + ApplyGradients steps
  // over rows pushed to disk (first through the pending-read wave, then
  // the blocking path) must leave every record bitwise equal to the same
  // steps on a table that never leaves memory.
  constexpr uint32_t kDim = 8;
  constexpr Key kKeys = 32;
  for (const OptimizerKind kind :
       {OptimizerKind::kAdagrad, OptimizerKind::kAdam}) {
    SCOPED_TRACE(OptimizerKindName(kind));
    OptimizerConfig cfg;
    cfg.kind = kind;
    cfg.lr = 0.1f;
    TempDir dir;
    const auto open = [&](const char* name, uint64_t mem_size,
                          std::unique_ptr<Mlkv>* db, EmbeddingTable** t) {
      MlkvOptions opts;
      opts.dir = dir.path() + "/" + name;
      opts.store.index_slots = 4096;
      opts.store.page_size = 4096;
      opts.store.mem_size = mem_size;
      ASSERT_TRUE(Mlkv::Open(opts, db).ok());
      ASSERT_TRUE((*db)->OpenTable("t", kDim, 16, t, cfg).ok());
    };
    std::unique_ptr<Mlkv> cold_db, warm_db;
    EmbeddingTable* cold = nullptr;
    EmbeddingTable* warm = nullptr;
    open("cold", 16 * 4096, &cold_db, &cold);
    open("warm", 4u << 20, &warm_db, &warm);

    std::vector<Key> keys(kKeys);
    std::vector<float> rows(kKeys * kDim);
    for (Key k = 0; k < kKeys; ++k) {
      keys[k] = k;
      for (uint32_t d = 0; d < kDim; ++d) {
        rows[k * kDim + d] =
            0.01f * static_cast<float>(k) + static_cast<float>(d);
      }
    }
    ASSERT_TRUE(cold->Put(keys, rows.data()).ok());
    ASSERT_TRUE(warm->Put(keys, rows.data()).ok());

    Key filler = 1000;
    const auto bury = [&] {
      const std::vector<float> junk(kDim, 1.0f);
      for (Key k = 0; k < kKeys; ++k) {
        while (cold->store()->IsInMemory(k)) {
          ASSERT_TRUE(cold->Put({&filler, 1}, junk.data()).ok());
          ++filler;
        }
      }
    };
    for (int step = 0; step < 2; ++step) {
      bury();
      std::vector<float> got_cold(kKeys * kDim), got_warm(kKeys * kDim);
      if (step == 0) {  // batched with a sink: the pending-read wave
        BatchResult rc, rw;
        ASSERT_TRUE(cold->Get(keys, got_cold.data(), &rc).ok());
        ASSERT_TRUE(warm->Get(keys, got_warm.data(), &rw).ok());
        ASSERT_TRUE(rc.AllOk());
        ASSERT_TRUE(rw.AllOk());
      } else {  // fail-fast: the blocking path
        ASSERT_TRUE(cold->Get(keys, got_cold.data()).ok());
        ASSERT_TRUE(warm->Get(keys, got_warm.data()).ok());
      }
      EXPECT_EQ(got_cold, got_warm) << "step " << step;
      std::vector<float> grads(kKeys * kDim);
      for (size_t i = 0; i < grads.size(); ++i) {
        grads[i] = 0.05f * static_cast<float>(i % 7) -
                   0.1f * static_cast<float>(step);
      }
      ASSERT_TRUE(cold->ApplyGradients(keys, grads.data()).ok());
      ASSERT_TRUE(warm->ApplyGradients(keys, grads.data()).ok());
    }
    EXPECT_EQ(StoreMetric(*cold->store(), "mlkv_store_read_copies_total"),
              2 * kKeys);
    EXPECT_EQ(StoreMetric(*warm->store(), "mlkv_store_read_copies_total"), 0u);

    const uint32_t bytes = cold->record_bytes();
    for (const Key k : keys) {
      std::vector<char> a(bytes), b(bytes);
      uint32_t size_a = 0, size_b = 0;
      ASSERT_TRUE(
          cold->store()->ShardFor(k)->Peek(k, a.data(), bytes, &size_a).ok());
      ASSERT_TRUE(
          warm->store()->ShardFor(k)->Peek(k, b.data(), bytes, &size_b).ok());
      EXPECT_EQ(size_a, bytes) << "key " << k;
      EXPECT_EQ(size_b, bytes) << "key " << k;
      EXPECT_EQ(std::memcmp(a.data(), b.data(), bytes), 0) << "key " << k;
    }
  }
}

TEST(FusedOptimizerTableTest, StateSurvivesCheckpointRecover) {
  TempDir dir;
  MlkvOptions opts;
  opts.dir = dir.path() + "/db";
  opts.store.index_slots = 1024;
  opts.store.page_size = 4096;
  opts.store.mem_size = 16 * 4096;
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kAdagrad;
  cfg.lr = 0.1f;
  const Key key = 11;
  std::vector<float> zero(8, 0.0f), grad(8, 1.0f);
  {
    std::unique_ptr<Mlkv> db;
    ASSERT_TRUE(Mlkv::Open(opts, &db).ok());
    EmbeddingTable* table = nullptr;
    ASSERT_TRUE(db->OpenTable("t", 8, 16, &table, cfg).ok());
    ASSERT_TRUE(table->Put({&key, 1}, zero.data()).ok());
    ASSERT_TRUE(table->ApplyGradients({&key, 1}, grad.data()).ok());
    ASSERT_TRUE(db->CheckpointAll().ok());
  }
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(opts, &db).ok());
  EmbeddingTable* table = nullptr;
  ASSERT_TRUE(db->OpenTable("t", 8, 16, &table, cfg).ok());
  std::vector<float> w(8);
  ASSERT_TRUE(table->ApplyGradients({&key, 1}, grad.data()).ok());
  ASSERT_TRUE(table->Get({&key, 1}, w.data()).ok());
  // Accumulator recovered as 1, second step lands at -(0.1 + 0.1/sqrt(2)).
  EXPECT_NEAR(w[0], -(0.1f + 0.1f / std::sqrt(2.0f)), 1e-3f);
}

// Convergence sweep: every optimizer minimizes a per-row quadratic
// ||w - target||^2 through the fused path.
class OptimizerConvergenceTest
    : public ::testing::TestWithParam<OptimizerKind> {};

TEST_P(OptimizerConvergenceTest, MinimizesQuadratic) {
  const OptimizerKind kind = GetParam();
  const float lr = kind == OptimizerKind::kAdam ? 0.05f : 0.1f;
  TableFixture f(kind, lr);
  const int kKeys = 10;
  const uint32_t dim = 8;
  std::vector<float> zero(dim, 0.0f);
  std::vector<Key> keys(kKeys);
  for (int k = 0; k < kKeys; ++k) {
    keys[k] = k;
    ASSERT_TRUE(f.table->Put({&keys[k], 1}, zero.data()).ok());
  }
  auto target = [](Key k, uint32_t d) {
    return 0.1f * static_cast<float>(k) - 0.05f * static_cast<float>(d);
  };
  std::vector<float> w(dim), grad(dim);
  for (int step = 0; step < 600; ++step) {
    for (int k = 0; k < kKeys; ++k) {
      ASSERT_TRUE(f.table->Get({&keys[k], 1}, w.data()).ok());
      for (uint32_t d = 0; d < dim; ++d) {
        grad[d] = 2.0f * (w[d] - target(keys[k], d));
      }
      ASSERT_TRUE(f.table->ApplyGradients({&keys[k], 1}, grad.data()).ok());
    }
  }
  double err = 0;
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(f.table->Get({&keys[k], 1}, w.data()).ok());
    for (uint32_t d = 0; d < dim; ++d) {
      err = std::max(err, std::abs(static_cast<double>(w[d]) -
                                   target(keys[k], d)));
    }
  }
  EXPECT_LT(err, 0.02) << OptimizerKindName(kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, OptimizerConvergenceTest,
    ::testing::Values(OptimizerKind::kSgd, OptimizerKind::kMomentum,
                      OptimizerKind::kAdagrad, OptimizerKind::kAdam),
    [](const ::testing::TestParamInfo<OptimizerKind>& info) {
      return OptimizerKindName(info.param);
    });

}  // namespace
}  // namespace mlkv
