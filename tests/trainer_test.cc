// Integration tests: full training pipelines over real storage backends.
// Each asserts the pipeline runs end-to-end AND that the model genuinely
// learns (metric clears a threshold well above chance) — the property the
// paper's convergence figures rest on.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "backend/kv_backend.h"
#include "common/hash.h"
#include "io/temp_dir.h"
#include "train/ctr_trainer.h"
#include "train/ddp_sim.h"
#include "train/energy.h"
#include "train/gnn_trainer.h"
#include "train/kge_trainer.h"

namespace mlkv {
namespace {

std::unique_ptr<KvBackend> MakeTestBackend(const TempDir& dir,
                                           BackendKind kind,
                                           uint32_t dim,
                                           uint32_t bound = 64) {
  BackendConfig cfg;
  cfg.dir = dir.File("b");
  cfg.dim = dim;
  cfg.buffer_bytes = 8ull << 20;
  cfg.staleness_bound = bound;
  std::unique_ptr<KvBackend> backend;
  EXPECT_TRUE(MakeBackend(kind, cfg, &backend).ok());
  return backend;
}

CtrTrainerOptions SmallCtr() {
  CtrTrainerOptions o;
  o.data.num_fields = 4;
  o.data.field_cardinality = 2000;
  o.data.label_noise = 0.05;
  o.dim = 8;
  o.batch_size = 128;
  o.num_workers = 2;
  o.train_batches = 400;
  o.eval_every = 100;
  o.eval_samples = 1500;
  o.embedding_lr = 0.3f;
  return o;
}

TEST(CtrTrainerTest, LearnsOnMlkv) {
  TempDir dir;
  auto backend = MakeTestBackend(dir, BackendKind::kMlkv, 8);
  CtrTrainer trainer(backend.get(), SmallCtr());
  TrainResult r = trainer.Train();
  EXPECT_EQ(r.samples, 2u * 400u * 128u);
  ASSERT_FALSE(r.metric_curve.empty());
  EXPECT_GT(r.final_metric, 0.62) << "AUC must clear chance by a wide margin";
  EXPECT_GT(r.throughput(), 0.0);
  EXPECT_GT(r.embedding_seconds, 0.0);
  EXPECT_GT(r.forward_seconds, 0.0);
}

TEST(CtrTrainerTest, DcnAlsoLearns) {
  TempDir dir;
  auto backend = MakeTestBackend(dir, BackendKind::kInMemory, 8);
  CtrTrainerOptions o = SmallCtr();
  o.model = CtrModelKind::kDcn;
  CtrTrainer trainer(backend.get(), o);
  TrainResult r = trainer.Train();
  EXPECT_GT(r.final_metric, 0.62);
}

TEST(CtrTrainerTest, LookaheadDoesNotChangeSemantics) {
  TempDir dir1, dir2;
  auto b1 = MakeTestBackend(dir1, BackendKind::kMlkv, 8);
  auto b2 = MakeTestBackend(dir2, BackendKind::kMlkv, 8);
  CtrTrainerOptions o = SmallCtr();
  o.num_workers = 1;
  CtrTrainer t1(b1.get(), o);
  o.lookahead_depth = 4;
  CtrTrainer t2(b2.get(), o);
  const TrainResult r1 = t1.Train();
  const TrainResult r2 = t2.Train();
  // Single-worker runs are deterministic in sample order; AUC should agree
  // closely (lookahead only moves data, it never changes values).
  EXPECT_NEAR(r1.final_metric, r2.final_metric, 0.03);
}

TEST(CtrTrainerTest, BspBoundZeroStillTrains) {
  TempDir dir;
  auto backend = MakeTestBackend(dir, BackendKind::kMlkv, 8, /*bound=*/0);
  CtrTrainerOptions o = SmallCtr();
  o.num_workers = 1;  // true BSP
  o.train_batches = 200;
  CtrTrainer trainer(backend.get(), o);
  TrainResult r = trainer.Train();
  EXPECT_GT(r.final_metric, 0.56);
  EXPECT_EQ(r.busy_aborts, 0u);
}

TEST(KgeTrainerTest, DistMultLearnsLinkStructure) {
  TempDir dir;
  auto backend = MakeTestBackend(dir, BackendKind::kMlkv, 16);
  KgeTrainerOptions o;
  o.data.num_entities = 1500;
  o.data.num_relations = 4;
  o.data.num_clusters = 8;
  o.dim = 16;
  o.batch_size = 128;
  o.num_workers = 2;
  o.train_batches = 600;
  o.eval_every = 200;
  o.eval_triples = 300;
  KgeTrainer trainer(backend.get(), o);
  TrainResult r = trainer.Train();
  ASSERT_FALSE(r.metric_curve.empty());
  // Random Hits@10 with 50 negatives ~ 10/51 ~ 0.2.
  EXPECT_GT(r.final_metric, 0.4);
}

TEST(KgeTrainerTest, ComplExAlsoLearns) {
  TempDir dir;
  auto backend = MakeTestBackend(dir, BackendKind::kInMemory, 16);
  KgeTrainerOptions o;
  o.data.num_entities = 1500;
  o.data.num_relations = 4;
  o.data.num_clusters = 8;
  o.model = KgeModelKind::kComplEx;
  o.dim = 16;
  o.batch_size = 128;
  o.num_workers = 2;
  o.train_batches = 600;
  o.eval_every = 200;
  o.eval_triples = 300;
  KgeTrainer trainer(backend.get(), o);
  TrainResult r = trainer.Train();
  EXPECT_GT(r.final_metric, 0.35);
}

TEST(KgeTrainerTest, BetaOrderingPreservesLearning) {
  TempDir dir;
  auto backend = MakeTestBackend(dir, BackendKind::kMlkv, 16);
  KgeTrainerOptions o;
  o.data.num_entities = 1500;
  o.data.num_relations = 4;
  o.data.num_clusters = 8;
  o.dim = 16;
  o.batch_size = 128;
  o.num_workers = 2;
  o.train_batches = 600;
  o.eval_every = 300;
  o.eval_triples = 300;
  o.use_beta = true;
  KgeTrainer trainer(backend.get(), o);
  TrainResult r = trainer.Train();
  EXPECT_GT(r.final_metric, 0.35);
}

TEST(GnnTrainerTest, GraphSageLearnsCommunities) {
  TempDir dir;
  auto backend = MakeTestBackend(dir, BackendKind::kMlkv, 16);
  GnnTrainerOptions o;
  o.graph.num_nodes = 2000;
  o.graph.num_classes = 4;
  o.graph.fanout = 4;
  o.dim = 16;
  o.hidden = 16;
  o.batch_size = 64;
  o.num_workers = 2;
  o.train_batches = 400;
  o.eval_every = 100;
  o.eval_nodes = 500;
  o.embedding_lr = 0.1f;
  GnnTrainer trainer(backend.get(), o);
  TrainResult r = trainer.Train();
  ASSERT_FALSE(r.metric_curve.empty());
  EXPECT_GT(r.final_metric, 0.55) << "4-class chance is 0.25";
}

TEST(GnnTrainerTest, GatAlsoLearns) {
  TempDir dir;
  auto backend = MakeTestBackend(dir, BackendKind::kInMemory, 16);
  GnnTrainerOptions o;
  o.graph.num_nodes = 2000;
  o.graph.num_classes = 4;
  o.graph.fanout = 4;
  o.model = GnnModelKind::kGat;
  o.dim = 16;
  o.hidden = 16;
  o.batch_size = 64;
  o.num_workers = 2;
  o.train_batches = 400;
  o.eval_every = 100;
  o.eval_nodes = 500;
  o.embedding_lr = 0.1f;
  GnnTrainer trainer(backend.get(), o);
  TrainResult r = trainer.Train();
  EXPECT_GT(r.final_metric, 0.45);
}

TEST(GnnTrainerTest, EbayTriskRunsAndLearnsAuc) {
  TempDir dir;
  auto backend = MakeTestBackend(dir, BackendKind::kMlkv, 16);
  GnnTrainerOptions o;
  o.task = GnnTask::kEbayTrisk;
  o.ebay.num_transactions = 20000;
  o.ebay.num_entities = 5000;
  o.dim = 16;
  o.hidden = 16;
  o.batch_size = 64;
  o.num_workers = 2;
  o.embedding_lr = 0.1f;
  o.train_batches = 300;
  o.eval_every = 100;
  o.eval_nodes = 800;
  GnnTrainer trainer(backend.get(), o);
  TrainResult r = trainer.Train();
  EXPECT_GT(r.final_metric, 0.6) << "risk AUC must beat chance";
}

// --- Storage protocol (Fig. 3) every trainer drives through KvBackend ---

// Records each Lookahead / MultiGet / MultiPut a trainer issues, in order,
// over an in-memory engine that reports 4 shards, so the shard-contiguous
// key order of each minibatch is observable.
class RecordingBackend : public KvBackend {
 public:
  enum class Op { kLookahead, kGet, kPut };
  struct Call {
    Op op;
    bool untracked;
    std::vector<Key> keys;
  };

  explicit RecordingBackend(std::unique_ptr<KvBackend> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  uint32_t dim() const override { return inner_->dim(); }
  uint32_t shard_bits() const override { return 2; }

  BatchResult MultiGet(std::span<const Key> keys, float* out,
                       const MultiGetOptions& options) override {
    Record(Op::kGet, options.untracked, keys);
    return inner_->MultiGet(keys, out, options);
  }
  BatchResult MultiPut(std::span<const Key> keys,
                       const float* values) override {
    Record(Op::kPut, false, keys);
    return inner_->MultiPut(keys, values);
  }
  BatchResult MultiApplyGradient(std::span<const Key> keys,
                                 const float* grads, float lr) override {
    ADD_FAILURE() << "trainers write rows back with MultiPut";
    return inner_->MultiApplyGradient(keys, grads, lr);
  }
  Status Lookahead(std::span<const Key> keys) override {
    Record(Op::kLookahead, false, keys);
    return inner_->Lookahead(keys);
  }
  void WaitIdle() override { inner_->WaitIdle(); }

  std::vector<Call> calls() const {
    std::lock_guard<std::mutex> lk(mu_);
    return calls_;
  }

 private:
  void Record(Op op, bool untracked, std::span<const Key> keys) {
    std::lock_guard<std::mutex> lk(mu_);
    calls_.push_back({op, untracked, {keys.begin(), keys.end()}});
  }

  std::unique_ptr<KvBackend> inner_;
  mutable std::mutex mu_;
  std::vector<Call> calls_;
};

constexpr uint64_t kProtocolBatches = 6;
constexpr int kProtocolDepth = 2;
constexpr int kProtocolEvalEvery = 3;

std::unique_ptr<RecordingBackend> MakeRecordingBackend(const TempDir& dir,
                                                       uint32_t dim) {
  return std::make_unique<RecordingBackend>(
      MakeTestBackend(dir, BackendKind::kInMemory, dim));
}

// Checks one single-worker run of kProtocolBatches batches at lookahead
// depth kProtocolDepth, evaluated after every kProtocolEvalEvery-th batch:
//  * batch b's step is Lookahead(b + depth) (while that batch exists), one
//    tracked MultiGet of unique, shard-contiguous keys covering everything
//    the lookahead hinted for b, then one MultiPut of exactly those keys;
//  * untracked reads happen only at eval points, between one step's
//    MultiPut and the next step's first call.
// Prints a digest of the call sequence and metric curve so two builds of
// the trainers can be compared for identical storage behaviour.
void CheckStorageProtocol(const char* trainer,
                          const std::vector<RecordingBackend::Call>& calls,
                          const TrainResult& result) {
  using Op = RecordingBackend::Op;
  std::vector<size_t> looks, gets, puts;
  for (size_t j = 0; j < calls.size(); ++j) {
    if (calls[j].op == Op::kLookahead) looks.push_back(j);
    if (calls[j].op == Op::kGet && !calls[j].untracked) gets.push_back(j);
    if (calls[j].op == Op::kPut) puts.push_back(j);
  }
  ASSERT_EQ(looks.size(), kProtocolBatches - kProtocolDepth);
  ASSERT_EQ(gets.size(), kProtocolBatches);
  ASSERT_EQ(puts.size(), kProtocolBatches);

  const uint64_t mask = 3;  // RecordingBackend::shard_bits() == 2
  for (size_t b = 0; b < kProtocolBatches; ++b) {
    const std::vector<Key>& keys = calls[gets[b]].keys;
    const std::set<Key> unique(keys.begin(), keys.end());
    EXPECT_EQ(unique.size(), keys.size()) << "batch " << b;
    std::set<uint64_t> closed;
    for (size_t i = 0; i < keys.size(); ++i) {
      const uint64_t shard = ShardOf(Hash64(keys[i]), mask);
      EXPECT_EQ(closed.count(shard), 0u)
          << "batch " << b << ": shard " << shard << " is not contiguous";
      if (i + 1 < keys.size() &&
          ShardOf(Hash64(keys[i + 1]), mask) != shard) {
        closed.insert(shard);
      }
    }
    // Exactly one MultiPut between this tracked read and the next, on the
    // identical key span.
    const size_t end = b + 1 < kProtocolBatches ? gets[b + 1] : calls.size();
    EXPECT_TRUE(gets[b] < puts[b] && puts[b] < end) << "batch " << b;
    EXPECT_EQ(calls[puts[b]].keys, keys) << "batch " << b;
    // The lookahead for batch b + depth is issued in batch b's step, after
    // batch b - 1's MultiPut and before batch b's tracked MultiGet.
    if (b < looks.size()) {
      EXPECT_LT(looks[b], gets[b]) << "batch " << b;
      if (b > 0) {
        EXPECT_GT(looks[b], puts[b - 1]) << "batch " << b;
      }
    }
    if (b >= static_cast<size_t>(kProtocolDepth)) {
      for (const Key k : calls[looks[b - kProtocolDepth]].keys) {
        EXPECT_EQ(unique.count(k), 1u)
            << "batch " << b << " does not read hinted key " << k;
      }
    }
  }

  std::vector<size_t> eval_reads(kProtocolBatches, 0);
  for (size_t j = 0; j < calls.size(); ++j) {
    if (calls[j].op != Op::kGet || !calls[j].untracked) continue;
    // The last completed step, and no call of the next one yet.
    size_t done = 0;
    while (done < puts.size() && puts[done] < j) ++done;
    ASSERT_GT(done, 0u) << "untracked read before the first step";
    const size_t b = done - 1;
    EXPECT_EQ((b + 1) % kProtocolEvalEvery, 0u)
        << "untracked read after batch " << b << ", not an eval point";
    const size_t next_step =
        done == kProtocolBatches ? calls.size()
        : done < looks.size()    ? looks[done]
                                 : gets[done];
    EXPECT_LT(j, next_step) << "untracked read inside batch " << done
                            << "'s step";
    ++eval_reads[b];
  }
  for (size_t b = 0; b < kProtocolBatches; ++b) {
    if ((b + 1) % kProtocolEvalEvery == 0) {
      EXPECT_GT(eval_reads[b], 0u) << "no eval reads after batch " << b;
    }
  }
  ASSERT_EQ(result.metric_curve.size(),
            kProtocolBatches / kProtocolEvalEvery);

  uint64_t digest = 0;
  auto fold = [&digest](uint64_t v) { digest = Hash64(digest ^ v); };
  for (const auto& c : calls) {
    fold(static_cast<uint64_t>(c.op) * 2 + (c.untracked ? 1 : 0));
    fold(c.keys.size());
    for (const Key k : c.keys) fold(k);
  }
  for (const auto& [seconds, metric] : result.metric_curve) {
    uint64_t bits;
    std::memcpy(&bits, &metric, sizeof(bits));
    fold(bits);
  }
  std::printf("[ protocol ] %s: %zu calls, digest %016llx\n", trainer,
              calls.size(), static_cast<unsigned long long>(digest));
}

TEST(TrainerStorageProtocolTest, Ctr) {
  TempDir dir;
  auto backend = MakeRecordingBackend(dir, 8);
  CtrTrainerOptions o = SmallCtr();
  o.batch_size = 32;
  o.num_workers = 1;
  o.train_batches = kProtocolBatches;
  o.eval_every = kProtocolEvalEvery;
  o.eval_samples = 100;
  o.lookahead_depth = kProtocolDepth;
  const TrainResult r = CtrTrainer(backend.get(), o).Train();
  CheckStorageProtocol("ctr", backend->calls(), r);
}

TEST(TrainerStorageProtocolTest, Kge) {
  TempDir dir;
  auto backend = MakeRecordingBackend(dir, 16);
  KgeTrainerOptions o;
  o.data.num_entities = 500;
  o.data.num_relations = 4;
  o.data.num_clusters = 8;
  o.dim = 16;
  o.batch_size = 32;
  o.num_workers = 1;
  o.train_batches = kProtocolBatches;
  o.eval_every = kProtocolEvalEvery;
  o.eval_triples = 20;
  o.lookahead_depth = kProtocolDepth;
  const TrainResult r = KgeTrainer(backend.get(), o).Train();
  CheckStorageProtocol("kge", backend->calls(), r);
}

TEST(TrainerStorageProtocolTest, Gnn) {
  TempDir dir;
  auto backend = MakeRecordingBackend(dir, 16);
  GnnTrainerOptions o;
  o.graph.num_nodes = 500;
  o.graph.num_classes = 4;
  o.graph.fanout = 4;
  o.dim = 16;
  o.hidden = 16;
  o.batch_size = 16;
  o.num_workers = 1;
  o.train_batches = kProtocolBatches;
  o.eval_every = kProtocolEvalEvery;
  o.eval_nodes = 50;
  o.lookahead_depth = kProtocolDepth;
  const TrainResult r = GnnTrainer(backend.get(), o).Train();
  CheckStorageProtocol("gnn", backend->calls(), r);
}

TEST(EnergyModelTest, StallsCostIdleEnergy) {
  EnergyModel model;
  TrainResult fast;
  fast.seconds = 10;
  fast.forward_seconds = 5;
  fast.backward_seconds = 4;  // 90% busy
  TrainResult stalled = fast;
  stalled.seconds = 30;       // same compute, 3x wall time (data stalls)
  EXPECT_GT(model.TotalJoules(stalled), model.TotalJoules(fast));
}

TEST(EnergyModelTest, IoBytesAddEnergy) {
  EnergyModel model;
  TrainResult a;
  a.seconds = 10;
  TrainResult b = a;
  b.device_bytes_read = 100ull << 30;
  EXPECT_GT(model.TotalJoules(b), model.TotalJoules(a));
}

TEST(DdpSimTest, TwoInstancesLessThanDoubleSingle) {
  DdpSim sim;
  TrainResult single;
  single.samples = 256 * 100;
  single.seconds = 10;  // 2560 samples/s
  const double ddp = sim.Throughput(single, 100);
  EXPECT_GT(ddp, single.throughput()) << "two instances beat one";
  EXPECT_LT(ddp, 2 * single.throughput()) << "allreduce costs something";
}

}  // namespace
}  // namespace mlkv
