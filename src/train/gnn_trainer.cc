#include "train/gnn_trainer.h"

#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/simd.h"
#include "ml/metrics.h"
#include "train/batch_io.h"

namespace mlkv {

namespace {

// A sampled training example independent of task: the node to classify,
// its sampled neighbors, and an integer label.
struct NodeSample {
  Key node;
  std::vector<Key> neighbors;
  int label;
};

std::unique_ptr<GnnModel> MakeModel(const GnnTrainerOptions& o,
                                    int num_classes, uint64_t seed) {
  if (o.model == GnnModelKind::kGat) {
    return std::make_unique<GatModel>(o.dim, o.hidden, num_classes, seed,
                                      o.dense_lr);
  }
  return std::make_unique<GraphSageModel>(o.dim, o.hidden, num_classes, seed,
                                          o.dense_lr);
}

// Task-specific sample stream: `n` samples from an independent
// deterministic generator per stream seed (one per worker, one for eval).
std::vector<NodeSample> SampleNodes(const GnnTrainerOptions& o,
                                    uint64_t stream_seed, uint64_t n) {
  std::vector<NodeSample> out;
  out.reserve(n);
  if (o.task != GnnTask::kPapers) {
    EbayConfig cfg = o.ebay;
    cfg.tripartite = o.task == GnnTask::kEbayPayout;
    EbayGenerator gen(cfg, stream_seed);
    for (uint64_t i = 0; i < n; ++i) {
      EbaySample es = gen.Next();
      out.push_back({es.transaction, std::move(es.entities),
                     es.label > 0.5f ? 1 : 0});
    }
  } else {
    GraphGenerator gen(o.graph, stream_seed);
    for (uint64_t i = 0; i < n; ++i) {
      NodeSample s;
      s.node = gen.SampleTrainNode();
      gen.SampleNeighbors(s.node, &s.neighbors);
      s.label = gen.LabelOf(s.node);
      out.push_back(std::move(s));
    }
  }
  return out;
}

// One worker: its sample stream and model replica.
class GnnWorker : public MinibatchWorker {
 public:
  GnnWorker(const GnnTrainerOptions& o, KvBackend* backend,
            const std::vector<NodeSample>& eval_set, int num_classes,
            int fanout, int wid)
      : o_(o),
        backend_(backend),
        eval_set_(eval_set),
        num_classes_(num_classes),
        fanout_(fanout),
        model_(MakeModel(o, num_classes, o.seed + wid)),
        delay_(o.compute_micros_per_batch),
        stream_(SampleNodes(o, static_cast<uint64_t>(wid) + 1,
                            o.train_batches * o.batch_size)) {
    batch_.fanout = fanout;
  }

  // Self, then neighbors, per sample.
  void SampleKeys(uint64_t b, std::vector<Key>* keys) override {
    for (int i = 0; i < o_.batch_size; ++i) {
      const NodeSample& s = stream_[b * o_.batch_size + i];
      keys->push_back(s.node);
      keys->insert(keys->end(), s.neighbors.begin(), s.neighbors.end());
    }
  }

  ComputeSeconds Compute(uint64_t b, Minibatch* mb) override {
    const uint32_t dim = o_.dim;
    const int B = o_.batch_size;
    const NodeSample* samples = &stream_[b * B];

    // Assemble the batch tensors.
    batch_.self.Resize(B, dim);
    batch_.neighbors.Resize(static_cast<size_t>(B) * fanout_, dim);
    batch_.labels.resize(B);
    for (int i = 0; i < B; ++i) {
      const float* self = mb->row(samples[i].node);
      std::copy(self, self + dim, batch_.self.row(i));
      for (int n = 0; n < fanout_; ++n) {
        const float* nb = mb->row(samples[i].neighbors[n]);
        std::copy(nb, nb + dim,
                  batch_.neighbors.row(static_cast<size_t>(i) * fanout_ + n));
      }
      batch_.labels[i] = samples[i].label;
    }

    // --- Forward ---
    const uint64_t t0 = NowMicros();
    const Tensor& logits = model_->Forward(batch_);
    const uint64_t t1 = NowMicros();
    SoftmaxCrossEntropy(logits, batch_.labels, &grad_logits_);

    // --- Backward ---
    model_->Backward(grad_logits_, &grad_self_, &grad_neighbors_);
    model_->Step();
    const uint64_t t2 = NowMicros();
    delay_.PadBatch(t2 - t0);
    const uint64_t t3 = NowMicros();

    // Accumulate per-unique-key embedding grads.
    for (int i = 0; i < B; ++i) {
      simd::AccumulateFloats(mb->grad(samples[i].node), grad_self_.row(i),
                             dim);
      for (int n = 0; n < fanout_; ++n) {
        simd::AccumulateFloats(
            mb->grad(samples[i].neighbors[n]),
            grad_neighbors_.row(static_cast<size_t>(i) * fanout_ + n), dim);
      }
    }
    return {(t1 - t0) * 1e-6 + (t3 - t2) * 1e-6 * 0.5,
            (t2 - t1) * 1e-6 + (t3 - t2) * 1e-6 * 0.5};
  }

  // Accuracy (papers) or AUC (eBay binary).
  double Evaluate() override {
    const uint32_t dim = o_.dim;
    AccuracyAccumulator acc;
    AucAccumulator auc;
    GnnBatch eb;
    eb.fanout = fanout_;
    eb.self.Resize(1, dim);
    eb.neighbors.Resize(fanout_, dim);
    eb.labels.resize(1);
    std::vector<Key> ekeys;
    std::vector<float> ebuf;
    for (const NodeSample& s : eval_set_) {
      // One untracked batched read per eval node: self, then neighbors.
      ekeys.assign(1, s.node);
      ekeys.insert(ekeys.end(), s.neighbors.begin(), s.neighbors.end());
      ebuf.resize(ekeys.size() * dim);
      EvalPeek(backend_, ekeys, ebuf.data());
      std::copy(ebuf.begin(), ebuf.begin() + dim, eb.self.row(0));
      for (int n = 0; n < fanout_; ++n) {
        const float* src = &ebuf[(1 + static_cast<size_t>(n)) * dim];
        std::copy(src, src + dim, eb.neighbors.row(n));
      }
      const Tensor& logits = model_->Forward(eb);
      int best = 0;
      for (int c = 1; c < num_classes_; ++c) {
        if (logits.at(0, c) > logits.at(0, best)) best = c;
      }
      acc.Add(best, s.label);
      if (num_classes_ == 2) {
        auc.Add(logits.at(0, 1) - logits.at(0, 0), s.label == 1);
      }
    }
    return num_classes_ == 2 ? auc.Compute() : acc.Compute();
  }

 private:
  const GnnTrainerOptions& o_;
  KvBackend* backend_;
  const std::vector<NodeSample>& eval_set_;
  const int num_classes_;
  const int fanout_;
  std::unique_ptr<GnnModel> model_;
  const ComputeDelayModel delay_;
  const std::vector<NodeSample> stream_;
  GnnBatch batch_;
  Tensor grad_logits_, grad_self_, grad_neighbors_;
};

}  // namespace

TrainResult GnnTrainer::Train() {
  const bool ebay = options_.task != GnnTask::kPapers;
  const int num_classes = ebay ? 2 : options_.graph.num_classes;
  const int fanout = ebay ? options_.ebay.entities_per_transaction
                          : options_.graph.fanout;
  const std::vector<NodeSample> eval_set =
      SampleNodes(options_, /*stream_seed=*/424242, options_.eval_nodes);

  const MinibatchJob job{.dim = options_.dim,
                         .num_workers = options_.num_workers,
                         .train_batches = options_.train_batches,
                         .batch_size = options_.batch_size,
                         .lookahead_depth = options_.lookahead_depth,
                         .eval_every = options_.eval_every,
                         .embedding_lr = options_.embedding_lr,
                         .preload_keys = options_.preload_keys};
  return RunMinibatchJob(backend_, job, [&](int wid) {
    return std::make_unique<GnnWorker>(options_, backend_, eval_set,
                                       num_classes, fanout, wid);
  });
}

}  // namespace mlkv
