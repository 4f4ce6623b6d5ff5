#include "train/kge_trainer.h"

#include <algorithm>
#include <mutex>
#include <vector>

#include "common/clock.h"
#include "common/simd.h"
#include "ml/layers.h"
#include "ml/metrics.h"
#include "train/batch_io.h"

namespace mlkv {

namespace {

// Softplus-of-logit BCE on scores: positives want high scores, negatives
// low. Returns dL/dscore for one (score, label) pair.
float ScoreGrad(float score, bool positive, float* loss_out) {
  const float p = Sigmoid(score);
  if (loss_out != nullptr) {
    const float softplus = score > 20 ? score : std::log1p(std::exp(score));
    *loss_out = positive ? softplus - score : softplus;
  }
  return p - (positive ? 1.0f : 0.0f);
}

// Held-out evaluation triple with fixed negative candidates.
struct EvalItem {
  KgTriple triple;
  std::vector<Key> negatives;
};

// State every worker shares. Relation embeddings live densely in memory
// (there are only a handful), behind a mutex, which matches practice:
// relation tables in DGL-KE are small and GPU-resident.
struct KgeShared {
  std::vector<std::vector<float>> relations;
  std::mutex rel_mu;
  std::vector<EvalItem> eval_set;
};

// One worker: its triple stream (BETA-ordered when enabled) and the
// generator its negatives are drawn from.
class KgeWorker : public MinibatchWorker {
 public:
  KgeWorker(const KgeTrainerOptions& o, KvBackend* backend,
            KgeShared* shared, int wid)
      : o_(o),
        backend_(backend),
        shared_(shared),
        gen_(o.data, /*stream_seed=*/wid + 1),
        delay_(o.compute_micros_per_batch) {
    // Materialize this worker's triple stream. Under BETA ordering, sort
    // the stream by (head partition, tail partition) in a buffer-friendly
    // order: partition pairs are visited so consecutive pairs share one
    // partition (Marius' BETA traversal), maximizing buffer reuse.
    const uint64_t n = o.train_batches * o.batch_size;
    stream_.reserve(n);
    for (uint64_t i = 0; i < n; ++i) stream_.push_back(gen_.Next());
    if (o.use_beta) {
      const int P = o.beta_partitions;
      auto partition_of = [P](Key e) {
        return static_cast<int>(Hash64(e ^ 0xBEBAull) %
                                static_cast<uint64_t>(P));
      };
      // Order pairs: (0,0),(0,1)...(0,P-1),(1,P-1),(1,0),(1,1)... — a
      // boustrophedon over the pair grid keeping one side fixed per row.
      auto pair_rank = [P](int hp, int tp) {
        const int col = (hp % 2 == 0) ? tp : (P - 1 - tp);
        return hp * P + col;
      };
      std::stable_sort(stream_.begin(), stream_.end(),
                       [&](const KgTriple& a, const KgTriple& b) {
                         return pair_rank(partition_of(a.head),
                                          partition_of(a.tail)) <
                                pair_rank(partition_of(b.head),
                                          partition_of(b.tail));
                       });
    }
  }

  void SampleKeys(uint64_t b, std::vector<Key>* keys) override {
    for (int i = 0; i < o_.batch_size; ++i) {
      keys->push_back(stream_[b * o_.batch_size + i].head);
      keys->push_back(stream_[b * o_.batch_size + i].tail);
    }
  }

  // Heads, tails and this step's freshly drawn negatives, per triple.
  void StepKeys(uint64_t b, std::vector<Key>* keys) override {
    const int NEG = o_.negatives_per_positive;
    negatives_.resize(static_cast<size_t>(o_.batch_size) * NEG);
    for (auto& k : negatives_) k = gen_.SampleNegativeTail();
    for (int i = 0; i < o_.batch_size; ++i) {
      keys->push_back(stream_[b * o_.batch_size + i].head);
      keys->push_back(stream_[b * o_.batch_size + i].tail);
      keys->insert(keys->end(), negatives_.begin() + i * NEG,
                   negatives_.begin() + (i + 1) * NEG);
    }
  }

  // Closed-form scores and gradients; the Fig. 2 breakdown splits their
  // time evenly between "forward" and "backward".
  ComputeSeconds Compute(uint64_t b, Minibatch* mb) override {
    const uint32_t dim = o_.dim;
    const int B = o_.batch_size;
    const int NEG = o_.negatives_per_positive;
    const KgTriple* triples = &stream_[b * B];
    const uint64_t t1 = NowMicros();
    std::vector<std::vector<float>> rel_grad(o_.data.num_relations);
    {
      std::lock_guard<std::mutex> lk(shared_->rel_mu);
      for (int i = 0; i < B; ++i) {
        const KgTriple& tri = triples[i];
        const float* hv = mb->row(tri.head);
        const float* tv = mb->row(tri.tail);
        float* hg = mb->grad(tri.head);
        const std::vector<float>& rv = shared_->relations[tri.relation];
        if (rel_grad[tri.relation].empty()) {
          rel_grad[tri.relation].assign(dim, 0.0f);
        }
        float* rg = rel_grad[tri.relation].data();

        const float pos_score = KgeScore(o_.model, hv, rv.data(), tv, dim);
        const float gpos = ScoreGrad(pos_score, true, nullptr);
        KgeGrad(o_.model, hv, rv.data(), tv, dim, gpos, hg, rg,
                mb->grad(tri.tail));
        for (int n = 0; n < NEG; ++n) {
          const Key nk = negatives_[static_cast<size_t>(i) * NEG + n];
          const float* nv = mb->row(nk);
          const float neg_score = KgeScore(o_.model, hv, rv.data(), nv, dim);
          const float gneg =
              ScoreGrad(neg_score, false, nullptr) / static_cast<float>(NEG);
          KgeGrad(o_.model, hv, rv.data(), nv, dim, gneg, hg, rg,
                  mb->grad(nk));
        }
      }
      // Apply relation updates immediately (dense, in-memory).
      for (int r = 0; r < o_.data.num_relations; ++r) {
        if (rel_grad[r].empty()) continue;
        simd::SubScaled(shared_->relations[r].data(), rel_grad[r].data(),
                        o_.lr / static_cast<float>(B), dim);
      }
    }
    const uint64_t t2 = NowMicros();
    delay_.PadBatch(t2 - t1);
    const uint64_t t3 = NowMicros();
    const double half = (t3 - t1) * 1e-6 * 0.5;
    // Negative-sample gradients are already averaged (1/NEG) at scoring
    // time, so the driver's raw-lr Put applies them as they are.
    return {half, half};
  }

  // Hits@10 over the held-out triples.
  double Evaluate() override {
    const uint32_t dim = o_.dim;
    HitsAtK hits(10);
    std::vector<Key> ekeys;
    std::vector<float> ebuf;
    std::lock_guard<std::mutex> lk(shared_->rel_mu);
    for (const auto& e : shared_->eval_set) {
      // One untracked batched read per eval item: head, tail, then the
      // fixed negative candidates.
      ekeys.assign({e.triple.head, e.triple.tail});
      ekeys.insert(ekeys.end(), e.negatives.begin(), e.negatives.end());
      ebuf.resize(ekeys.size() * dim);
      EvalPeek(backend_, ekeys, ebuf.data());
      const float* hv = ebuf.data();
      const float* tv = ebuf.data() + dim;
      const std::vector<float>& rv = shared_->relations[e.triple.relation];
      const float true_score = KgeScore(o_.model, hv, rv.data(), tv, dim);
      std::vector<float> neg_scores;
      neg_scores.reserve(e.negatives.size());
      for (size_t n = 0; n < e.negatives.size(); ++n) {
        neg_scores.push_back(KgeScore(o_.model, hv, rv.data(),
                                      ebuf.data() + (2 + n) * dim, dim));
      }
      hits.Add(true_score, neg_scores);
    }
    return hits.Compute();
  }

 private:
  const KgeTrainerOptions& o_;
  KvBackend* backend_;
  KgeShared* shared_;
  KgGenerator gen_;
  const ComputeDelayModel delay_;
  std::vector<KgTriple> stream_;
  std::vector<Key> negatives_;  // the current step's, B x NEG
};

}  // namespace

TrainResult KgeTrainer::Train() {
  const uint32_t dim = options_.dim;
  KgeShared shared;
  shared.relations.assign(options_.data.num_relations,
                          std::vector<float>(dim));
  Rng rng(options_.seed * 71);
  const float scale = 1.0f / std::sqrt(static_cast<float>(dim));
  for (auto& r : shared.relations) {
    for (auto& v : r) {
      v = static_cast<float>(rng.NextDouble() * 2.0 - 1.0) * scale;
    }
  }
  KgGenerator eval_gen(options_.data, /*stream_seed=*/31337);
  for (int i = 0; i < options_.eval_triples; ++i) {
    EvalItem e;
    e.triple = eval_gen.Next();
    for (int n = 0; n < options_.eval_negatives; ++n) {
      e.negatives.push_back(eval_gen.SampleNegativeTail());
    }
    shared.eval_set.push_back(std::move(e));
  }

  const MinibatchJob job{.dim = options_.dim,
                         .num_workers = options_.num_workers,
                         .train_batches = options_.train_batches,
                         .batch_size = options_.batch_size,
                         .lookahead_depth = options_.lookahead_depth,
                         .eval_every = options_.eval_every,
                         .embedding_lr = options_.lr,
                         .preload_keys = options_.preload_keys};
  return RunMinibatchJob(backend_, job, [&](int wid) {
    return std::make_unique<KgeWorker>(options_, backend_, &shared, wid);
  });
}

}  // namespace mlkv
