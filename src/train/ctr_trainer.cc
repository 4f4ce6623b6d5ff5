#include "train/ctr_trainer.h"

#include <algorithm>
#include <vector>

#include "common/clock.h"
#include "common/simd.h"
#include "ml/ctr_models.h"
#include "ml/metrics.h"
#include "train/batch_io.h"

namespace mlkv {

namespace {

std::unique_ptr<CtrModel> MakeModel(CtrModelKind kind, size_t input_dim,
                                    uint64_t seed, float lr) {
  if (kind == CtrModelKind::kDcn) {
    return std::make_unique<DcnModel>(input_dim, 2, seed, lr);
  }
  return std::make_unique<FfnnModel>(input_dim, seed, lr);
}

// One worker: its pre-generated sample stream and dense model replica.
class CtrWorker : public MinibatchWorker {
 public:
  CtrWorker(const CtrTrainerOptions& o, KvBackend* backend,
            const std::vector<CtrSample>& eval_set, int wid)
      : o_(o),
        backend_(backend),
        eval_set_(eval_set),
        m_(o.data.num_fields),
        input_dim_(static_cast<size_t>(m_) * o.dim + o.data.num_dense),
        model_(MakeModel(o.model, input_dim_, o.seed + wid, o.dense_lr)),
        delay_(o.compute_micros_per_batch),
        x_(o.batch_size, input_dim_) {
    // Pre-generate the sample stream so the driver can look ahead (the
    // paper: "applications ... know what future incoming training samples
    // will be").
    CtrGenerator gen(o.data, /*stream_seed=*/wid + 1);
    const uint64_t n = o.train_batches * o.batch_size;
    stream_.reserve(n);
    for (uint64_t i = 0; i < n; ++i) stream_.push_back(gen.Next());
  }

  void SampleKeys(uint64_t b, std::vector<Key>* keys) override {
    for (int i = 0; i < o_.batch_size; ++i) {
      const CtrSample& s = stream_[b * o_.batch_size + i];
      keys->insert(keys->end(), s.keys.begin(), s.keys.end());
    }
  }

  ComputeSeconds Compute(uint64_t b, Minibatch* mb) override {
    const int B = o_.batch_size;
    const uint32_t dim = o_.dim;
    const CtrSample* samples = &stream_[b * B];

    // Assemble input.
    x_.Zero();
    std::vector<float> labels(B);
    for (int i = 0; i < B; ++i) {
      float* row = x_.row(i);
      for (int f = 0; f < m_; ++f) {
        const float* emb = mb->row(samples[i].keys[f]);
        std::copy(emb, emb + dim, row + static_cast<size_t>(f) * dim);
      }
      for (int d = 0; d < o_.data.num_dense; ++d) {
        row[static_cast<size_t>(m_) * dim + d] = samples[i].dense[d];
      }
      labels[i] = samples[i].label;
    }

    // --- NN forward ---
    const uint64_t t0 = NowMicros();
    const Tensor& logits = model_->Forward(x_);
    const uint64_t t1 = NowMicros();
    BceWithLogits(logits, labels, &grad_logits_);

    // --- NN backward + dense step ---
    const Tensor& gx = model_->Backward(grad_logits_);
    model_->Step();
    const uint64_t t2 = NowMicros();
    delay_.PadBatch(t2 - t0);
    const uint64_t t3 = NowMicros();

    // Accumulate per-unique-key embedding gradients.
    for (int i = 0; i < B; ++i) {
      const float* g = gx.row(i);
      for (int f = 0; f < m_; ++f) {
        simd::AccumulateFloats(mb->grad(samples[i].keys[f]),
                               g + static_cast<size_t>(f) * dim, dim);
      }
    }
    return {(t1 - t0) * 1e-6 + (t3 - t2) * 1e-6 * 0.5,
            (t2 - t1) * 1e-6 + (t3 - t2) * 1e-6 * 0.5};
  }

  double Evaluate() override {
    const uint32_t dim = o_.dim;
    AucAccumulator auc;
    Tensor ex(1, input_dim_);
    const size_t row_floats = static_cast<size_t>(m_) * dim;
    const size_t chunk = static_cast<size_t>(o_.batch_size);
    std::vector<Key> chunk_keys;
    std::vector<float> chunk_emb;
    for (size_t c0 = 0; c0 < eval_set_.size(); c0 += chunk) {
      const size_t c1 = std::min(eval_set_.size(), c0 + chunk);
      // One untracked batched read per chunk of B samples; each sample's
      // m rows land field-major, exactly its input layout.
      chunk_keys.clear();
      for (size_t j = c0; j < c1; ++j) {
        chunk_keys.insert(chunk_keys.end(), eval_set_[j].keys.begin(),
                          eval_set_[j].keys.end());
      }
      chunk_emb.assign(chunk_keys.size() * dim, 0.0f);
      EvalPeek(backend_, chunk_keys, chunk_emb.data());
      for (size_t j = c0; j < c1; ++j) {
        const CtrSample& s = eval_set_[j];
        float* row = ex.row(0);
        simd::CopyFloats(row, &chunk_emb[(j - c0) * row_floats], row_floats);
        for (int d = 0; d < o_.data.num_dense; ++d) {
          row[row_floats + d] = s.dense[d];
        }
        const Tensor& logit = model_->Forward(ex);
        auc.Add(logit.at(0, 0), s.label > 0.5f);
      }
    }
    return auc.Compute();
  }

 private:
  const CtrTrainerOptions& o_;
  KvBackend* backend_;
  const std::vector<CtrSample>& eval_set_;
  const int m_;
  const size_t input_dim_;
  std::unique_ptr<CtrModel> model_;
  const ComputeDelayModel delay_;
  std::vector<CtrSample> stream_;
  Tensor x_, grad_logits_;
};

}  // namespace

TrainResult CtrTrainer::Train() {
  // Fixed held-out evaluation stream (separate generator seed).
  std::vector<CtrSample> eval_set;
  CtrGenerator eval_gen(options_.data, /*stream_seed=*/9999);
  eval_set.reserve(options_.eval_samples);
  for (int i = 0; i < options_.eval_samples; ++i) {
    eval_set.push_back(eval_gen.Next());
  }

  const MinibatchJob job{.dim = options_.dim,
                         .num_workers = options_.num_workers,
                         .train_batches = options_.train_batches,
                         .batch_size = options_.batch_size,
                         .lookahead_depth = options_.lookahead_depth,
                         .eval_every = options_.eval_every,
                         .embedding_lr = options_.embedding_lr,
                         .preload_keys = options_.preload_keys};
  return RunMinibatchJob(backend_, job, [&](int wid) {
    return std::make_unique<CtrWorker>(options_, backend_, eval_set, wid);
  });
}

}  // namespace mlkv
