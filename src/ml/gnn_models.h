// GNN models for node classification (paper Table II: GraphSage and GAT).
//
// One message-passing layer over sampled neighbors, then a linear
// classifier. Node features ARE the stored embeddings (trainable), so the
// backward pass produces gradients for both the dense weights and every
// fetched embedding — exactly the storage traffic pattern the paper's GNN
// experiments generate (fetch node + neighbor embeddings, push back
// gradients).
#pragma once

#include <cmath>
#include <memory>
#include <vector>

#include "ml/layers.h"
#include "ml/tensor.h"

namespace mlkv {

// A sampled mini-batch: `self` holds the target nodes' embeddings (B x dim),
// `neighbors` holds `fanout` sampled neighbor embeddings per node
// (B*fanout x dim). Gradients come back in the same layout.
struct GnnBatch {
  Tensor self;
  Tensor neighbors;
  size_t fanout = 0;
  std::vector<int> labels;
};

class GnnModel {
 public:
  virtual ~GnnModel() = default;
  virtual const char* name() const = 0;
  // Returns class logits [B, num_classes].
  virtual const Tensor& Forward(const GnnBatch& batch) = 0;
  // grad_logits -> gradients w.r.t. self and neighbor embeddings.
  virtual void Backward(const Tensor& grad_logits, Tensor* grad_self,
                        Tensor* grad_neighbors) = 0;
  virtual void Step() = 0;
};

// GraphSage (Hamilton et al., NeurIPS'17), mean aggregator:
//   h_v = ReLU(W * [x_v ; mean_{u in N(v)} x_u]),   logits = U * h_v.
class GraphSageModel : public GnnModel {
 public:
  GraphSageModel(uint32_t dim, size_t hidden, int num_classes,
                 uint64_t seed = 1, float lr = 0.05f)
      : dim_(dim), opt_(lr) {
    Rng rng(seed + 31);
    l1_ = Linear(2 * dim, hidden, /*relu=*/true, &rng);
    out_ = Linear(hidden, num_classes, /*relu=*/false, &rng);
  }

  const char* name() const override { return "GraphSage"; }

  const Tensor& Forward(const GnnBatch& batch) override {
    const size_t B = batch.self.rows();
    fanout_ = batch.fanout;
    concat_.Resize(B, 2 * dim_);
    for (size_t b = 0; b < B; ++b) {
      float* c = concat_.row(b);
      const float* s = batch.self.row(b);
      for (uint32_t i = 0; i < dim_; ++i) c[i] = s[i];
      // Mean over this node's neighbor block.
      for (uint32_t i = 0; i < dim_; ++i) c[dim_ + i] = 0;
      for (size_t n = 0; n < fanout_; ++n) {
        const float* nb = batch.neighbors.row(b * fanout_ + n);
        for (uint32_t i = 0; i < dim_; ++i) c[dim_ + i] += nb[i];
      }
      const float inv = fanout_ ? 1.0f / static_cast<float>(fanout_) : 0.0f;
      for (uint32_t i = 0; i < dim_; ++i) c[dim_ + i] *= inv;
    }
    return out_.Forward(l1_.Forward(concat_));
  }

  void Backward(const Tensor& grad_logits, Tensor* grad_self,
                Tensor* grad_neighbors) override {
    const Tensor& gconcat = l1_.Backward(out_.Backward(grad_logits));
    const size_t B = gconcat.rows();
    grad_self->Resize(B, dim_);
    grad_neighbors->Resize(B * fanout_, dim_);
    const float inv = fanout_ ? 1.0f / static_cast<float>(fanout_) : 0.0f;
    for (size_t b = 0; b < B; ++b) {
      const float* g = gconcat.row(b);
      float* gs = grad_self->row(b);
      for (uint32_t i = 0; i < dim_; ++i) gs[i] = g[i];
      for (size_t n = 0; n < fanout_; ++n) {
        float* gn = grad_neighbors->row(b * fanout_ + n);
        for (uint32_t i = 0; i < dim_; ++i) gn[i] = g[dim_ + i] * inv;
      }
    }
  }

  void Step() override {
    l1_.Step(&opt_);
    out_.Step(&opt_);
  }

 private:
  uint32_t dim_;
  size_t fanout_ = 0;
  Adagrad opt_;
  Linear l1_, out_;
  Tensor concat_;
};

// GAT (Velickovic et al., ICLR'18), single head:
//   e_{vu} = LeakyReLU(a_s . (W x_v) + a_n . (W x_u))
//   alpha  = softmax_u(e_{vu});  h_v = ReLU(sum_u alpha_{vu} (W x_u))
//   logits = U * [h_v ; W x_v]
// Backward propagates through the attention weights to both the projected
// self and neighbor embeddings.
class GatModel : public GnnModel {
 public:
  GatModel(uint32_t dim, size_t hidden, int num_classes, uint64_t seed = 1,
           float lr = 0.05f)
      : dim_(dim), hidden_(hidden), opt_(lr) {
    Rng rng(seed + 47);
    w_.Resize(dim, hidden);
    w_.InitGlorot(&rng);
    gw_.Resize(dim, hidden);
    a_self_.Resize(1, hidden);
    a_self_.InitGlorot(&rng);
    ga_self_.Resize(1, hidden);
    a_nbr_.Resize(1, hidden);
    a_nbr_.InitGlorot(&rng);
    ga_nbr_.Resize(1, hidden);
    out_ = Linear(2 * hidden, num_classes, /*relu=*/false, &rng);
  }

  const char* name() const override { return "GAT"; }

  const Tensor& Forward(const GnnBatch& batch) override {
    const size_t B = batch.self.rows();
    fanout_ = batch.fanout;
    self_in_ = batch.self;
    nbr_in_ = batch.neighbors;
    MatMul(batch.self, w_, &ws_);           // [B, H]
    MatMul(batch.neighbors, w_, &wn_);      // [B*F, H]
    // Attention logits and softmax per node.
    alpha_.Resize(B, fanout_);
    for (size_t b = 0; b < B; ++b) {
      const float* s = ws_.row(b);
      float self_term = 0;
      for (size_t i = 0; i < hidden_; ++i) self_term += s[i] * a_self_.at(0, i);
      float maxe = -1e30f;
      std::vector<float> e(fanout_);
      for (size_t n = 0; n < fanout_; ++n) {
        const float* u = wn_.row(b * fanout_ + n);
        float nbr_term = 0;
        for (size_t i = 0; i < hidden_; ++i) nbr_term += u[i] * a_nbr_.at(0, i);
        float v = self_term + nbr_term;
        e[n] = v > 0 ? v : 0.2f * v;  // LeakyReLU(0.2)
        maxe = std::max(maxe, e[n]);
      }
      float z = 0;
      for (size_t n = 0; n < fanout_; ++n) {
        alpha_.at(b, n) = std::exp(e[n] - maxe);
        z += alpha_.at(b, n);
      }
      for (size_t n = 0; n < fanout_; ++n) alpha_.at(b, n) /= z;
      e_raw_ = e;  // keep last for LeakyReLU grad; per-b stored below
      e_all_.resize(B * fanout_);
      for (size_t n = 0; n < fanout_; ++n) e_all_[b * fanout_ + n] = e[n];
    }
    // Aggregate h_v = ReLU(sum alpha * wn) and concat with ws.
    h_.Resize(B, hidden_);
    for (size_t b = 0; b < B; ++b) {
      float* h = h_.row(b);
      for (size_t n = 0; n < fanout_; ++n) {
        const float a = alpha_.at(b, n);
        const float* u = wn_.row(b * fanout_ + n);
        for (size_t i = 0; i < hidden_; ++i) h[i] += a * u[i];
      }
    }
    ReluInPlace(&h_);
    concat_.Resize(B, 2 * hidden_);
    for (size_t b = 0; b < B; ++b) {
      float* c = concat_.row(b);
      const float* h = h_.row(b);
      const float* s = ws_.row(b);
      for (size_t i = 0; i < hidden_; ++i) {
        c[i] = h[i];
        c[hidden_ + i] = s[i];
      }
    }
    return out_.Forward(concat_);
  }

  void Backward(const Tensor& grad_logits, Tensor* grad_self,
                Tensor* grad_neighbors) override {
    const Tensor& gconcat = out_.Backward(grad_logits);
    const size_t B = gconcat.rows();
    Tensor gh(B, hidden_), gws(B, hidden_);
    for (size_t b = 0; b < B; ++b) {
      const float* g = gconcat.row(b);
      float* a = gh.row(b);
      float* s = gws.row(b);
      for (size_t i = 0; i < hidden_; ++i) {
        a[i] = g[i];
        s[i] = g[hidden_ + i];
      }
    }
    ReluBackward(h_, &gh);

    Tensor gwn(B * fanout_, hidden_);
    // Backprop through attention-weighted aggregation and the softmax.
    for (size_t b = 0; b < B; ++b) {
      const float* ghb = gh.row(b);
      // dL/dalpha_n = gh . wn_n ; softmax jacobian -> dL/de_n.
      std::vector<float> galpha(fanout_), ge(fanout_);
      float dot_sum = 0;
      for (size_t n = 0; n < fanout_; ++n) {
        const float* u = wn_.row(b * fanout_ + n);
        float d = 0;
        for (size_t i = 0; i < hidden_; ++i) d += ghb[i] * u[i];
        galpha[n] = d;
        dot_sum += d * alpha_.at(b, n);
      }
      float ge_sum = 0;
      for (size_t n = 0; n < fanout_; ++n) {
        ge[n] = alpha_.at(b, n) * (galpha[n] - dot_sum);
        // LeakyReLU backward.
        if (e_all_[b * fanout_ + n] < 0) ge[n] *= 0.2f;
        ge_sum += ge[n];
      }
      // e_n = a_s.ws_b + a_n.wn_n (pre-LeakyReLU): accumulate grads.
      const float* s = ws_.row(b);
      float* gs = gws.row(b);
      for (size_t i = 0; i < hidden_; ++i) {
        ga_self_.at(0, i) += ge_sum * s[i];
        gs[i] += ge_sum * a_self_.at(0, i);
      }
      for (size_t n = 0; n < fanout_; ++n) {
        const float a = alpha_.at(b, n);
        const float* u = wn_.row(b * fanout_ + n);
        float* gu = gwn.row(b * fanout_ + n);
        for (size_t i = 0; i < hidden_; ++i) {
          // Aggregation term + attention term.
          gu[i] += a * ghb[i] + ge[n] * a_nbr_.at(0, i);
          ga_nbr_.at(0, i) += ge[n] * u[i];
        }
      }
    }
    // Through the shared projection W: x grads and W grads.
    MatMulGradW(self_in_, gws, &gw_);
    MatMulGradW(nbr_in_, gwn, &gw_);
    MatMulGradX(gws, w_, grad_self, &wt_);
    MatMulGradX(gwn, w_, grad_neighbors, &wt_);
  }

  void Step() override {
    opt_.Apply(&w_, gw_);
    opt_.Apply(&a_self_, ga_self_);
    opt_.Apply(&a_nbr_, ga_nbr_);
    gw_.Zero();
    ga_self_.Zero();
    ga_nbr_.Zero();
    out_.Step(&opt_);
  }

 private:
  uint32_t dim_;
  size_t hidden_;
  size_t fanout_ = 0;
  Adagrad opt_;
  Tensor w_, gw_, a_self_, ga_self_, a_nbr_, ga_nbr_;
  Linear out_;
  Tensor ws_, wn_, alpha_, h_, concat_;
  Tensor self_in_, nbr_in_;
  Tensor wt_;  // w^T for MatMulGradX
  std::vector<float> e_raw_, e_all_;
};

// Softmax cross-entropy over class logits; returns mean loss and fills
// dL/dlogits. `labels[i]` in [0, C).
inline float SoftmaxCrossEntropy(const Tensor& logits,
                                 const std::vector<int>& labels,
                                 Tensor* grad) {
  const size_t B = logits.rows(), C = logits.cols();
  grad->Resize(B, C);
  float loss = 0;
  for (size_t b = 0; b < B; ++b) {
    const float* z = logits.row(b);
    float maxz = z[0];
    for (size_t c = 1; c < C; ++c) maxz = std::max(maxz, z[c]);
    float sum = 0;
    for (size_t c = 0; c < C; ++c) sum += std::exp(z[c] - maxz);
    const float logsum = std::log(sum) + maxz;
    loss += logsum - z[labels[b]];
    float* g = grad->row(b);
    for (size_t c = 0; c < C; ++c) {
      const float p = std::exp(z[c] - logsum);
      g[c] = (p - (static_cast<int>(c) == labels[b] ? 1.0f : 0.0f)) /
             static_cast<float>(B);
    }
  }
  return loss / static_cast<float>(B);
}

}  // namespace mlkv
