// Trainable dense layers with explicit forward/backward, plus the Adagrad
// and SGD optimizers used for the dense (non-embedding) parameters.
#pragma once

#include <cmath>
#include <unordered_map>
#include <vector>

#include "ml/tensor.h"

namespace mlkv {

// Per-parameter Adagrad state. Embedding gradients are applied through the
// KV store (paper Fig. 3 line 17-18: Put(keys, values + opt(gradients)));
// dense parameters use this class directly.
class Adagrad {
 public:
  explicit Adagrad(float lr = 0.01f, float eps = 1e-8f) : lr_(lr), eps_(eps) {}

  // State is keyed by parameter tensor identity, so one optimizer instance
  // can serve every parameter of a model.
  void Apply(Tensor* param, const Tensor& grad) {
    std::vector<float>& accum = accum_[param];
    if (accum.size() != param->size()) {
      accum.assign(param->size(), 0.0f);
    }
    float* p = param->data();
    const float* g = grad.data();
    for (size_t i = 0; i < param->size(); ++i) {
      accum[i] += g[i] * g[i];
      p[i] -= lr_ * g[i] / (std::sqrt(accum[i]) + eps_);
    }
  }

  float lr() const { return lr_; }

 private:
  float lr_, eps_;
  std::unordered_map<const Tensor*, std::vector<float>> accum_;
};

class Sgd {
 public:
  explicit Sgd(float lr = 0.01f) : lr_(lr) {}
  void Apply(Tensor* param, const Tensor& grad) {
    float* p = param->data();
    const float* g = grad.data();
    for (size_t i = 0; i < param->size(); ++i) p[i] -= lr_ * g[i];
  }
  float lr() const { return lr_; }

 private:
  float lr_;
};

// Fully connected layer: y = x * W + b, optional ReLU.
class Linear {
 public:
  Linear() = default;
  Linear(size_t in, size_t out, bool relu, Rng* rng)
      : relu_(relu) {
    w_.Resize(in, out);
    w_.InitGlorot(rng);
    b_.Resize(1, out);
  }

  const Tensor& Forward(const Tensor& x) {
    x_ = x;  // cache for backward
    MatMul(x, w_, &y_);
    for (size_t r = 0; r < y_.rows(); ++r) {
      float* yr = y_.row(r);
      for (size_t c = 0; c < y_.cols(); ++c) yr[c] += b_.at(0, c);
    }
    if (relu_) ReluInPlace(&y_);
    return y_;
  }

  // `grad_y` is dL/dy; returns dL/dx and accumulates parameter grads.
  const Tensor& Backward(const Tensor& grad_y) {
    gy_ = grad_y;
    if (relu_) ReluBackward(y_, &gy_);
    if (gw_.size() == 0) gw_.Resize(w_.rows(), w_.cols());
    if (gb_.size() == 0) gb_.Resize(1, b_.cols());
    MatMulGradW(x_, gy_, &gw_);
    for (size_t r = 0; r < gy_.rows(); ++r) {
      const float* gr = gy_.row(r);
      for (size_t c = 0; c < gy_.cols(); ++c) gb_.at(0, c) += gr[c];
    }
    MatMulGradX(gy_, w_, &gx_, &wt_);
    return gx_;
  }

  void Step(Adagrad* opt) {
    opt->Apply(&w_, gw_);
    // Bias shares the optimizer state domain poorly; use plain SGD scaled
    // by the same learning rate (standard practice for tiny models).
    float* b = b_.data();
    const float* g = gb_.data();
    for (size_t i = 0; i < b_.size(); ++i) b[i] -= opt->lr() * g[i];
    gw_.Zero();
    gb_.Zero();
  }

  Tensor* mutable_weights() { return &w_; }

 private:
  bool relu_ = false;
  Tensor w_, b_;
  Tensor x_, y_;            // forward caches
  Tensor gy_, gx_, gw_, gb_;  // backward scratch
  Tensor wt_;                 // w^T for MatMulGradX
};

// Binary cross-entropy with logits; returns mean loss, fills dL/dlogit.
inline float BceWithLogits(const Tensor& logits,
                           const std::vector<float>& labels, Tensor* grad) {
  const size_t n = logits.rows();
  grad->Resize(n, 1);
  float loss = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    const float z = logits.at(i, 0);
    const float y = labels[i];
    const float p = Sigmoid(z);
    // Stable: log(1+e^z) - y*z
    const float softplus = z > 20 ? z : std::log1p(std::exp(z));
    loss += softplus - y * z;
    grad->at(i, 0) = (p - y) / static_cast<float>(n);
  }
  return loss / static_cast<float>(n);
}

}  // namespace mlkv
