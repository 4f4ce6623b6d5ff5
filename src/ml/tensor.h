// Minimal dense 2-D float tensor for the model substrate. The paper's
// systems hand the neural-network math to PyTorch on a GPU; here the NN is
// CPU-side (see README, "Substitutions and deviations") and deliberately
// simple — correctness and a realistic compute/IO ratio matter, peak FLOPs
// do not.
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/simd.h"

namespace mlkv {

class Tensor {
 public:
  Tensor() : rows_(0), cols_(0) {}
  Tensor(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* row(size_t r) { return data_.data() + r * cols_; }
  const float* row(size_t r) const { return data_.data() + r * cols_; }

  float& at(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float at(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  void Zero() { std::fill(data_.begin(), data_.end(), 0.0f); }

  // Glorot-uniform initialization.
  void InitGlorot(Rng* rng) {
    const float limit = std::sqrt(6.0f / static_cast<float>(rows_ + cols_));
    for (float& v : data_) {
      v = static_cast<float>(rng->NextDouble() * 2.0 - 1.0) * limit;
    }
  }

  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0f);
  }

 private:
  size_t rows_, cols_;
  std::vector<float> data_;
};

// The three products route every output row through
// simd::AddRowCombination, which keeps each output's accumulation order
// and the zero-skips of the plain loops (MatMul and MatMulGradW skip a
// zero input, MatMulGradX skips nothing), so every kernel tier computes
// bit-identical results.

// out[B,N] = x[B,M] * w[M,N]
inline void MatMul(const Tensor& x, const Tensor& w, Tensor* out) {
  assert(x.cols() == w.rows());
  out->Resize(x.rows(), w.cols());
  const size_t B = x.rows(), M = x.cols(), N = w.cols();
  for (size_t b = 0; b < B; ++b) {
    simd::AddRowCombination(out->row(b), x.row(b), 1, w.data(), N, M, N,
                            /*skip_zeros=*/true);
  }
}

// out[B,M] = g[B,N] * w[M,N]^T   (gradient w.r.t. x). `wt` is the
// caller's scratch for w^T, so each output row is a combination of its
// rows; it is resized only when w's shape changes.
inline void MatMulGradX(const Tensor& g, const Tensor& w, Tensor* out,
                        Tensor* wt) {
  assert(g.cols() == w.cols());
  const size_t B = g.rows(), M = w.rows(), N = w.cols();
  if (wt->rows() != N || wt->cols() != M) wt->Resize(N, M);
  for (size_t m = 0; m < M; ++m) {
    const float* wr = w.row(m);
    for (size_t n = 0; n < N; ++n) wt->at(n, m) = wr[n];
  }
  out->Resize(B, M);
  for (size_t b = 0; b < B; ++b) {
    simd::AddRowCombination(out->row(b), g.row(b), 1, wt->data(), M, N, M,
                            /*skip_zeros=*/false);
  }
}

// out[M,N] += x[B,M]^T * g[B,N]  (gradient w.r.t. w)
inline void MatMulGradW(const Tensor& x, const Tensor& g, Tensor* out) {
  assert(x.rows() == g.rows());
  if (out->rows() != x.cols() || out->cols() != g.cols()) {
    out->Resize(x.cols(), g.cols());
  }
  const size_t B = x.rows(), M = x.cols(), N = g.cols();
  for (size_t m = 0; m < M; ++m) {
    simd::AddRowCombination(out->row(m), x.data() + m, M, g.data(), N, B, N,
                            /*skip_zeros=*/true);
  }
}

inline float Sigmoid(float x) {
  // Numerically stable for large |x|.
  if (x >= 0) {
    const float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  const float z = std::exp(x);
  return z / (1.0f + z);
}

inline void ReluInPlace(Tensor* t) {
  float* d = t->data();
  for (size_t i = 0; i < t->size(); ++i) {
    if (d[i] < 0) d[i] = 0;
  }
}

// grad *= 1[pre > 0], where `pre` is the pre-activation tensor.
inline void ReluBackward(const Tensor& post, Tensor* grad) {
  assert(post.size() == grad->size());
  const float* p = post.data();
  float* g = grad->data();
  for (size_t i = 0; i < grad->size(); ++i) {
    if (p[i] <= 0) g[i] = 0;
  }
}

}  // namespace mlkv
