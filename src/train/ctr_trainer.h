// CtrTrainer: DLRM-style CTR training pipeline over a KvBackend — the role
// PERSIA's computation layer plays in the paper's experiments.
//
// Workers run the Fig. 3 loop: dedup batch keys -> Get embeddings ->
// NN forward/backward -> Put updated embeddings (value - lr * grad). Dense
// parameters are per-worker replicas (the paper trains the NN synchronously
// on GPUs; embedding staleness — the storage concern — is what varies).
// The storage half of each step — Lookahead() for the batch
// `lookahead_depth` ahead (§III-C2), key dedup, Get and Put — is the
// minibatch driver shared with the KGE and GNN trainers
// (RunMinibatchJob in train/batch_io.h); this trainer supplies the
// samples, the model and AUC evaluation.
#pragma once

#include <memory>

#include "backend/kv_backend.h"
#include "train/compute_delay.h"
#include "train/train_result.h"
#include "workloads/ctr_gen.h"

namespace mlkv {

enum class CtrModelKind { kFfnn, kDcn };

struct CtrTrainerOptions {
  CtrConfig data;
  uint32_t dim = 16;
  CtrModelKind model = CtrModelKind::kFfnn;
  int batch_size = 256;
  int num_workers = 2;
  uint64_t train_batches = 500;   // per worker
  int eval_every = 100;           // batches between eval points (worker 0)
  int eval_samples = 2000;
  float embedding_lr = 0.05f;
  float dense_lr = 0.05f;
  // Look-ahead prefetching: 0 disables; N issues Lookahead for the batch
  // N positions ahead of the one being trained.
  int lookahead_depth = 0;
  uint64_t compute_micros_per_batch = 0;  // GPU-time substitution
  // Initialize embeddings for keys [0, preload_keys) before the timed run,
  // so out-of-core measurements start from a steady state (model resident
  // on disk) instead of an insert-only warmup. 0 skips preloading.
  uint64_t preload_keys = 0;
  uint64_t seed = 1;
};

class CtrTrainer {
 public:
  CtrTrainer(KvBackend* backend, const CtrTrainerOptions& options)
      : backend_(backend), options_(options) {}

  // Runs the full training job; blocking. Thread-safe w.r.t. the backend.
  TrainResult Train();

  // Evaluates AUC of a freshly-initialized model pipeline (sanity hooks for
  // tests); Train() reports AUC along the way in metric_curve.

 private:
  KvBackend* backend_;
  CtrTrainerOptions options_;
};

}  // namespace mlkv
