// GnnTrainer: GNN node-classification training over a KvBackend — the role
// DGL plays in the paper (Fig. 6 right, Fig. 7(c)). Also runs the eBay risk
// detection case studies (Fig. 11) when constructed with an EbayGenerator-
// backed sampler: those are binary-classified GraphSage jobs on bipartite /
// tripartite graphs, so the trainer takes a generic batch sampler.
//
// Storage access (lookahead, key dedup, Get, Put) is the minibatch driver
// shared with the CTR and KGE trainers (RunMinibatchJob in
// train/batch_io.h); this trainer supplies the samples, the model and
// evaluation.
#pragma once

#include <functional>

#include "backend/kv_backend.h"
#include "ml/gnn_models.h"
#include "train/compute_delay.h"
#include "train/train_result.h"
#include "workloads/ebay_gen.h"
#include "workloads/graph_gen.h"

namespace mlkv {

enum class GnnModelKind { kGraphSage, kGat };
enum class GnnTask { kPapers, kEbayTrisk, kEbayPayout };

struct GnnTrainerOptions {
  GraphConfig graph;        // used for kPapers
  EbayConfig ebay;          // used for eBay tasks
  GnnTask task = GnnTask::kPapers;
  uint32_t dim = 32;
  GnnModelKind model = GnnModelKind::kGraphSage;
  size_t hidden = 32;
  int batch_size = 128;
  int num_workers = 2;
  uint64_t train_batches = 400;  // per worker
  int eval_every = 100;
  int eval_nodes = 1000;
  float embedding_lr = 0.05f;
  float dense_lr = 0.05f;
  int lookahead_depth = 0;
  uint64_t compute_micros_per_batch = 0;
  // Initialize embeddings for keys [0, preload_keys) before the timed run,
  // so out-of-core measurements start from a steady state (model resident
  // on disk) instead of an insert-only warmup. 0 skips preloading.
  uint64_t preload_keys = 0;
  uint64_t seed = 3;
};

class GnnTrainer {
 public:
  GnnTrainer(KvBackend* backend, const GnnTrainerOptions& options)
      : backend_(backend), options_(options) {}

  TrainResult Train();

 private:
  KvBackend* backend_;
  GnnTrainerOptions options_;
};

}  // namespace mlkv
