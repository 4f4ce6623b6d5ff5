// KgeTrainer: knowledge-graph embedding training over a KvBackend — the
// role DGL-KE plays in the paper. Trains DistMult / ComplEx with negative
// sampling and reports Hits@10 (paper Fig. 6 middle, Fig. 8 right,
// Fig. 9(b)).
//
// Also implements the BETA traversal of Marius [18,19] (paper Fig. 9(b)):
// entities are hashed into P partitions and triples are processed grouped
// by (head-partition, tail-partition) pairs ordered to maximize reuse of
// the partition resident in the buffer — the partition-based graph learning
// algorithm the paper layers look-ahead prefetching under.
//
// Storage access (lookahead, key dedup, Get, Put) is the minibatch driver
// shared with the CTR and GNN trainers (RunMinibatchJob in
// train/batch_io.h); this trainer supplies the triples, negatives, scoring
// and Hits@10 evaluation.
#pragma once

#include "backend/kv_backend.h"
#include "ml/kge_models.h"
#include "train/compute_delay.h"
#include "train/train_result.h"
#include "workloads/kg_gen.h"

namespace mlkv {

struct KgeTrainerOptions {
  KgConfig data;
  uint32_t dim = 32;                 // entity embedding dimension (even)
  KgeModelKind model = KgeModelKind::kDistMult;
  int batch_size = 256;              // positive triples per batch
  int negatives_per_positive = 4;
  int num_workers = 2;
  uint64_t train_batches = 400;      // per worker
  int eval_every = 100;
  int eval_triples = 500;
  int eval_negatives = 50;           // candidates per Hits@10 query
  float lr = 0.3f;
  int lookahead_depth = 0;
  bool use_beta = false;             // BETA partition ordering
  int beta_partitions = 8;
  uint64_t compute_micros_per_batch = 0;
  // Initialize embeddings for keys [0, preload_keys) before the timed run,
  // so out-of-core measurements start from a steady state (model resident
  // on disk) instead of an insert-only warmup. 0 skips preloading.
  uint64_t preload_keys = 0;
  uint64_t seed = 2;
};

class KgeTrainer {
 public:
  KgeTrainer(KvBackend* backend, const KgeTrainerOptions& options)
      : backend_(backend), options_(options) {}

  TrainResult Train();

 private:
  KvBackend* backend_;
  KgeTrainerOptions options_;
};

}  // namespace mlkv
