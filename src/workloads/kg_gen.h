// Synthetic knowledge graph for KGE link prediction (stands in for
// WikiKG2 / Freebase86M; see README, "Substitutions and deviations").
//
// Entities get Zipfian degrees (real KGs are heavy-tailed). Ground truth is
// planted through latent entity clusters: relation r connects cluster
// c -> (c + r_shift) mod C, so (h, r, ?) is learnable: the correct tails
// concentrate in one cluster. Triples are generated on the fly; a held-out
// set with sampled negatives drives Hits@k.
#pragma once

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "kv/record.h"

namespace mlkv {

struct KgConfig {
  uint64_t num_entities = 100000;
  int num_relations = 16;
  int num_clusters = 32;
  double zipf_theta = 0.8;
  double edge_noise = 0.05;  // fraction of triples with a random tail
  uint64_t seed = 321;
};

struct KgTriple {
  Key head;
  int relation;
  Key tail;
};

class KgGenerator {
 public:
  explicit KgGenerator(const KgConfig& config, uint64_t stream_seed = 0)
      : config_(config),
        rng_(config.seed * 17 + stream_seed),
        head_zipf_(config.num_entities, config.zipf_theta,
                   config.seed + 5 + stream_seed * 13) {}

  int ClusterOf(Key entity) const {
    return static_cast<int>(Hash64(entity ^ (config_.seed * 1013ull)) %
                            static_cast<uint64_t>(config_.num_clusters));
  }

  // A relation shifts clusters by a deterministic amount.
  int RelationShift(int relation) const {
    return static_cast<int>(
        Hash64(static_cast<uint64_t>(relation) + config_.seed * 3ull) %
        static_cast<uint64_t>(config_.num_clusters));
  }

  KgTriple Next() {
    KgTriple t;
    t.head = head_zipf_.NextScrambled();
    t.relation = static_cast<int>(rng_.Uniform(config_.num_relations));
    if (rng_.NextDouble() < config_.edge_noise) {
      t.tail = rng_.Uniform(config_.num_entities);
      return t;
    }
    const int target_cluster =
        (ClusterOf(t.head) + RelationShift(t.relation)) %
        config_.num_clusters;
    // Rejection-sample a tail from the target cluster (clusters are dense
    // enough that a few tries suffice; cap for safety).
    for (int tries = 0; tries < 64; ++tries) {
      const Key cand = rng_.Uniform(config_.num_entities);
      if (ClusterOf(cand) == target_cluster) {
        t.tail = cand;
        return t;
      }
    }
    t.tail = rng_.Uniform(config_.num_entities);
    return t;
  }

  // Uniform negative tail for contrastive training / evaluation.
  Key SampleNegativeTail() { return rng_.Uniform(config_.num_entities); }

  const KgConfig& config() const { return config_; }

 private:
  KgConfig config_;
  Rng rng_;
  ZipfianGenerator head_zipf_;
};

}  // namespace mlkv
