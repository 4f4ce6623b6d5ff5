// Synthetic power-law graph with community structure for GNN node
// classification (stands in for ogbn-papers100M; see README, "Substitutions
// and deviations").
//
// Construction is implicit (no adjacency materialization): node degrees and
// neighbor identities derive deterministically from hashes, with
// preferential attachment approximated by sampling neighbor ids with a
// power-law bias toward low ids (early nodes = hubs, as in BA graphs).
// Labels follow the node's community with noise; intra-community edges
// dominate, so neighbor aggregation genuinely helps classification.
#pragma once

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "kv/record.h"

namespace mlkv {

struct GraphConfig {
  uint64_t num_nodes = 200000;
  int num_classes = 8;
  int fanout = 8;              // sampled neighbors per node
  double intra_community = 0.8;  // edge locality
  double label_noise = 0.1;
  uint64_t seed = 777;
};

class GraphGenerator {
 public:
  explicit GraphGenerator(const GraphConfig& config, uint64_t stream_seed = 0)
      : config_(config), rng_(config.seed * 13 + stream_seed) {}

  int CommunityOf(Key node) const {
    return static_cast<int>(Hash64(node ^ (config_.seed * 71ull)) %
                            static_cast<uint64_t>(config_.num_classes));
  }

  int LabelOf(Key node) {
    if (rng_.NextDouble() < config_.label_noise) {
      return static_cast<int>(rng_.Uniform(config_.num_classes));
    }
    return CommunityOf(node);
  }

  // Deterministic label (no noise) for held-out evaluation.
  int TrueLabelOf(Key node) const { return CommunityOf(node); }

  Key SampleTrainNode() { return rng_.Uniform(config_.num_nodes); }

  // Samples `fanout` neighbors of `node`. Mostly same-community (homophily)
  // with hub bias: neighbor ids are skewed toward low values.
  void SampleNeighbors(Key node, std::vector<Key>* out) {
    out->resize(config_.fanout);
    const int community = CommunityOf(node);
    for (int i = 0; i < config_.fanout; ++i) {
      Key nbr;
      if (rng_.NextDouble() < config_.intra_community) {
        // Rejection-sample within the community, hub-biased.
        nbr = HubBiasedNode();
        for (int tries = 0; tries < 32 && CommunityOf(nbr) != community;
             ++tries) {
          nbr = HubBiasedNode();
        }
      } else {
        nbr = HubBiasedNode();
      }
      (*out)[i] = nbr;
    }
  }

  const GraphConfig& config() const { return config_; }

 private:
  // P(id) ~ 1/sqrt(id+1): hubs at small ids, like preferential attachment.
  Key HubBiasedNode() {
    const double u = rng_.NextDouble();
    const double x = u * u * static_cast<double>(config_.num_nodes - 1);
    return static_cast<Key>(x);
  }

  GraphConfig config_;
  Rng rng_;
};

}  // namespace mlkv
