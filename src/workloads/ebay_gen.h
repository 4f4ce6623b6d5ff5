// Synthetic stand-ins for the paper's two eBay production workloads
// (§IV-F, Fig. 11). Scaled down but preserving the topology class and the
// storage access pattern (see README, "Substitutions and deviations"):
//
//  * eBay-Trisk: payment transaction risk detection on a BIPARTITE graph —
//    transaction nodes connect to entity nodes (buyers, cards, devices).
//    Entities are heavy-tailed (a hot buyer appears in many transactions).
//  * eBay-Payout: seller payout risk on a TRIPARTITE graph of sellers,
//    items, and buyer checkouts; 1.7B nodes at eBay, scaled here.
//
// Risk labels are planted on entities: a small fraction of entities are
// "risky" and transactions touching risky entities are likely fraudulent —
// so a GNN aggregating entity embeddings genuinely learns the label, and
// AUC-vs-time curves (Fig. 11b) behave like the production task.
#pragma once

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "kv/record.h"

namespace mlkv {

struct EbayConfig {
  uint64_t num_transactions = 500000;  // Trisk: transactions; Payout: checkouts
  uint64_t num_entities = 200000;      // buyers/cards or sellers/items
  int entities_per_transaction = 4;
  double risky_entity_fraction = 0.03;
  double zipf_theta = 0.95;            // hot entities dominate
  double label_noise = 0.05;
  uint64_t seed = 888;
  bool tripartite = false;             // Payout: seller -> item -> checkout
};

struct EbaySample {
  Key transaction;            // the node being classified
  std::vector<Key> entities;  // neighbor nodes whose embeddings are fetched
  float label;                // 1 = risky
};

class EbayGenerator {
 public:
  explicit EbayGenerator(const EbayConfig& config, uint64_t stream_seed = 0)
      : config_(config),
        rng_(config.seed * 29 + stream_seed),
        entity_zipf_(config.num_entities, config.zipf_theta,
                     config.seed + 3 + stream_seed * 7) {}

  // Key spaces: transactions occupy [0, T); entities [T, T + E).
  Key EntityKey(uint64_t entity_id) const {
    return config_.num_transactions + entity_id;
  }
  uint64_t total_keys() const {
    return config_.num_transactions + config_.num_entities;
  }

  bool IsRiskyEntity(uint64_t entity_id) const {
    const uint64_t h = Hash64(entity_id ^ (config_.seed * 601ull));
    return (static_cast<double>(h >> 11) / static_cast<double>(1ull << 53)) <
           config_.risky_entity_fraction;
  }

  EbaySample Next() {
    EbaySample s;
    s.transaction = rng_.Uniform(config_.num_transactions);
    s.entities.resize(config_.entities_per_transaction);
    int risky_count = 0;
    for (int i = 0; i < config_.entities_per_transaction; ++i) {
      uint64_t ent = entity_zipf_.NextScrambled();
      if (config_.tripartite && i > 0) {
        // Payout: later hops derive from the first entity (seller -> its
        // items/checkouts cluster), concentrating access.
        ent = Hash64(s.entities[0] * 131 + static_cast<uint64_t>(i)) %
              config_.num_entities;
      }
      s.entities[i] = EntityKey(ent);
      if (IsRiskyEntity(ent)) ++risky_count;
    }
    bool risky = risky_count > 0 && rng_.NextDouble() <
                                        (0.35 + 0.5 * risky_count /
                                                    config_.entities_per_transaction);
    if (rng_.NextDouble() < config_.label_noise) risky = !risky;
    s.label = risky ? 1.0f : 0.0f;
    return s;
  }

  const EbayConfig& config() const { return config_; }

 private:
  EbayConfig config_;
  Rng rng_;
  ZipfianGenerator entity_zipf_;
};

}  // namespace mlkv
