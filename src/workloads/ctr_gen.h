// Synthetic Criteo-style CTR stream (stands in for Criteo-Ad /
// Criteo-Terabyte; see README, "Substitutions and deviations").
//
// Each sample has `num_fields` categorical features (one id per field, drawn
// Zipfian within the field — real ad traffic is heavily skewed), plus
// `num_dense` dense features. Labels come from a planted ground-truth
// model: a hidden per-(field,id) weight vector and dense weights feed a
// logistic model, so a trained model's AUC genuinely rises toward the
// planted model's AUC and convergence curves (Fig. 2/6/8) are meaningful.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "kv/record.h"

namespace mlkv {

struct CtrConfig {
  int num_fields = 8;                // m categorical fields
  uint64_t field_cardinality = 100000;  // n_i per field
  int num_dense = 4;
  double zipf_theta = 0.9;           // feature popularity skew
  double label_noise = 0.15;         // fraction of labels flipped
  uint64_t seed = 123;
};

struct CtrSample {
  std::vector<Key> keys;          // num_fields global embedding keys
  std::vector<float> dense;       // num_dense features
  float label;                    // 0/1 click
};

class CtrGenerator {
 public:
  explicit CtrGenerator(const CtrConfig& config, uint64_t stream_seed = 0)
      : config_(config), rng_(config.seed * 31 + stream_seed) {
    zipf_.reserve(config.num_fields);
    for (int f = 0; f < config.num_fields; ++f) {
      zipf_.emplace_back(config.field_cardinality, config.zipf_theta,
                         config.seed + 1000 + static_cast<uint64_t>(f) +
                             stream_seed * 971);
    }
  }

  // Global key space: field f, local id x -> f * cardinality + x. Keys are
  // shared across samples, giving the skewed reuse that caching exploits.
  Key GlobalKey(int field, uint64_t local_id) const {
    return static_cast<Key>(field) * config_.field_cardinality + local_id;
  }
  uint64_t total_keys() const {
    return static_cast<uint64_t>(config_.num_fields) *
           config_.field_cardinality;
  }

  CtrSample Next() {
    CtrSample s;
    s.keys.resize(config_.num_fields);
    s.dense.resize(config_.num_dense);
    double logit = -1.0;  // negative prior: clicks are rare-ish
    for (int f = 0; f < config_.num_fields; ++f) {
      const uint64_t local = zipf_[f].NextScrambled();
      s.keys[f] = GlobalKey(f, local);
      logit += HiddenWeight(s.keys[f]);
    }
    for (int d = 0; d < config_.num_dense; ++d) {
      s.dense[d] = static_cast<float>(rng_.NextGaussian());
      logit += 0.3 * HiddenDenseWeight(d) * s.dense[d];
    }
    const double p = 1.0 / (1.0 + std::exp(-logit));
    bool label = rng_.NextDouble() < p;
    if (rng_.NextDouble() < config_.label_noise) label = !label;
    s.label = label ? 1.0f : 0.0f;
    return s;
  }

  const CtrConfig& config() const { return config_; }

 private:
  // Deterministic hidden weights derived from the key: the planted model.
  double HiddenWeight(Key key) const {
    const uint64_t h = Hash64(key ^ (config_.seed * 0x9E3779B9ull));
    // Uniform in [-2, 2]: strong enough that the Bayes-optimal AUC is ~0.85
    // and convergence curves have visible headroom above chance.
    return (static_cast<double>(h >> 11) / static_cast<double>(1ull << 53) -
            0.5) * 4.0;
  }
  double HiddenDenseWeight(int d) const {
    const uint64_t h = Hash64(static_cast<uint64_t>(d) + config_.seed * 77);
    return (static_cast<double>(h >> 11) / static_cast<double>(1ull << 53) -
            0.5) * 2.0;
  }

  CtrConfig config_;
  Rng rng_;
  std::vector<ZipfianGenerator> zipf_;
};

}  // namespace mlkv
