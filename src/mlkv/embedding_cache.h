// EmbeddingCache: a sharded LRU cache of key -> embedding vector, playing
// the role of the "application cache" in the paper's Fig. 5(b). Conventional
// prefetching (and Lookahead with an application-cache destination) fills
// this cache; trainers consult it before going to the store.
//
// Admission control (CacheAdmission::kTinyLfu, see docs/SERVING.md): each
// shard owns a TinyLfu sketch, updated on Get under the shard mutex. On
// eviction pressure a new key is inserted only if its sketch frequency
// strictly beats the LRU victim's — zipfian one-hit-wonders bounce off the
// doorkeeper instead of washing out the hot working set. Admission applies
// to every fill (including warm-up/prefetch Puts into a full cache): an
// unproven key never displaces a proven one.
//
// Eviction reuses the victim's storage: the map node is extracted and
// re-keyed and the victim's row vector and LRU list node are recycled, so a
// full cache runs with zero per-insert allocation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "kv/record.h"
#include "serve/tinylfu.h"

namespace mlkv {

class EmbeddingCache {
 public:
  // `capacity` is the max number of cached vectors; `dim` their length.
  // `shards` rounds up via ShardMask so routing is the shared mask-based
  // ShardOf (common/hash.h) instead of a hash-mod.
  EmbeddingCache(size_t capacity, uint32_t dim, size_t shards = 16,
                 CacheAdmission admission = CacheAdmission::kLru)
      : dim_(dim), shard_mask_(ShardMask(shards)), admission_(admission) {
    per_shard_capacity_ = capacity / (shard_mask_ + 1);
    if (per_shard_capacity_ == 0) per_shard_capacity_ = 1;
    shard_data_ = std::vector<Shard>(shard_mask_ + 1);
    if (admission_ == CacheAdmission::kTinyLfu) {
      for (auto& s : shard_data_) {
        // Counters sized to the slots the sketch guards; the window (10x
        // capacity, Caffeine's default shape) bounds how long a dead hot
        // key can hold its seat before aging decays it.
        s.sketch = std::make_unique<TinyLfu>(
            per_shard_capacity_ * 4,
            std::max<uint64_t>(512, per_shard_capacity_ * 10));
      }
    }
  }

  uint32_t dim() const { return dim_; }
  CacheAdmission admission() const { return admission_; }

  bool Get(Key key, float* out) {
    const uint64_t h = Hash64(key);
    Shard& s = shard_data_[ShardOf(h, shard_mask_)];
    std::lock_guard<std::mutex> lk(s.mu);
    // Every lookup (hit or miss) feeds the frequency sketch — misses are
    // exactly the accesses a later admission decision needs to know about.
    if (s.sketch) s.sketch->RecordAccess(h);
    auto it = s.map.find(key);
    if (it == s.map.end()) {
      ++s.misses;
      return false;
    }
    s.lru.splice(s.lru.begin(), s.lru, it->second.lru_it);
    std::copy(it->second.value.begin(), it->second.value.end(), out);
    ++s.hits;
    return true;
  }

  void Put(Key key, const float* value) {
    const uint64_t h = Hash64(key);
    Shard& s = shard_data_[ShardOf(h, shard_mask_)];
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = s.map.find(key);
    if (it != s.map.end()) {
      std::copy(value, value + dim_, it->second.value.begin());
      s.lru.splice(s.lru.begin(), s.lru, it->second.lru_it);
      return;
    }
    if (s.map.size() >= per_shard_capacity_) {
      const Key victim = s.lru.back();
      if (s.sketch && !s.sketch->Admit(h, Hash64(victim))) {
        ++s.admission_rejects;
        return;
      }
      // Evict the victim, recycling its map node (extract + re-key keeps
      // the row vector's heap block) and its LRU list node.
      auto node = s.map.extract(victim);
      node.key() = key;
      std::copy(value, value + dim_, node.mapped().value.begin());
      s.lru.back() = key;
      s.lru.splice(s.lru.begin(), s.lru, std::prev(s.lru.end()));
      node.mapped().lru_it = s.lru.begin();
      s.map.insert(std::move(node));
      ++s.evictions;
      return;
    }
    s.lru.push_front(key);
    Entry e;
    e.value.assign(value, value + dim_);
    e.lru_it = s.lru.begin();
    s.map.emplace(key, std::move(e));
  }

  void Erase(Key key) {
    Shard& s = ShardFor(key);
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = s.map.find(key);
    if (it == s.map.end()) return;
    s.lru.erase(it->second.lru_it);
    s.map.erase(it);
  }

  size_t size() const {
    size_t n = 0;
    for (const auto& s : shard_data_) {
      std::lock_guard<std::mutex> lk(s.mu);
      n += s.map.size();
    }
    return n;
  }

  struct CacheStats {
    uint64_t hits = 0, misses = 0, evictions = 0;
    // TinyLFU admission outcomes (zero under kLru): inserts refused
    // because the candidate's frequency lost to the victim's, and sketch
    // aging resets (counter halving + doorkeeper clear).
    uint64_t admission_rejects = 0;
    uint64_t admission_agings = 0;
  };

  // Per-shard visibility for labeled metrics families (no obs dependency
  // here — callers own the emission).
  size_t num_cache_shards() const { return shard_data_.size(); }
  CacheStats shard_stats(size_t i) const {
    const Shard& s = shard_data_[i];
    std::lock_guard<std::mutex> lk(s.mu);
    CacheStats c;
    c.hits = s.hits;
    c.misses = s.misses;
    c.evictions = s.evictions;
    c.admission_rejects = s.admission_rejects;
    if (s.sketch) c.admission_agings = s.sketch->agings();
    return c;
  }

  CacheStats stats() const {
    CacheStats c;
    for (size_t i = 0; i < shard_data_.size(); ++i) {
      const CacheStats cs = shard_stats(i);
      c.hits += cs.hits;
      c.misses += cs.misses;
      c.evictions += cs.evictions;
      c.admission_rejects += cs.admission_rejects;
      c.admission_agings += cs.admission_agings;
    }
    return c;
  }

 private:
  struct Entry {
    std::vector<float> value;
    std::list<Key>::iterator lru_it;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, Entry> map;
    std::list<Key> lru;
    std::unique_ptr<TinyLfu> sketch;  // set iff admission == kTinyLfu
    uint64_t hits = 0, misses = 0, evictions = 0, admission_rejects = 0;
  };

  Shard& ShardFor(Key key) {
    return shard_data_[ShardOf(Hash64(key), shard_mask_)];
  }

  uint32_t dim_;
  uint64_t shard_mask_;
  CacheAdmission admission_;
  size_t per_shard_capacity_;
  std::vector<Shard> shard_data_;
};

}  // namespace mlkv
