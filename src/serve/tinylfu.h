// TinyLfu: a count-min sketch with 4-bit counters, a doorkeeper bitset, and
// periodic aging — the frequency estimator behind admission-controlled
// caching (W-TinyLFU shape). The serving tier uses it to decide whether a
// candidate row earned its place in the cache: on eviction pressure the
// candidate only displaces the LRU victim if its estimated access frequency
// is strictly higher, so a stream of one-hit-wonders can never wash out the
// hot working set.
//
// Layout: kRows independent rows of 4-bit saturating counters (two per
// byte), each row indexed by its own multiplicative re-mix of the caller's
// 64-bit key hash; an estimate is the minimum across rows (count-min). The
// doorkeeper bitset absorbs the first access of every key — only repeat
// accesses within the sample window touch the counters, so the sketch's
// 15-cap capacity is spent on keys that recur. After `sample_window`
// recorded accesses every counter is halved and the doorkeeper cleared
// (the "reset" aging step), which turns lifetime counts into a sliding
// frequency estimate and lets yesterday's hot keys decay.
//
// Not thread-safe by design: each EmbeddingCache shard owns one sketch and
// records under the shard mutex it already holds, so the sketch adds no
// atomics to the cache hot path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mlkv {

// How a cache under eviction pressure decides whether a new key may
// displace the LRU victim. Lives here (not in the cache header) so the
// MakeCachingBackend seam can name it without pulling in the cache itself.
enum class CacheAdmission : uint8_t {
  kLru,      // classic: every insert evicts the LRU victim
  kTinyLfu,  // insert only if the candidate's sketch frequency wins
};

class TinyLfu {
 public:
  // `counters` is the per-row counter count (rounded up to a power of two,
  // min 64); size it near the number of cache slots the sketch guards.
  // `sample_window` is the aging period in recorded accesses; 0 derives
  // 8x counters (a few generations of the guarded working set).
  explicit TinyLfu(size_t counters, uint64_t sample_window = 0);

  // Records one access of the key behind `hash` (callers pass Hash64(key)).
  // First access in the window goes to the doorkeeper; repeats increment
  // the sketch (conservative update: only the minimal counters move).
  void RecordAccess(uint64_t hash);

  // Estimated access frequency within the current window: sketch minimum
  // plus one if the doorkeeper has seen the key. Saturates at 16.
  uint32_t Estimate(uint64_t hash) const;

  // The admission decision: may the candidate displace the victim? Strict
  // comparison — ties keep the incumbent, which is what makes a one-hit
  // wonder (estimate <= 1) lose to any key with history.
  bool Admit(uint64_t candidate_hash, uint64_t victim_hash) const {
    return Estimate(candidate_hash) > Estimate(victim_hash);
  }

  uint64_t accesses() const { return accesses_; }
  uint64_t agings() const { return agings_; }
  uint64_t sample_window() const { return sample_window_; }
  size_t counters_per_row() const { return mask_ + 1; }

 private:
  static constexpr size_t kRows = 4;

  // Halves every counter and clears the doorkeeper.
  void Age();

  uint8_t Nibble(size_t row, size_t idx) const {
    const uint8_t b = table_[row * ((mask_ + 1) >> 1) + (idx >> 1)];
    return (idx & 1) ? (b >> 4) : (b & 0x0F);
  }
  void BumpNibble(size_t row, size_t idx) {
    uint8_t& b = table_[row * ((mask_ + 1) >> 1) + (idx >> 1)];
    if (idx & 1) {
      b = static_cast<uint8_t>(b + 0x10);
    } else {
      b = static_cast<uint8_t>(b + 0x01);
    }
  }
  size_t IndexFor(size_t row, uint64_t hash) const;

  uint64_t mask_ = 0;            // counters-per-row - 1 (power of two)
  uint64_t sample_window_ = 0;
  uint64_t window_accesses_ = 0;  // accesses since the last aging
  uint64_t accesses_ = 0;
  uint64_t agings_ = 0;
  std::vector<uint8_t> table_;   // kRows rows of packed 4-bit counters
  std::vector<uint64_t> door_;   // doorkeeper bitset, counters bits
};

}  // namespace mlkv
