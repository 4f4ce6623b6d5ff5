// Log-bucketed latency histogram (power-of-two buckets with linear
// sub-buckets), lock-free on the record path via relaxed atomics. Used by the
// benchmark harness for the Fig. 2 latency breakdown and per-op percentiles.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace mlkv {

class Histogram {
 public:
  static constexpr int kSubBits = 4;  // 16 linear sub-buckets
  // Exactly the range BucketFor can return (BucketFor(UINT64_MAX) is the
  // last bucket), so every bucket's RepresentativeValue fits in a uint64.
  static constexpr int kBuckets = (64 - kSubBits + 1) << kSubBits;

  Histogram() { Reset(); }

  void Reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

  void Record(uint64_t v) {
    buckets_[BucketFor(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    uint64_t prev = max_.load(std::memory_order_relaxed);
    while (v > prev &&
           !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const {
    const uint64_t c = count();
    return c ? static_cast<double>(sum()) / static_cast<double>(c) : 0.0;
  }

  // Value at quantile q in [0,1]; returns the bucket's representative value,
  // except q >= 1.0 which returns the exact observed max.
  uint64_t Percentile(double q) const {
    const uint64_t c = count();
    if (c == 0) return 0;
    if (q >= 1.0) return max();
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(c));
    if (rank >= c) rank = c - 1;
    uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += buckets_[i].load(std::memory_order_relaxed);
      if (seen > rank) return RepresentativeValue(i);
    }
    return max();
  }

  // Merge another histogram into this one (for per-thread aggregation).
  void Merge(const Histogram& o) {
    for (int i = 0; i < kBuckets; ++i) {
      const uint64_t v = o.buckets_[i].load(std::memory_order_relaxed);
      if (v) buckets_[i].fetch_add(v, std::memory_order_relaxed);
    }
    count_.fetch_add(o.count(), std::memory_order_relaxed);
    sum_.fetch_add(o.sum(), std::memory_order_relaxed);
    uint64_t m = o.max();
    uint64_t prev = max_.load(std::memory_order_relaxed);
    while (m > prev &&
           !max_.compare_exchange_weak(prev, m, std::memory_order_relaxed)) {
    }
  }

  // Number of recorded values that fall in buckets wholly <= v: the
  // cumulative count backing a Prometheus `le` bound. Conservative at bucket
  // granularity — a bucket straddling v is excluded entirely.
  uint64_t CountAtOrBelow(uint64_t v) const {
    uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      const uint64_t upper =
          (i + 1 < kBuckets) ? RepresentativeValue(i + 1) - 1 : UINT64_MAX;
      if (upper > v) break;
      seen += buckets_[i].load(std::memory_order_relaxed);
    }
    return seen;
  }

  std::string Summary() const;

  // One-line snapshot with the full percentile ladder, for exposition and
  // the stats CLI (Summary() keeps its historical short form).
  std::string SnapshotString() const;

 private:
  static int BucketFor(uint64_t v) {
    if (v < (1ull << kSubBits)) return static_cast<int>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int sub =
        static_cast<int>((v >> (msb - kSubBits)) & ((1 << kSubBits) - 1));
    return ((msb - kSubBits + 1) << kSubBits) + sub;
  }

  static uint64_t RepresentativeValue(int bucket) {
    if (bucket < (1 << kSubBits)) return static_cast<uint64_t>(bucket);
    const int exp = (bucket >> kSubBits) + kSubBits - 1;
    const int sub = bucket & ((1 << kSubBits) - 1);
    return (1ull << exp) + (static_cast<uint64_t>(sub) << (exp - kSubBits));
  }

  std::array<std::atomic<uint64_t>, kBuckets> buckets_;
  std::atomic<uint64_t> count_, sum_, max_;
};

}  // namespace mlkv
