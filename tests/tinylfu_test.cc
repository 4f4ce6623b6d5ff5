// TinyLFU frequency-sketch and admission-controlled EmbeddingCache tests:
// doorkeeper absorption, count saturation, the halving/reset aging step,
// strict-win admission, and the headline behavior — a TinyLFU-guarded
// cache holds its hot working set through a one-hit-wonder scan that
// washes a plain LRU cache out.
#include <gtest/gtest.h>

#include <vector>

#include "common/hash.h"
#include "mlkv/embedding_cache.h"
#include "serve/tinylfu.h"

namespace mlkv {
namespace {

TEST(TinyLfuTest, DoorkeeperAbsorbsFirstAccess) {
  TinyLfu s(1024);
  const uint64_t h = Hash64(42);
  EXPECT_EQ(s.Estimate(h), 0u);
  s.RecordAccess(h);
  EXPECT_EQ(s.Estimate(h), 1u);  // doorkeeper bit only, counters untouched
  s.RecordAccess(h);
  EXPECT_EQ(s.Estimate(h), 2u);  // first sketch bump
  EXPECT_EQ(s.accesses(), 2u);
}

TEST(TinyLfuTest, EstimateSaturatesAtSixteen) {
  TinyLfu s(1024);
  const uint64_t h = Hash64(7);
  for (int i = 0; i < 64; ++i) s.RecordAccess(h);
  // 4-bit counters cap at 15; the doorkeeper contributes the final +1.
  EXPECT_EQ(s.Estimate(h), 16u);
}

TEST(TinyLfuTest, CountersRoundUpToPowerOfTwoMinimum64) {
  TinyLfu small(1);
  EXPECT_EQ(small.counters_per_row(), 64u);
  TinyLfu odd(100);
  EXPECT_EQ(odd.counters_per_row(), 128u);
  // Default window derives from the rounded counter count.
  EXPECT_EQ(odd.sample_window(), 128u * 8u);
}

TEST(TinyLfuTest, AgingHalvesCountersAndClearsDoorkeeper) {
  TinyLfu s(64, /*sample_window=*/64);
  const uint64_t hot = Hash64(1);
  for (int i = 0; i < 20; ++i) s.RecordAccess(hot);
  ASSERT_EQ(s.Estimate(hot), 16u);  // saturated: all four rows at 15
  // Push the window over with distinct cold keys. Their first sightings
  // are doorkeeper-only, so they cannot disturb hot's counters.
  uint64_t k = 1000;
  while (s.agings() == 0) s.RecordAccess(Hash64(k++));
  EXPECT_EQ(s.agings(), 1u);
  // Every row held 15 -> halved to 7; the doorkeeper's +1 is gone.
  EXPECT_EQ(s.Estimate(hot), 7u);
}

TEST(TinyLfuTest, AdmitRequiresStrictWin) {
  TinyLfu s(1024);
  const uint64_t hot = Hash64(10);
  const uint64_t cold = Hash64(20);
  const uint64_t fresh = Hash64(30);
  for (int i = 0; i < 8; ++i) s.RecordAccess(hot);
  s.RecordAccess(cold);
  EXPECT_TRUE(s.Admit(hot, cold));
  EXPECT_FALSE(s.Admit(cold, hot));
  // A never-seen candidate (estimate 0) loses to any key with history,
  // and ties keep the incumbent — the one-hit-wonder guarantee.
  EXPECT_FALSE(s.Admit(fresh, cold));
  s.RecordAccess(fresh);
  EXPECT_FALSE(s.Admit(fresh, cold));  // 1 vs 1: tie, incumbent stays
}

// Serving-loop model: consult the cache, fill on miss (what the server's
// cache_on_miss path does). Returns the number of hot keys still cached
// after a sustained scan of one-hit wonders competes for the same slots.
uint64_t HotSurvivors(CacheAdmission admission, uint64_t* rejects) {
  constexpr uint32_t kDim = 4;
  constexpr Key kHot = 64;
  EmbeddingCache cache(/*capacity=*/kHot, kDim, /*shards=*/1, admission);
  std::vector<float> row(kDim, 1.0f);
  std::vector<float> out(kDim);
  auto touch = [&](Key k) {
    if (!cache.Get(k, out.data())) cache.Put(k, row.data());
  };
  for (int round = 0; round < 256; ++round) {
    for (Key h = 0; h < kHot; ++h) touch(h);
    for (Key w = 0; w < 32; ++w) touch(100000 + round * 32 + w);
  }
  uint64_t survivors = 0;
  for (Key h = 0; h < kHot; ++h) survivors += cache.Get(h, out.data());
  *rejects = cache.stats().admission_rejects;
  return survivors;
}

TEST(TinyLfuCacheTest, AdmissionIsScanResistantWhereLruIsNot) {
  uint64_t lru_rejects = 0;
  uint64_t tlfu_rejects = 0;
  const uint64_t lru = HotSurvivors(CacheAdmission::kLru, &lru_rejects);
  const uint64_t tlfu = HotSurvivors(CacheAdmission::kTinyLfu, &tlfu_rejects);
  // LRU: each round's 32 wonders displace the 32 least-recent hot keys.
  EXPECT_EQ(lru, 32u);
  EXPECT_EQ(lru_rejects, 0u);
  // TinyLFU: wonders (estimate <= 1) lose to hot incumbents. A handful of
  // admissions right after an aging reset are legitimate, hence >= 56
  // rather than all 64.
  EXPECT_GE(tlfu, 56u);
  EXPECT_GT(tlfu_rejects, 0u);
  EXPECT_GE(tlfu, lru + lru / 2);  // the >=1.3x separation the docs claim
}

TEST(TinyLfuCacheTest, RejectedFillLeavesVictimReadable) {
  constexpr uint32_t kDim = 2;
  EmbeddingCache cache(/*capacity=*/2, kDim, /*shards=*/1,
                       CacheAdmission::kTinyLfu);
  std::vector<float> a = {1.0f, 1.5f};
  std::vector<float> b = {2.0f, 2.5f};
  std::vector<float> c = {3.0f, 3.5f};
  std::vector<float> out(kDim);
  // Earn key 1 and 2 some frequency, then fill the two slots.
  for (int i = 0; i < 4; ++i) {
    cache.Get(1, out.data());
    cache.Get(2, out.data());
  }
  cache.Put(1, a.data());
  cache.Put(2, b.data());
  // Key 3 has no history: the fill must bounce and both incumbents stay.
  cache.Put(3, c.data());
  EXPECT_FALSE(cache.Get(3, out.data()));
  ASSERT_TRUE(cache.Get(1, out.data()));
  EXPECT_FLOAT_EQ(out[0], 1.0f);
  ASSERT_TRUE(cache.Get(2, out.data()));
  EXPECT_FLOAT_EQ(out[1], 2.5f);
  EXPECT_EQ(cache.stats().admission_rejects, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(TinyLfuCacheTest, EvictionRecyclesNodesAndKeepsValuesIntact) {
  // LRU mode exercises the extract/re-key eviction path: capacity stays
  // pinned, evictions count, and the surviving entries read back exactly.
  constexpr uint32_t kDim = 3;
  constexpr size_t kCap = 8;
  EmbeddingCache cache(kCap, kDim, /*shards=*/1, CacheAdmission::kLru);
  std::vector<float> out(kDim);
  for (Key k = 0; k < 64; ++k) {
    std::vector<float> v = {static_cast<float>(k), 0.5f, -1.0f};
    cache.Put(k, v.data());
    EXPECT_LE(cache.size(), kCap);
  }
  EXPECT_EQ(cache.stats().evictions, 64u - kCap);
  for (Key k = 64 - kCap; k < 64; ++k) {
    ASSERT_TRUE(cache.Get(k, out.data())) << "key " << k;
    EXPECT_FLOAT_EQ(out[0], static_cast<float>(k));
    EXPECT_FLOAT_EQ(out[2], -1.0f);
  }
  EXPECT_EQ(cache.stats().hits, kCap);
  EXPECT_EQ(cache.size(), kCap);
}

TEST(TinyLfuCacheTest, PutExistingUpdatesInPlace) {
  constexpr uint32_t kDim = 2;
  EmbeddingCache cache(/*capacity=*/4, kDim, /*shards=*/1,
                       CacheAdmission::kTinyLfu);
  std::vector<float> v1 = {1.0f, 2.0f};
  std::vector<float> v2 = {9.0f, 8.0f};
  std::vector<float> out(kDim);
  cache.Put(5, v1.data());
  cache.Put(5, v2.data());
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_TRUE(cache.Get(5, out.data()));
  EXPECT_FLOAT_EQ(out[0], 9.0f);
  EXPECT_FLOAT_EQ(out[1], 8.0f);
}

}  // namespace
}  // namespace mlkv
