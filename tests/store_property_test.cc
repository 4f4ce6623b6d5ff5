// Property-based tests: the hybrid-log store must be observationally
// equivalent to a reference std::unordered_map under randomized single-
// threaded op sequences, across a grid of geometries (page size, buffer
// size, mutable fraction, value size, staleness tracking). Small buffers
// force flush/eviction/RCU/disk-read paths constantly, so equivalence here
// covers the whole region state machine.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <unordered_map>

#include "common/random.h"
#include "io/temp_dir.h"
#include "kv/faster_store.h"
#include "store_geometry.h"
#include "store_metrics.h"
#include "store_promote.h"

namespace mlkv {
namespace {

struct StoreGeometry {
  uint64_t page_size;
  uint64_t mem_pages;
  double mutable_fraction;
  uint32_t value_size;
  bool track_staleness;
};

class StorePropertyTest : public ::testing::TestWithParam<StoreGeometry> {};

std::string ValueFor(Key key, uint64_t version, uint32_t size) {
  std::string v(size, '\0');
  Rng rng(Hash64(key) ^ version);
  for (auto& c : v) c = static_cast<char>(rng.Next() & 0xff);
  return v;
}

TEST_P(StorePropertyTest, MatchesReferenceModelUnderRandomOps) {
  const StoreGeometry g = GetParam();
  TempDir dir;
  FasterOptions o;
  o.path = dir.File("prop.log");
  // Small: 700 keys over 512 entries (64 buckets of 8) fill most buckets,
  // so keys share chains — the collision paths are exercised on purpose.
  o.index_slots = 512;
  o.page_size = g.page_size;
  o.mem_size = g.page_size * g.mem_pages;
  o.mutable_fraction = g.mutable_fraction;
  o.track_staleness = g.track_staleness;
  o.staleness_bound = UINT32_MAX - 1;  // clocks maintained, reads never wait
  FasterStore store;
  ASSERT_NO_FATAL_FAILURE(OpenWithGeometry(o, &store));

  std::unordered_map<Key, std::string> reference;
  Rng rng(g.page_size ^ g.mem_pages ^ g.value_size);
  constexpr int kOps = 20000;
  constexpr Key kKeySpace = 700;
  uint64_t version = 1;

  for (int i = 0; i < kOps; ++i) {
    const Key key = rng.Uniform(kKeySpace);
    const int action = static_cast<int>(rng.Uniform(100));
    if (action < 45) {  // read
      std::string got;
      const Status s = store.Read(key, &got);
      auto it = reference.find(key);
      if (it == reference.end()) {
        ASSERT_TRUE(s.IsNotFound()) << "op " << i << " key " << key << ": "
                                    << s.ToString();
      } else {
        ASSERT_TRUE(s.ok()) << "op " << i << " key " << key;
        ASSERT_EQ(got, it->second) << "op " << i << " key " << key;
      }
    } else if (action < 80) {  // upsert (occasionally different size)
      uint32_t size = g.value_size;
      if (action < 50) size = g.value_size / 2 + 1;
      const std::string v = ValueFor(key, version++, size);
      ASSERT_TRUE(store.Upsert(key, v.data(),
                               static_cast<uint32_t>(v.size()))
                      .ok());
      reference[key] = v;
    } else if (action < 90) {  // rmw: append-like bump of first byte
      const bool existed = reference.count(key) > 0;
      ASSERT_TRUE(store
                      .Rmw(key, g.value_size,
                           [](char* value, uint32_t n, bool exists) {
                             if (!exists) std::memset(value, 0, n);
                             value[0] = static_cast<char>(value[0] + 1);
                           })
                      .ok());
      std::string& ref = reference[key];
      if (!existed) {
        ref.assign(g.value_size, '\0');
      } else if (ref.size() != g.value_size) {
        ref.resize(g.value_size, '\0');
      }
      ref[0] = static_cast<char>(ref[0] + 1);
    } else if (action < 95) {  // delete
      const Status s = store.Delete(key);
      if (reference.erase(key) > 0) {
        ASSERT_TRUE(s.ok());
      } else {
        ASSERT_TRUE(s.IsNotFound());
      }
    } else {  // promote (lookahead primitive): must never change contents
      Promote(&store, key).ok();
    }
  }

  // Full final audit.
  for (const auto& [key, expected] : reference) {
    std::string got;
    ASSERT_TRUE(store.Read(key, &got).ok()) << "final key " << key;
    ASSERT_EQ(got, expected) << "final key " << key;
  }
  for (Key key = 0; key < kKeySpace; ++key) {
    if (reference.count(key)) continue;
    std::string got;
    ASSERT_TRUE(store.Read(key, &got).IsNotFound()) << "ghost key " << key;
  }
  // More keys than index entries: chains really were shared on disk.
  EXPECT_GT(StoreMetric(store, "mlkv_store_chain_hops_total"), 0u);
}

TEST_P(StorePropertyTest, CheckpointRecoverPreservesEverything) {
  const StoreGeometry g = GetParam();
  TempDir dir;
  FasterOptions o;
  o.path = dir.File("ckpt.log");
  o.index_slots = 512;
  o.page_size = g.page_size;
  o.mem_size = g.page_size * g.mem_pages;
  o.mutable_fraction = g.mutable_fraction;
  o.track_staleness = g.track_staleness;
  o.staleness_bound = UINT32_MAX - 1;

  std::unordered_map<Key, std::string> reference;
  {
    FasterStore store;
    ASSERT_NO_FATAL_FAILURE(OpenWithGeometry(o, &store));
    Rng rng(g.page_size + g.value_size);
    for (int i = 0; i < 4000; ++i) {
      const Key key = rng.Uniform(500);
      if (rng.Uniform(10) == 0 && reference.count(key)) {
        ASSERT_TRUE(store.Delete(key).ok());
        reference.erase(key);
      } else {
        const std::string v = ValueFor(key, i, g.value_size);
        ASSERT_TRUE(store.Upsert(key, v.data(),
                                 static_cast<uint32_t>(v.size()))
                        .ok());
        reference[key] = v;
      }
    }
    ASSERT_TRUE(store.Checkpoint(dir.File("ckpt")).ok());
  }

  FasterStore restored;
  ASSERT_TRUE(restored.Recover(o, dir.File("ckpt")).ok());
  ASSERT_EQ(restored.log().options().page_size, g.page_size);
  for (const auto& [key, expected] : reference) {
    std::string got;
    ASSERT_TRUE(restored.Read(key, &got).ok()) << "key " << key;
    ASSERT_EQ(got, expected) << "key " << key;
  }
  // Shared chains, all on disk.
  EXPECT_GT(StoreMetric(restored, "mlkv_store_chain_hops_total"), 0u);
  // Recovered store keeps serving writes correctly.
  const std::string fresh = ValueFor(99999, 1, g.value_size);
  ASSERT_TRUE(restored.Upsert(99999, fresh.data(),
                              static_cast<uint32_t>(fresh.size()))
                  .ok());
  std::string got;
  ASSERT_TRUE(restored.Read(99999, &got).ok());
  EXPECT_EQ(got, fresh);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, StorePropertyTest,
    ::testing::Values(
        StoreGeometry{4096, 4, 0.5, 32, false},     // smallest legal buffer
        StoreGeometry{4096, 8, 0.5, 32, true},      // staleness on
        StoreGeometry{4096, 8, 0.25, 64, true},     // mostly read-only
        StoreGeometry{4096, 8, 0.9, 64, false},     // mostly mutable
        StoreGeometry{16384, 6, 0.5, 128, true},    // bigger pages
        StoreGeometry{4096, 32, 0.5, 48, true},     // mostly in-memory
        StoreGeometry{8192, 4, 0.5, 513, false},    // odd size, unaligned
        StoreGeometry{4096, 4, 0.5, 24, true}),     // tiny values, churny
    [](const ::testing::TestParamInfo<StoreGeometry>& info) {
      const StoreGeometry& g = info.param;
      return "pg" + std::to_string(g.page_size) + "x" +
             std::to_string(g.mem_pages) + "_mut" +
             std::to_string(static_cast<int>(g.mutable_fraction * 100)) +
             "_val" + std::to_string(g.value_size) +
             (g.track_staleness ? "_mlkv" : "_faster");
    });

}  // namespace
}  // namespace mlkv
