// Concurrency stress tests for the hybrid-log store. These intentionally
// hammer the latch-free paths with small buffers so that RCU, promotion,
// flushing, and eviction all happen under contention.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/random.h"
#include "io/temp_dir.h"
#include "kv/faster_store.h"
#include "store_geometry.h"
#include "store_promote.h"

namespace mlkv {
namespace {

FasterOptions StressStore(const TempDir& dir) {
  FasterOptions o;
  o.path = dir.File("stress.log");
  o.index_slots = 4096;
  o.page_size = 16384;
  o.mem_size = 8 * 16384;
  o.mutable_fraction = 0.5;
  return o;
}

// Values are self-describing: 8-byte key followed by an 8-byte version, then
// a fill byte derived from both. Readers verify internal consistency, which
// catches torn reads and cross-key corruption.
constexpr uint32_t kValueSize = 64;

void EncodeValue(Key key, uint64_t version, char* buf) {
  std::memcpy(buf, &key, 8);
  std::memcpy(buf + 8, &version, 8);
  const char fill = static_cast<char>((key * 31 + version) & 0xff);
  std::memset(buf + 16, fill, kValueSize - 16);
}

bool CheckValue(Key key, const char* buf, uint64_t* version_out) {
  Key k;
  uint64_t version;
  std::memcpy(&k, buf, 8);
  std::memcpy(&version, buf + 8, 8);
  if (k != key) return false;
  const char fill = static_cast<char>((key * 31 + version) & 0xff);
  for (uint32_t i = 16; i < kValueSize; ++i) {
    if (buf[i] != fill) return false;
  }
  if (version_out != nullptr) *version_out = version;
  return true;
}

TEST(FasterConcurrentTest, ParallelDisjointUpserts) {
  TempDir dir;
  FasterStore store;
  ASSERT_NO_FATAL_FAILURE(OpenWithGeometry(StressStore(dir), &store));
  constexpr int kThreads = 8;
  constexpr Key kPerThread = 500;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      char buf[kValueSize];
      for (Key i = 0; i < kPerThread; ++i) {
        const Key key = static_cast<Key>(t) * kPerThread + i;
        EncodeValue(key, 1, buf);
        if (!store.Upsert(key, buf, kValueSize).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);
  char buf[kValueSize];
  for (Key key = 0; key < kThreads * kPerThread; ++key) {
    ASSERT_TRUE(store.Read(key, buf, kValueSize).ok()) << "key " << key;
    EXPECT_TRUE(CheckValue(key, buf, nullptr)) << "key " << key;
  }
}

TEST(FasterConcurrentTest, ReadersNeverSeeTornValues) {
  TempDir dir;
  FasterStore store;
  ASSERT_NO_FATAL_FAILURE(OpenWithGeometry(StressStore(dir), &store));
  constexpr Key kKeys = 64;  // hot set: stays mutable, max contention
  char init[kValueSize];
  for (Key k = 0; k < kKeys; ++k) {
    EncodeValue(k, 0, init);
    ASSERT_TRUE(store.Upsert(k, init, kValueSize).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {  // writers
    threads.emplace_back([&, t] {
      Rng rng(t + 1);
      char buf[kValueSize];
      uint64_t version = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        const Key key = rng.Uniform(kKeys);
        EncodeValue(key, version++, buf);
        store.Upsert(key, buf, kValueSize).ok();
      }
    });
  }
  for (int t = 0; t < 4; ++t) {  // readers
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      char buf[kValueSize];
      while (!stop.load(std::memory_order_relaxed)) {
        const Key key = rng.Uniform(kKeys);
        if (store.Read(key, buf, kValueSize).ok()) {
          if (!CheckValue(key, buf, nullptr)) torn.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  stop.store(true);
  for (auto& th : threads) th.join();
  EXPECT_EQ(torn.load(), 0u);
}

TEST(FasterConcurrentTest, MixedColdHotTrafficStaysConsistent) {
  TempDir dir;
  FasterStore store;
  ASSERT_NO_FATAL_FAILURE(OpenWithGeometry(StressStore(dir), &store));
  constexpr Key kKeys = 4000;  // far exceeds the 128 KiB buffer
  char init[kValueSize];
  for (Key k = 0; k < kKeys; ++k) {
    EncodeValue(k, 0, init);
    ASSERT_TRUE(store.Upsert(k, init, kValueSize).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0}, read_errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {  // zipfian writers: hot+cold mix
      ZipfianGenerator zipf(kKeys, 0.99, t + 1);
      char buf[kValueSize];
      uint64_t version = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        const Key key = zipf.NextScrambled();
        EncodeValue(key, version++, buf);
        store.Upsert(key, buf, kValueSize).ok();
      }
    });
  }
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      ZipfianGenerator zipf(kKeys, 0.99, 100 + t);
      char buf[kValueSize];
      while (!stop.load(std::memory_order_relaxed)) {
        const Key key = zipf.NextScrambled();
        Status s = store.Read(key, buf, kValueSize);
        if (s.ok()) {
          if (!CheckValue(key, buf, nullptr)) torn.fetch_add(1);
        } else if (!s.IsNotFound()) {
          read_errors.fetch_add(1);
        }
      }
    });
  }
  // One thread promotes cold keys (lookahead-like traffic).
  threads.emplace_back([&] {
    Rng rng(555);
    while (!stop.load(std::memory_order_relaxed)) {
      Promote(&store, rng.Uniform(kKeys)).ok();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  stop.store(true);
  for (auto& th : threads) th.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(read_errors.load(), 0u);
  // All keys still resolve to valid values.
  char buf[kValueSize];
  for (Key k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(store.Read(k, buf, kValueSize).ok()) << "key " << k;
    EXPECT_TRUE(CheckValue(k, buf, nullptr)) << "key " << k;
  }
}

TEST(FasterConcurrentTest, RmwCountersAreExact) {
  TempDir dir;
  FasterStore store;
  ASSERT_NO_FATAL_FAILURE(OpenWithGeometry(StressStore(dir), &store));
  constexpr Key kKeys = 32;
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 2000;
  auto add_one = [](char* value, uint32_t, bool exists) {
    int64_t v = 0;
    if (exists) std::memcpy(&v, value, sizeof(v));
    v += 1;
    std::memcpy(value, &v, sizeof(v));
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t + 1);
      std::vector<int> local(kKeys, 0);
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        const Key key = rng.Uniform(kKeys);
        ASSERT_TRUE(store.Rmw(key, sizeof(int64_t), add_one).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  int64_t total = 0;
  for (Key k = 0; k < kKeys; ++k) {
    std::string out;
    if (store.Read(k, &out).ok()) {
      int64_t v;
      std::memcpy(&v, out.data(), sizeof(v));
      total += v;
    }
  }
  EXPECT_EQ(total, static_cast<int64_t>(kThreads) * kIncrementsPerThread);
}

}  // namespace
}  // namespace mlkv
