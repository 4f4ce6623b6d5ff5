#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "btree/btree_store.h"
#include "btree/buffer_pool.h"
#include "common/random.h"
#include "io/temp_dir.h"

namespace mlkv {
namespace {

TEST(BufferPoolTest, PinMissLoadsFromDisk) {
  TempDir dir;
  FileDevice file;
  ASSERT_TRUE(file.Open(dir.File("pool.db")).ok());
  const char payload[] = "page-one-data";
  ASSERT_TRUE(file.WriteAt(4096, payload, sizeof(payload)).ok());
  BufferPool pool(&file, 4096, 4);
  char* data;
  ASSERT_TRUE(pool.Pin(1, &data).ok());
  EXPECT_EQ(std::memcmp(data, payload, sizeof(payload)), 0);
  pool.Unpin(1, false);
  EXPECT_EQ(pool.stats().misses, 1u);
  ASSERT_TRUE(pool.Pin(1, &data).ok());
  pool.Unpin(1, false);
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPoolTest, DirtyEvictionWritesBack) {
  TempDir dir;
  FileDevice file;
  ASSERT_TRUE(file.Open(dir.File("pool.db")).ok());
  BufferPool pool(&file, 4096, 2);
  PageId id;
  char* data;
  ASSERT_TRUE(pool.NewPage(&id, &data).ok());
  std::strcpy(data, "dirty-bytes");
  pool.Unpin(id, /*dirty=*/true);
  // Force eviction by filling the pool past capacity.
  for (int i = 0; i < 4; ++i) {
    PageId id2;
    ASSERT_TRUE(pool.NewPage(&id2, &data).ok());
    pool.Unpin(id2, true);
  }
  EXPECT_GT(pool.stats().writebacks, 0u);
  // Re-pin the first page: contents must come back from disk.
  ASSERT_TRUE(pool.Pin(id, &data).ok());
  EXPECT_STREQ(data, "dirty-bytes");
  pool.Unpin(id, false);
}

TEST(BufferPoolTest, PinnedPagesNeverEvicted) {
  TempDir dir;
  FileDevice file;
  ASSERT_TRUE(file.Open(dir.File("pool.db")).ok());
  BufferPool pool(&file, 4096, 2);
  PageId id;
  char* data;
  ASSERT_TRUE(pool.NewPage(&id, &data).ok());
  std::strcpy(data, "pinned");
  // Keep it pinned while cycling other pages through.
  for (int i = 0; i < 6; ++i) {
    PageId id2;
    char* d2;
    ASSERT_TRUE(pool.NewPage(&id2, &d2).ok());
    pool.Unpin(id2, false);
  }
  EXPECT_STREQ(data, "pinned") << "pinned frame must stay valid";
  pool.Unpin(id, true);
}

BTreeOptions SmallTree(const TempDir& dir, uint32_t value_size = 16,
                       uint64_t pool_bytes = 64 * 4096) {
  BTreeOptions o;
  o.path = dir.File("tree.db");
  o.page_size = 4096;
  o.buffer_pool_bytes = pool_bytes;
  o.value_size = value_size;
  return o;
}

void FillValue(Key k, uint32_t n, char* buf) {
  for (uint32_t i = 0; i < n; ++i) {
    buf[i] = static_cast<char>((k * 131 + i) & 0xff);
  }
}

TEST(BTreeTest, EmptyTreeGetNotFound) {
  TempDir dir;
  BTreeStore tree;
  ASSERT_TRUE(tree.Open(SmallTree(dir)).ok());
  char buf[16];
  EXPECT_TRUE(tree.Get(1, buf).IsNotFound());
}

TEST(BTreeTest, InsertAndGetSequential) {
  TempDir dir;
  BTreeStore tree;
  ASSERT_TRUE(tree.Open(SmallTree(dir)).ok());
  char buf[16];
  for (Key k = 0; k < 5000; ++k) {
    FillValue(k, 16, buf);
    ASSERT_TRUE(tree.Put(k, buf).ok()) << k;
  }
  EXPECT_GT(tree.split_count(), 0u);
  EXPECT_GE(tree.height(), 2u);
  char out[16];
  for (Key k = 0; k < 5000; ++k) {
    ASSERT_TRUE(tree.Get(k, out).ok()) << k;
    FillValue(k, 16, buf);
    EXPECT_EQ(std::memcmp(out, buf, 16), 0) << k;
  }
}

TEST(BTreeTest, InsertRandomOrder) {
  TempDir dir;
  BTreeStore tree;
  ASSERT_TRUE(tree.Open(SmallTree(dir)).ok());
  std::vector<Key> keys(4000);
  for (Key k = 0; k < keys.size(); ++k) keys[k] = k * 7 + 1;
  Rng rng(5);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.Uniform(i)]);
  }
  char buf[16];
  for (Key k : keys) {
    FillValue(k, 16, buf);
    ASSERT_TRUE(tree.Put(k, buf).ok()) << k;
  }
  char out[16];
  for (Key k : keys) {
    ASSERT_TRUE(tree.Get(k, out).ok()) << k;
    FillValue(k, 16, buf);
    EXPECT_EQ(std::memcmp(out, buf, 16), 0) << k;
  }
  EXPECT_FALSE(tree.Contains(0));  // 0 was never inserted (keys are 7k+1)
}

TEST(BTreeTest, UpdateInPlace) {
  TempDir dir;
  BTreeStore tree;
  ASSERT_TRUE(tree.Open(SmallTree(dir)).ok());
  char a[16], b[16];
  FillValue(1, 16, a);
  FillValue(2, 16, b);
  ASSERT_TRUE(tree.Put(42, a).ok());
  ASSERT_TRUE(tree.Put(42, b).ok());
  char out[16];
  ASSERT_TRUE(tree.Get(42, out).ok());
  EXPECT_EQ(std::memcmp(out, b, 16), 0);
}

TEST(BTreeTest, LargerThanPoolWorkingSet) {
  // Pool of 16 pages, data far larger: exercises eviction + write-back.
  TempDir dir;
  BTreeStore tree;
  ASSERT_TRUE(tree.Open(SmallTree(dir, 64, 16 * 4096)).ok());
  char buf[64];
  for (Key k = 0; k < 20000; ++k) {
    FillValue(k, 64, buf);
    ASSERT_TRUE(tree.Put(k, buf).ok()) << k;
  }
  EXPECT_GT(tree.writeback_count(), 0u);
  char out[64];
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const Key k = rng.Uniform(20000);
    ASSERT_TRUE(tree.Get(k, out).ok()) << k;
    FillValue(k, 64, buf);
    EXPECT_EQ(std::memcmp(out, buf, 64), 0) << k;
  }
}

TEST(BTreeTest, ConcurrentReadersWithWriter) {
  TempDir dir;
  BTreeStore tree;
  ASSERT_TRUE(tree.Open(SmallTree(dir, 16)).ok());
  char buf[16];
  for (Key k = 0; k < 2000; ++k) {
    FillValue(k, 16, buf);
    ASSERT_TRUE(tree.Put(k, buf).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t);
      char out[16], expect[16];
      while (!stop.load()) {
        const Key k = rng.Uniform(2000);
        if (!tree.Get(k, out).ok()) {
          errors.fetch_add(1);
          continue;
        }
        FillValue(k, 16, expect);
        if (std::memcmp(out, expect, 16) != 0) {
          // Writer may have bumped it to the writer pattern; both valid.
          FillValue(k + 100000, 16, expect);
          if (std::memcmp(out, expect, 16) != 0) errors.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {
    Rng rng(99);
    char w[16];
    while (!stop.load()) {
      const Key k = rng.Uniform(2000);
      FillValue(k + 100000, 16, w);
      tree.Put(k, w).ok();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
}

TEST(BTreeTest, OpenRejectsOversizedValues) {
  TempDir dir;
  BTreeOptions o = SmallTree(dir);
  o.value_size = 4096;  // leaves could not hold 2 entries
  BTreeStore tree;
  EXPECT_TRUE(tree.Open(o).IsInvalidArgument());
}

}  // namespace
}  // namespace mlkv
