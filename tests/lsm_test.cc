#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "io/temp_dir.h"
#include "lsm/bloom.h"
#include "lsm/block_cache.h"
#include "lsm/lsm_store.h"
#include "lsm/memtable.h"
#include "lsm/sstable.h"

namespace mlkv {
namespace {

TEST(BloomTest, NoFalseNegatives) {
  std::vector<Key> keys;
  for (Key k = 0; k < 5000; k += 3) keys.push_back(k);
  BloomFilter bloom;
  bloom.Build(keys, 10);
  for (Key k : keys) EXPECT_TRUE(bloom.MayContain(k)) << k;
}

TEST(BloomTest, LowFalsePositiveRate) {
  std::vector<Key> keys;
  for (Key k = 0; k < 10000; ++k) keys.push_back(k);
  BloomFilter bloom;
  bloom.Build(keys, 10);
  int fp = 0;
  const int probes = 10000;
  for (int i = 0; i < probes; ++i) {
    if (bloom.MayContain(1000000 + static_cast<Key>(i))) ++fp;
  }
  EXPECT_LT(fp, probes * 0.03) << "10 bits/key should give ~1% FPR";
}

TEST(BloomTest, SerializeRoundTrip) {
  std::vector<Key> keys = {1, 5, 9, 200, 12345};
  BloomFilter bloom;
  bloom.Build(keys, 10);
  const std::string bytes = bloom.Serialize();
  BloomFilter restored;
  ASSERT_TRUE(restored.Deserialize(bytes.data(), bytes.size()));
  for (Key k : keys) EXPECT_TRUE(restored.MayContain(k));
}

TEST(BloomTest, DeserializeRejectsGarbage) {
  BloomFilter bloom;
  EXPECT_FALSE(bloom.Deserialize("xy", 2));
}

TEST(MemTableTest, PutGetDelete) {
  MemTable mt;
  mt.Put(1, "abc", 3);
  auto e = mt.Get(1);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->value, "abc");
  EXPECT_FALSE(e->tombstone);
  mt.Delete(1);
  e = mt.Get(1);
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(e->tombstone);
  EXPECT_FALSE(mt.Get(2).has_value());
}

TEST(MemTableTest, SnapshotIsSorted) {
  MemTable mt;
  mt.Put(5, "e", 1);
  mt.Put(1, "a", 1);
  mt.Put(3, "c", 1);
  auto snap = mt.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].first, 1u);
  EXPECT_EQ(snap[1].first, 3u);
  EXPECT_EQ(snap[2].first, 5u);
}

TEST(BlockCacheTest, InsertGetEvict) {
  BlockCache cache(1024, /*shards=*/1);
  cache.Insert({1, 0}, std::string(400, 'a'));
  cache.Insert({1, 400}, std::string(400, 'b'));
  std::string out;
  EXPECT_TRUE(cache.Get({1, 0}, &out));
  EXPECT_EQ(out.size(), 400u);
  // Third block forces eviction of the LRU one ({1,400}, since {1,0} was
  // touched more recently).
  cache.Insert({1, 800}, std::string(400, 'c'));
  EXPECT_TRUE(cache.Get({1, 0}, &out));
  EXPECT_FALSE(cache.Get({1, 400}, &out));
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(BlockCacheTest, EraseTableDropsItsBlocks) {
  BlockCache cache(1 << 20);
  cache.Insert({7, 0}, "table7");
  cache.Insert({8, 0}, "table8");
  cache.EraseTable(7);
  std::string out;
  EXPECT_FALSE(cache.Get({7, 0}, &out));
  EXPECT_TRUE(cache.Get({8, 0}, &out));
}

TEST(SSTableTest, BuildOpenGet) {
  TempDir dir;
  BlockCache cache(1 << 20);
  const std::string path = dir.File("t.sst");
  SSTableBuilder builder(path, 256);
  for (Key k = 0; k < 500; k += 2) {
    ASSERT_TRUE(builder.Add(k, "v" + std::to_string(k), false).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());

  std::unique_ptr<SSTable> table;
  ASSERT_TRUE(SSTable::Open(path, 1, &cache, &table).ok());
  EXPECT_EQ(table->num_entries(), 250u);
  EXPECT_EQ(table->min_key(), 0u);
  EXPECT_EQ(table->max_key(), 498u);
  SSTable::GetResult r;
  ASSERT_TRUE(table->Get(100, &r).ok());
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.value, "v100");
  ASSERT_TRUE(table->Get(101, &r).ok());
  EXPECT_FALSE(r.found) << "odd keys were never added";
  ASSERT_TRUE(table->Get(9999, &r).ok());
  EXPECT_FALSE(r.found);
}

TEST(SSTableTest, RejectsOutOfOrderKeys) {
  TempDir dir;
  SSTableBuilder builder(dir.File("bad.sst"));
  ASSERT_TRUE(builder.Add(10, "a", false).ok());
  EXPECT_TRUE(builder.Add(5, "b", false).IsInvalidArgument());
}

TEST(SSTableTest, ScanVisitsAllInOrder) {
  TempDir dir;
  BlockCache cache(1 << 20);
  const std::string path = dir.File("scan.sst");
  SSTableBuilder builder(path, 128);
  for (Key k = 0; k < 100; ++k) {
    ASSERT_TRUE(builder.Add(k, std::to_string(k), k % 7 == 0).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  std::unique_ptr<SSTable> table;
  ASSERT_TRUE(SSTable::Open(path, 2, &cache, &table).ok());
  Key expect = 0;
  int tombs = 0;
  ASSERT_TRUE(table
                  ->Scan([&](Key k, const std::string& v, bool tomb) {
                    EXPECT_EQ(k, expect++);
                    if (tomb) ++tombs;
                  })
                  .ok());
  EXPECT_EQ(expect, 100u);
  EXPECT_EQ(tombs, 15);
}

TEST(LsmStoreTest, PutGetAcrossFlushes) {
  TempDir dir;
  LsmOptions o;
  o.dir = dir.File("lsm");
  o.memtable_bytes = 4096;  // tiny: force frequent flushes
  o.block_cache_bytes = 1 << 16;
  LsmStore store;
  ASSERT_TRUE(store.Open(o).ok());
  for (Key k = 0; k < 2000; ++k) {
    const std::string v = "value-" + std::to_string(k);
    ASSERT_TRUE(store.Put(k, v.data(), v.size()).ok());
  }
  EXPECT_GT(store.flush_count(), 0u);
  for (Key k = 0; k < 2000; ++k) {
    std::string out;
    ASSERT_TRUE(store.Get(k, &out).ok()) << k;
    EXPECT_EQ(out, "value-" + std::to_string(k));
  }
}

TEST(LsmStoreTest, NewestVersionWinsAcrossLevels) {
  TempDir dir;
  LsmOptions o;
  o.dir = dir.File("lsm");
  o.memtable_bytes = 2048;
  LsmStore store;
  ASSERT_TRUE(store.Open(o).ok());
  for (int round = 0; round < 5; ++round) {
    for (Key k = 0; k < 200; ++k) {
      const std::string v = "r" + std::to_string(round) + "-" +
                            std::to_string(k);
      ASSERT_TRUE(store.Put(k, v.data(), v.size()).ok());
    }
  }
  for (Key k = 0; k < 200; ++k) {
    std::string out;
    ASSERT_TRUE(store.Get(k, &out).ok());
    EXPECT_EQ(out, "r4-" + std::to_string(k)) << k;
  }
}

TEST(LsmStoreTest, CompactionBoundsL0AndPreservesData) {
  TempDir dir;
  LsmOptions o;
  o.dir = dir.File("lsm");
  o.memtable_bytes = 2048;
  o.l0_compaction_trigger = 3;
  LsmStore store;
  ASSERT_TRUE(store.Open(o).ok());
  for (Key k = 0; k < 3000; ++k) {
    const std::string v = std::string(32, static_cast<char>('a' + k % 26));
    ASSERT_TRUE(store.Put(k, v.data(), v.size()).ok());
  }
  EXPECT_GT(store.compaction_count(), 0u);
  EXPECT_LT(store.l0_run_count(), 4u);
  EXPECT_LE(store.l1_run_count(), 1u);
  std::string out;
  ASSERT_TRUE(store.Get(1500, &out).ok());
  EXPECT_EQ(out[0], static_cast<char>('a' + 1500 % 26));
}

TEST(LsmStoreTest, DeleteSurvivesFlushAndCompaction) {
  TempDir dir;
  LsmOptions o;
  o.dir = dir.File("lsm");
  o.memtable_bytes = 1024;
  o.l0_compaction_trigger = 2;
  LsmStore store;
  ASSERT_TRUE(store.Open(o).ok());
  ASSERT_TRUE(store.Put(42, "gone", 4).ok());
  ASSERT_TRUE(store.Flush().ok());
  ASSERT_TRUE(store.Delete(42).ok());
  // Bury the tombstone under flushes + compaction.
  for (Key k = 100; k < 1000; ++k) {
    ASSERT_TRUE(store.Put(k, "fill-fill-fill", 14).ok());
  }
  std::string out;
  EXPECT_TRUE(store.Get(42, &out).IsNotFound());
}

TEST(LsmStoreTest, GetMissingKey) {
  TempDir dir;
  LsmOptions o;
  o.dir = dir.File("lsm");
  LsmStore store;
  ASSERT_TRUE(store.Open(o).ok());
  std::string out;
  EXPECT_TRUE(store.Get(7, &out).IsNotFound());
}


TEST(SSTableRangeScanTest, SkipsNonOverlappingBlocks) {
  TempDir dir;
  const std::string path = dir.File("r.sst");
  BlockCache cache(1 << 20);
  {
    SSTableBuilder b(path, /*block_size=*/128, 10);  // many small blocks
    for (Key k = 0; k < 500; ++k) {
      ASSERT_TRUE(b.Add(k * 2, "v" + std::to_string(k * 2), false).ok());
    }
    ASSERT_TRUE(b.Finish().ok());
  }
  std::unique_ptr<SSTable> t;
  ASSERT_TRUE(SSTable::Open(path, 1, &cache, &t).ok());
  std::vector<Key> got;
  ASSERT_TRUE(t->RangeScan(100, 140, [&](Key k, const std::string& v, bool) {
    got.push_back(k);
    EXPECT_EQ(v, "v" + std::to_string(k));
  }).ok());
  std::vector<Key> expected;
  for (Key k = 100; k <= 140; k += 2) expected.push_back(k);
  EXPECT_EQ(got, expected);
}

TEST(SSTableRangeScanTest, EdgeRanges) {
  TempDir dir;
  const std::string path = dir.File("r.sst");
  BlockCache cache(1 << 20);
  {
    SSTableBuilder b(path, 128, 10);
    for (Key k = 10; k <= 20; ++k) {
      ASSERT_TRUE(b.Add(k, "x", false).ok());
    }
    ASSERT_TRUE(b.Finish().ok());
  }
  std::unique_ptr<SSTable> t;
  ASSERT_TRUE(SSTable::Open(path, 1, &cache, &t).ok());
  int n = 0;
  auto count = [&n](Key, const std::string&, bool) { ++n; };
  // Entirely below / above the table.
  ASSERT_TRUE(t->RangeScan(0, 9, count).ok());
  EXPECT_EQ(n, 0);
  ASSERT_TRUE(t->RangeScan(21, 100, count).ok());
  EXPECT_EQ(n, 0);
  // Reversed range.
  ASSERT_TRUE(t->RangeScan(15, 12, count).ok());
  EXPECT_EQ(n, 0);
  // Exact single key and inclusive bounds.
  ASSERT_TRUE(t->RangeScan(15, 15, count).ok());
  EXPECT_EQ(n, 1);
  n = 0;
  ASSERT_TRUE(t->RangeScan(10, 20, count).ok());
  EXPECT_EQ(n, 11);
}

TEST(SSTableRangeScanTest, IncludesTombstones) {
  TempDir dir;
  const std::string path = dir.File("r.sst");
  BlockCache cache(1 << 20);
  {
    SSTableBuilder b(path, 4096, 10);
    ASSERT_TRUE(b.Add(1, "a", false).ok());
    ASSERT_TRUE(b.Add(2, "", true).ok());
    ASSERT_TRUE(b.Add(3, "c", false).ok());
    ASSERT_TRUE(b.Finish().ok());
  }
  std::unique_ptr<SSTable> t;
  ASSERT_TRUE(SSTable::Open(path, 1, &cache, &t).ok());
  int tombs = 0, live = 0;
  ASSERT_TRUE(t->RangeScan(1, 3, [&](Key, const std::string&, bool tomb) {
    tomb ? ++tombs : ++live;
  }).ok());
  EXPECT_EQ(tombs, 1);
  EXPECT_EQ(live, 2);
}

}  // namespace
}  // namespace mlkv
