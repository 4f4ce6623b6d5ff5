// Log scan (LogIterator / LiveLogIterator) and garbage collection
// (FasterStore::Compact) tests, including a model-based property sweep and
// a concurrent writer stress test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "io/temp_dir.h"
#include "kv/faster_store.h"
#include "kv/log_iterator.h"
#include "store_geometry.h"
#include "store_metrics.h"

namespace mlkv {
namespace {

FasterOptions SmallStore(const TempDir& dir, const char* name = "store.log") {
  FasterOptions o;
  o.path = dir.File(name);
  o.index_slots = 1024;
  o.page_size = 4096;
  o.mem_size = 8 * 4096;
  o.mutable_fraction = 0.5;
  return o;
}

std::string PadValue(uint64_t key, uint32_t size) {
  std::string v = std::string("v").append(std::to_string(key)).append("#");
  v.resize(size, 'x');
  return v;
}

// ---------------------------------------------------------------- scans --

TEST(LogIteratorTest, EmptyStoreYieldsNothing) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  LogIterator it(&store);
  EXPECT_FALSE(it.Valid());
  EXPECT_TRUE(it.status().ok());
}

TEST(LogIteratorTest, SingleRecord) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  ASSERT_TRUE(store.Upsert(7, "hello", 5).ok());
  LogIterator it(&store);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.meta().key, 7u);
  EXPECT_EQ(std::string(it.value().data(), it.value().size()), "hello");
  it.Next();
  EXPECT_FALSE(it.Valid());
}

TEST(LogIteratorTest, ScanSeesAllVersionsInOrder) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  // Different sizes force RCU appends, so three versions coexist in the log.
  ASSERT_TRUE(store.Upsert(1, "a", 1).ok());
  ASSERT_TRUE(store.Upsert(1, "bb", 2).ok());
  ASSERT_TRUE(store.Upsert(1, "ccc", 3).ok());
  std::vector<std::string> versions;
  for (LogIterator it(&store); it.Valid(); it.Next()) {
    EXPECT_EQ(it.meta().key, 1u);
    versions.emplace_back(it.value().data(), it.value().size());
  }
  ASSERT_EQ(versions.size(), 3u);
  EXPECT_EQ(versions[0], "a");
  EXPECT_EQ(versions[1], "bb");
  EXPECT_EQ(versions[2], "ccc");
}

TEST(LogIteratorTest, SkipsPageRollGaps) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  // 1000-byte values + 32-byte headers don't tile a 4096-byte page evenly,
  // so every page ends in a gap the iterator has to hop over.
  const int n = 40;
  for (int i = 0; i < n; ++i) {
    const std::string v = PadValue(i, 1000);
    ASSERT_TRUE(store.Upsert(i, v.data(), v.size()).ok());
  }
  int seen = 0;
  for (LogIterator it(&store); it.Valid(); it.Next()) {
    EXPECT_EQ(it.meta().key, static_cast<Key>(seen));
    EXPECT_EQ(std::string(it.value().data(), it.value().size()),
              PadValue(seen, 1000));
    ++seen;
  }
  EXPECT_EQ(seen, n);
}

TEST(LogIteratorTest, ScanCoversDiskResidentPrefix) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  const int n = 300;  // ~300 * 136B spans many more pages than fit in memory
  for (int i = 0; i < n; ++i) {
    const std::string v = PadValue(i, 100);
    ASSERT_TRUE(store.Upsert(i, v.data(), v.size()).ok());
  }
  ASSERT_GT(store.log().head_address(), HybridLog::kLogBegin);
  int seen = 0;
  for (LogIterator it(&store); it.Valid(); it.Next()) ++seen;
  EXPECT_EQ(seen, n);
}

TEST(LogIteratorTest, TombstonesAppearInRawScan) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  ASSERT_TRUE(store.Upsert(1, "abc", 3).ok());
  ASSERT_TRUE(store.Delete(1).ok());
  int records = 0, tombstones = 0;
  for (LogIterator it(&store); it.Valid(); it.Next()) {
    ++records;
    if (it.meta().flags & kRecordTombstone) ++tombstones;
  }
  EXPECT_EQ(records, 2);
  EXPECT_EQ(tombstones, 1);
}

TEST(LogIteratorTest, ExplicitRangeLimitsScan) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.Upsert(i, "abcd", 4).ok());
  }
  // Find the address of record 5 with a full scan, then scan from there.
  Address from = kInvalidAddress;
  for (LogIterator it(&store); it.Valid(); it.Next()) {
    if (it.meta().key == 5) from = it.address();
  }
  ASSERT_NE(from, kInvalidAddress);
  int seen = 0;
  for (LogIterator it(&store, from); it.Valid(); it.Next()) ++seen;
  EXPECT_EQ(seen, 5);  // keys 5..9
}

TEST(LiveLogIteratorTest, YieldsOnlyNewestVersions) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  ASSERT_TRUE(store.Upsert(1, "a", 1).ok());
  ASSERT_TRUE(store.Upsert(1, "bb", 2).ok());
  ASSERT_TRUE(store.Upsert(2, "cc", 2).ok());
  ASSERT_TRUE(store.Upsert(3, "d", 1).ok());
  ASSERT_TRUE(store.Delete(3).ok());
  std::map<Key, std::string> live;
  for (LiveLogIterator it(&store); it.Valid(); it.Next()) {
    live[it.meta().key] = std::string(it.value().data(), it.value().size());
  }
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[1], "bb");
  EXPECT_EQ(live[2], "cc");
}

// ----------------------------------------------------------- compaction --

TEST(CompactTest, NothingColdIsANoOp) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  ASSERT_TRUE(store.Upsert(1, "abc", 3).ok());
  CompactionResult r;
  ASSERT_TRUE(store.Compact(store.log().read_only_address(), &r).ok());
  EXPECT_EQ(r.scanned, 0u);
  std::string out;
  ASSERT_TRUE(store.Read(1, &out).ok());
  EXPECT_EQ(out, "abc");
}

TEST(CompactTest, PreservesAllLiveRecords) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    const std::string v = PadValue(i, 100);
    ASSERT_TRUE(store.Upsert(i, v.data(), v.size()).ok());
  }
  CompactionResult r;
  ASSERT_TRUE(store.Compact(store.log().read_only_address(), &r).ok());
  EXPECT_GT(r.live_copied, 0u);
  EXPECT_EQ(store.log().begin_address(), r.new_begin);
  for (int i = 0; i < n; ++i) {
    std::string out;
    ASSERT_TRUE(store.Read(i, &out).ok()) << "key " << i;
    EXPECT_EQ(out, PadValue(i, 100));
  }
}

TEST(CompactTest, DropsSupersededVersions) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  // Many RCU updates of one key: all but the newest version are dead.
  for (int i = 1; i <= 400; ++i) {
    const std::string v = PadValue(7, 100 + (i % 3));
    ASSERT_TRUE(store.Upsert(7, v.data(), v.size()).ok());
  }
  ASSERT_GT(store.log().read_only_address(), HybridLog::kLogBegin);
  CompactionResult r;
  ASSERT_TRUE(store.Compact(store.log().read_only_address(), &r).ok());
  EXPECT_GT(r.dead_skipped, 0u);
  EXPECT_LE(r.live_copied, 1u);
  std::string out;
  ASSERT_TRUE(store.Read(7, &out).ok());
}

TEST(CompactTest, RetiresTombstones) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    const std::string v = PadValue(i, 100);
    ASSERT_TRUE(store.Upsert(i, v.data(), v.size()).ok());
  }
  for (int i = 0; i < n; i += 2) {
    ASSERT_TRUE(store.Delete(i).ok());
  }
  // Push everything below the read-only boundary with filler traffic.
  for (int i = 1000; i < 1100; ++i) {
    const std::string v = PadValue(i, 100);
    ASSERT_TRUE(store.Upsert(i, v.data(), v.size()).ok());
  }
  CompactionResult r;
  ASSERT_TRUE(store.Compact(store.log().read_only_address(), &r).ok());
  EXPECT_GT(r.tombstones_dropped, 0u);
  for (int i = 0; i < n; ++i) {
    std::string out;
    if (i % 2 == 0) {
      EXPECT_TRUE(store.Read(i, &out).IsNotFound()) << "key " << i;
    } else {
      ASSERT_TRUE(store.Read(i, &out).ok()) << "key " << i;
      EXPECT_EQ(out, PadValue(i, 100));
    }
  }
}

TEST(CompactTest, PreservesControlWord) {
  TempDir dir;
  FasterOptions o = SmallStore(dir);
  o.track_staleness = true;
  o.staleness_bound = 100;
  FasterStore store;
  ASSERT_TRUE(store.Open(o).ok());
  std::string v = PadValue(1, 100);
  ASSERT_TRUE(store.Upsert(1, v.data(), v.size()).ok());
  // Three tracked Gets push staleness to 3 while the record is mutable.
  std::string out;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(store.Read(1, &out).ok());
  // An RCU update (different size) carries staleness-1, generation+1.
  v = PadValue(1, 101);
  ASSERT_TRUE(store.Upsert(1, v.data(), v.size()).ok());
  // Push the version cold, then compact.
  for (int i = 1000; i < 1200; ++i) {
    const std::string f = PadValue(i, 100);
    ASSERT_TRUE(store.Upsert(i, f.data(), f.size()).ok());
  }
  uint32_t staleness_before = 0, generation_before = 0;
  for (LiveLogIterator it(&store); it.Valid(); it.Next()) {
    if (it.meta().key == 1) {
      staleness_before = ControlWord::Staleness(it.meta().control);
      generation_before = ControlWord::Generation(it.meta().control);
    }
  }
  EXPECT_EQ(staleness_before, 2u);
  ASSERT_TRUE(store.Compact(store.log().read_only_address(), nullptr).ok());
  bool found = false;
  for (LiveLogIterator it(&store); it.Valid(); it.Next()) {
    if (it.meta().key == 1) {
      found = true;
      EXPECT_EQ(ControlWord::Staleness(it.meta().control), staleness_before);
      EXPECT_EQ(ControlWord::Generation(it.meta().control),
                generation_before);
    }
  }
  EXPECT_TRUE(found);
}

TEST(CompactTest, RepeatedCompactionConverges) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  const int n = 100;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < n; ++i) {
      const std::string v = PadValue(i * 31 + round, 100);
      ASSERT_TRUE(store.Upsert(i, v.data(), v.size()).ok());
    }
    CompactionResult r;
    ASSERT_TRUE(store.Compact(store.log().read_only_address(), &r).ok());
  }
  for (int i = 0; i < n; ++i) {
    std::string out;
    ASSERT_TRUE(store.Read(i, &out).ok());
    EXPECT_EQ(out, PadValue(i * 31 + 4, 100));
  }
}

TEST(CompactTest, MaybeCompactRespectsThreshold) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  // Enough traffic that a cold prefix exists below the read-only boundary.
  for (int i = 0; i < 500; ++i) {
    const std::string v = PadValue(i, 100);
    ASSERT_TRUE(store.Upsert(i, v.data(), v.size()).ok());
  }
  ASSERT_GT(store.log().read_only_address(), HybridLog::kLogBegin);
  const Address begin_before = store.log().begin_address();
  // Generous threshold: no compaction.
  ASSERT_TRUE(store.MaybeCompact(1ull << 30).ok());
  EXPECT_EQ(store.log().begin_address(), begin_before);
  // Tiny threshold: compaction advances begin.
  ASSERT_TRUE(store.MaybeCompact(1).ok());
  EXPECT_GT(store.log().begin_address(), begin_before);
  EXPECT_EQ(StoreMetric(store, "mlkv_store_compactions_total"), 1u);
}

TEST(CompactTest, SurvivesCheckpointRecoverCycle) {
  TempDir dir;
  FasterOptions o = SmallStore(dir);
  const int n = 120;
  {
    FasterStore store;
    ASSERT_TRUE(store.Open(o).ok());
    for (int i = 0; i < n; ++i) {
      const std::string v = PadValue(i, 100);
      ASSERT_TRUE(store.Upsert(i, v.data(), v.size()).ok());
    }
    for (int i = 0; i < n; i += 3) ASSERT_TRUE(store.Delete(i).ok());
    ASSERT_TRUE(store.Compact(store.log().read_only_address(), nullptr).ok());
    ASSERT_TRUE(store.Checkpoint(dir.File("ckpt")).ok());
  }
  FasterStore recovered;
  ASSERT_TRUE(recovered.Recover(o, dir.File("ckpt")).ok());
  EXPECT_GT(recovered.log().begin_address(), HybridLog::kLogBegin);
  for (int i = 0; i < n; ++i) {
    std::string out;
    if (i % 3 == 0) {
      EXPECT_TRUE(recovered.Read(i, &out).IsNotFound()) << "key " << i;
    } else {
      ASSERT_TRUE(recovered.Read(i, &out).ok()) << "key " << i;
      EXPECT_EQ(out, PadValue(i, 100));
    }
  }
}


TEST(CompactTest, EmptyStoreCompactIsNoOp) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  CompactionResult r;
  ASSERT_TRUE(store.Compact(store.log().read_only_address(), &r).ok());
  EXPECT_EQ(r.scanned, 0u);
  EXPECT_EQ(store.log().begin_address(), HybridLog::kLogBegin);
}

TEST(CompactTest, SecondCompactorGetsBusy) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  // Hold the compaction lock indirectly by racing many tiny compactions;
  // single-threaded, just check the API: a compaction in progress cannot
  // be observed here, so assert the lock is released after each call.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store.Compact(store.log().read_only_address(), nullptr).ok());
  }
}

TEST(LogIteratorTest, EndBoundIsSnapshotted) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.Upsert(i, "abcd", 4).ok());
  }
  LogIterator it(&store);
  // Records appended after construction are outside the snapshot bound.
  for (int i = 100; i < 140; ++i) {
    ASSERT_TRUE(store.Upsert(i, "efgh", 4).ok());
  }
  int seen = 0;
  for (; it.Valid(); it.Next()) ++seen;
  EXPECT_EQ(seen, 10);
}

// Model-based sweep: random upserts/deletes checked against std::map after
// compaction, across several page/buffer geometries.
struct GeometryParam {
  uint64_t page_size;
  uint64_t mem_pages;
  uint32_t value_size;
};

class CompactModelTest : public ::testing::TestWithParam<GeometryParam> {};

TEST_P(CompactModelTest, MatchesModelAfterCompaction) {
  const GeometryParam p = GetParam();
  TempDir dir;
  FasterOptions o;
  o.path = dir.File("store.log");
  o.index_slots = 2048;
  o.page_size = p.page_size;
  o.mem_size = p.mem_pages * p.page_size;
  FasterStore store;
  ASSERT_NO_FATAL_FAILURE(OpenWithGeometry(o, &store));

  Rng rng(42);
  std::map<Key, std::string> model;
  const int kOps = 3000;
  const int kKeySpace = 400;
  for (int op = 0; op < kOps; ++op) {
    const Key key = rng.Next() % kKeySpace;
    if (rng.NextDouble() < 0.15 && model.count(key)) {
      ASSERT_TRUE(store.Delete(key).ok());
      model.erase(key);
    } else {
      std::string v = PadValue(key * 1000 + op, p.value_size);
      ASSERT_TRUE(store.Upsert(key, v.data(), v.size()).ok());
      model[key] = v;
    }
    if (op % 997 == 0) {
      ASSERT_TRUE(
          store.Compact(store.log().read_only_address(), nullptr).ok());
    }
  }
  ASSERT_TRUE(store.Compact(store.log().read_only_address(), nullptr).ok());

  for (int key = 0; key < kKeySpace; ++key) {
    std::string out;
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_TRUE(store.Read(key, &out).IsNotFound()) << "key " << key;
    } else {
      ASSERT_TRUE(store.Read(key, &out).ok()) << "key " << key;
      EXPECT_EQ(out, it->second) << "key " << key;
    }
  }
  // The live scan agrees with the model too.
  std::map<Key, std::string> scanned;
  for (LiveLogIterator it(&store); it.Valid(); it.Next()) {
    scanned[it.meta().key] =
        std::string(it.value().data(), it.value().size());
  }
  EXPECT_EQ(scanned, model);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CompactModelTest,
    ::testing::Values(GeometryParam{4096, 8, 24},
                      GeometryParam{4096, 4, 100},
                      GeometryParam{16384, 8, 56},
                      GeometryParam{8192, 16, 200}),
    [](const ::testing::TestParamInfo<GeometryParam>& info) {
      return "page" + std::to_string(info.param.page_size) + "x" +
             std::to_string(info.param.mem_pages) + "v" +
             std::to_string(info.param.value_size);
    });

// Concurrent writers while a compaction loop runs. Each writer owns a
// disjoint key range and writes monotonically increasing payload versions;
// after the dust settles every key must hold its owner's last write.
TEST(CompactTest, ConcurrentWritersStress) {
  TempDir dir;
  FasterOptions o = SmallStore(dir);
  o.index_slots = 4096;
  o.mem_size = 16 * 4096;
  FasterStore store;
  ASSERT_TRUE(store.Open(o).ok());

  constexpr int kWriters = 4;
  constexpr int kKeysPerWriter = 64;
  constexpr int kRoundsPerWriter = 60;
  std::vector<std::vector<uint64_t>> last_written(
      kWriters, std::vector<uint64_t>(kKeysPerWriter, 0));

  std::atomic<bool> stop{false};
  std::thread compactor([&] {
    while (!stop.load(std::memory_order_acquire)) {
      Status s = store.Compact(store.log().read_only_address(), nullptr);
      ASSERT_TRUE(s.ok() || s.IsBusy()) << s.ToString();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(1234 + w);
      for (int round = 1; round <= kRoundsPerWriter; ++round) {
        for (int k = 0; k < kKeysPerWriter; ++k) {
          const Key key = static_cast<Key>(w) * kKeysPerWriter + k;
          const uint64_t version =
              static_cast<uint64_t>(round) * 1000 + rng.Next() % 1000;
          // Vary size so updates mix in-place and RCU paths.
          std::string v = PadValue(version, 40 + (round % 3) * 8);
          std::memcpy(v.data(), &version, sizeof(version));
          ASSERT_TRUE(store.Upsert(key, v.data(), v.size()).ok());
          last_written[w][k] = version;
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  compactor.join();

  for (int w = 0; w < kWriters; ++w) {
    for (int k = 0; k < kKeysPerWriter; ++k) {
      const Key key = static_cast<Key>(w) * kKeysPerWriter + k;
      std::string out;
      ASSERT_TRUE(store.Read(key, &out).ok()) << "key " << key;
      uint64_t version = 0;
      std::memcpy(&version, out.data(), sizeof(version));
      EXPECT_EQ(version, last_written[w][k]) << "key " << key;
    }
  }
}

// Readers racing the compactor must always observe the newest committed
// value (single writer per key, monotonically increasing versions).
TEST(CompactTest, ConcurrentReadersSeeMonotonicVersions) {
  TempDir dir;
  FasterOptions o = SmallStore(dir);
  o.mem_size = 16 * 4096;
  FasterStore store;
  ASSERT_TRUE(store.Open(o).ok());

  constexpr int kKeys = 32;
  std::atomic<bool> stop{false};
  std::vector<std::atomic<uint64_t>> committed(kKeys);
  for (auto& c : committed) c.store(0);

  // Seed.
  for (int k = 0; k < kKeys; ++k) {
    uint64_t version = 1;
    std::string v = PadValue(k, 64);
    std::memcpy(v.data(), &version, sizeof(version));
    ASSERT_TRUE(store.Upsert(k, v.data(), v.size()).ok());
    committed[k].store(1);
  }

  std::thread writer([&] {
    Rng rng(7);
    for (int round = 2; round < 400; ++round) {
      const int k = static_cast<int>(rng.Next() % kKeys);
      std::string v = PadValue(k, 64 + (round % 2) * 8);
      uint64_t version = static_cast<uint64_t>(round);
      std::memcpy(v.data(), &version, sizeof(version));
      ASSERT_TRUE(store.Upsert(k, v.data(), v.size()).ok());
      committed[k].store(version, std::memory_order_release);
    }
    stop.store(true, std::memory_order_release);
  });
  std::thread compactor([&] {
    while (!stop.load(std::memory_order_acquire)) {
      Status s = store.Compact(store.log().read_only_address(), nullptr);
      ASSERT_TRUE(s.ok() || s.IsBusy());
    }
  });
  std::thread reader([&] {
    Rng rng(11);
    while (!stop.load(std::memory_order_acquire)) {
      const int k = static_cast<int>(rng.Next() % kKeys);
      const uint64_t floor = committed[k].load(std::memory_order_acquire);
      std::string out;
      ASSERT_TRUE(store.Read(k, &out).ok());
      uint64_t version = 0;
      std::memcpy(&version, out.data(), sizeof(version));
      EXPECT_GE(version, floor) << "stale read on key " << k;
    }
  });
  writer.join();
  compactor.join();
  reader.join();
}

}  // namespace
}  // namespace mlkv
