#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/hash.h"
#include "io/async_io.h"
#include "io/faulty_file_device.h"
#include "io/temp_dir.h"
#include "kv/faster_store.h"
#include "kv/log_iterator.h"
#include "kv/sharded_store.h"
#include "store_metrics.h"
#include "store_promote.h"

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

// Valid record images of `key` anywhere in the log (superseded versions
// included; records abandoned by a lost publish CAS are not valid).
size_t VersionsOf(FasterStore* store, Key key) {
  size_t n = 0;
  for (LogIterator it(store); it.Valid(); it.Next()) {
    if (it.meta().key == key) ++n;
  }
  return n;
}

// Phase-1 lookup of an absent key: returns the chain head its walk saw.
Address ObserveAbsent(FasterStore* store, Key key) {
  char buf[8];
  PendingRead p;
  EXPECT_TRUE(store->StartRead(key, buf, sizeof(buf), nullptr, UINT32_MAX,
                               /*tracked=*/false, &p));
  EXPECT_TRUE(p.status.IsNotFound());
  return p.chain_head;
}

// InsertIfAbsent modifier shaped like the embedding bootstrap: writes
// `init` into a fresh record, or adopts an existing one into `*row`.
auto Bootstrap(const char* init, std::string* row) {
  return [init, row](char* v, uint32_t size, bool exists) {
    if (!exists) {
      std::memcpy(v, init, size);
      row->assign(init, size);
    } else {
      row->assign(v, size);
    }
  };
}

TEST(FasterStoreTest, ColdPeekReadsHeaderAndValueInOneDeviceRead) {
  // Find loads the cold header once; the value load then reads header and
  // value together: two device reads per cold record, not three.
  TempDir dir;
  auto script = std::make_shared<FaultyFileDevice::Script>();  // counts only
  FasterOptions o = SmallStore(dir);
  o.index_slots = 1u << 20;  // key 0's chain holds key 0 alone
  o.device_factory = [script] {
    return std::make_unique<FaultyFileDevice>(script);
  };
  FasterStore store;
  ASSERT_TRUE(store.Open(o).ok());
  std::vector<char> value(32);
  for (Key k = 0; k < 1000; ++k) {
    std::memset(value.data(), static_cast<char>('a' + (k % 26)), 32);
    ASSERT_TRUE(store.Upsert(k, value.data(), 32).ok());
  }
  ASSERT_FALSE(store.IsInMemory(0));

  const uint64_t before = script->reads.load();
  char out[32] = {0};
  ASSERT_TRUE(store.Peek(0, out, sizeof(out)).ok());
  EXPECT_EQ(script->reads.load() - before, 2u);
  EXPECT_EQ(out[0], 'a');
  EXPECT_EQ(out[31], 'a');
}

TEST(FasterStoreTest, InsertIfAbsentPublishesAgainstObservedHead) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  const Address head = ObserveAbsent(&store, 7);
  std::string row;
  ASSERT_TRUE(
      store.InsertIfAbsent(7, head, 8, Bootstrap("initval!", &row)).ok());
  EXPECT_EQ(row, "initval!");
  // No fallback.
  EXPECT_EQ(StoreMetric(store, "mlkv_shard_ops_total", {{"op", "rmw"}}), 0u);
  EXPECT_EQ(StoreMetric(store, "mlkv_store_inserts_total"), 1u);
  std::string out;
  ASSERT_TRUE(store.Read(7, &out).ok());
  EXPECT_EQ(out, "initval!");
}

TEST(FasterStoreTest, InsertIfAbsentRacedBySameKeyFallsBackToRmw) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  const Address head = ObserveAbsent(&store, 7);
  // A racer publishes the key between the walk and the insert.
  ASSERT_TRUE(store.Upsert(7, "racer!!!", 8).ok());

  std::string row;
  ASSERT_TRUE(
      store.InsertIfAbsent(7, head, 8, Bootstrap("initval!", &row)).ok());
  // The stale head sent it to Rmw.
  EXPECT_EQ(StoreMetric(store, "mlkv_shard_ops_total", {{"op", "rmw"}}), 1u);
  EXPECT_EQ(row, "racer!!!");         // adopted the racer's row
  EXPECT_EQ(VersionsOf(&store, 7), 1u);
  std::string out;
  ASSERT_TRUE(store.Read(7, &out).ok());
  EXPECT_EQ(out, "racer!!!");
}

TEST(FasterStoreTest, InsertIfAbsentRacedBySlotNeighbourFallsBackToRmw) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  const Key key = 7;
  // A neighbour sharing key's index entry: same bucket (low hash bits) and
  // same tag (hash bits 32..46; kv/hash_index.h).
  const uint64_t bucket_mask = store.index_slots() / 8 - 1;
  auto tag = [](Key k) { return (Hash64(k) >> 32) & 0x7FFF; };
  Key neighbour = key + 1;
  while ((Hash64(neighbour) & bucket_mask) != (Hash64(key) & bucket_mask) ||
         tag(neighbour) != tag(key)) {
    ++neighbour;
  }

  const Address head = ObserveAbsent(&store, key);
  // The neighbour publishes into the shared entry: the chain head moves
  // although `key` is still absent.
  ASSERT_TRUE(store.Upsert(neighbour, "neighbr!", 8).ok());

  std::string row;
  ASSERT_TRUE(
      store.InsertIfAbsent(key, head, 8, Bootstrap("initval!", &row)).ok());
  EXPECT_EQ(StoreMetric(store, "mlkv_shard_ops_total", {{"op", "rmw"}}), 1u);
  EXPECT_EQ(row, "initval!");
  EXPECT_EQ(VersionsOf(&store, key), 1u);
  std::string out;
  ASSERT_TRUE(store.Read(key, &out).ok());
  EXPECT_EQ(out, "initval!");
  ASSERT_TRUE(store.Read(neighbour, &out).ok());
  EXPECT_EQ(out, "neighbr!");
}

// A reader holds a mutable record's lock bit while it copies the value.
// A writer that RCUs that record meanwhile (Rmw to a new size, Delete)
// must not copy the bit into the new version: nothing would ever clear
// it, and every later in-place write or read of the key would spin.
TEST(FasterStoreTest, RcuVersionsNeverInheritTheRecordLock) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  auto hold_lock = [&](Key key) {
    RecordMeta meta;
    Address address = kInvalidAddress;
    EXPECT_TRUE(store.PeekMeta(key, &meta, &address).ok());
    EXPECT_GE(address, store.log().read_only_address());  // mutable
    reinterpret_cast<Record*>(store.mutable_log()->MutablePointer(address))
        ->control.fetch_or(ControlWord::kLockedBit);
  };
  auto newest_locked = [&](Key key) {
    RecordMeta meta;
    EXPECT_TRUE(store.PeekMeta(key, &meta).ok());
    return ControlWord::Locked(meta.control);
  };

  ASSERT_TRUE(store.Upsert(1, "eight b!", 8).ok());
  hold_lock(1);
  ASSERT_TRUE(store.Rmw(1, 16, [](char*, uint32_t, bool) {}).ok());
  EXPECT_EQ(StoreMetric(store, "mlkv_store_rcu_appends_total"), 1u);
  EXPECT_FALSE(newest_locked(1));

  ASSERT_TRUE(store.Upsert(2, "eight b!", 8).ok());
  hold_lock(2);
  ASSERT_TRUE(store.Delete(2).ok());
  EXPECT_FALSE(newest_locked(2));
}

TEST(FasterStoreTest, InsertIfAbsentTreatsTombstoneAsAbsent) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  ASSERT_TRUE(store.Upsert(7, "deleted!", 8).ok());
  ASSERT_TRUE(store.Delete(7).ok());
  const Address head = ObserveAbsent(&store, 7);

  std::string row;
  ASSERT_TRUE(
      store.InsertIfAbsent(7, head, 8, Bootstrap("initval!", &row)).ok());
  EXPECT_EQ(StoreMetric(store, "mlkv_shard_ops_total", {{"op", "rmw"}}), 0u);
  EXPECT_EQ(row, "initval!");
  std::string out;
  ASSERT_TRUE(store.Read(7, &out).ok());
  EXPECT_EQ(out, "initval!");
}

TEST(FasterStoreTest, ReadMissingKeyNotFound) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  std::string out;
  EXPECT_TRUE(store.Read(1, &out).IsNotFound());
}

TEST(FasterStoreTest, UpsertThenRead) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  ASSERT_TRUE(store.Upsert(42, "hello", 5).ok());
  std::string out;
  ASSERT_TRUE(store.Read(42, &out).ok());
  EXPECT_EQ(out, "hello");
}

TEST(FasterStoreTest, UpdateOverwritesInPlace) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  ASSERT_TRUE(store.Upsert(1, "aaaa", 4).ok());
  ASSERT_TRUE(store.Upsert(1, "bbbb", 4).ok());
  std::string out;
  ASSERT_TRUE(store.Read(1, &out).ok());
  EXPECT_EQ(out, "bbbb");
  EXPECT_EQ(StoreMetric(store, "mlkv_store_inplace_updates_total"), 1u);
  EXPECT_EQ(StoreMetric(store, "mlkv_store_inserts_total"), 1u);
}

TEST(FasterStoreTest, DifferentSizeUpdateGoesRcu) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  ASSERT_TRUE(store.Upsert(1, "aaaa", 4).ok());
  ASSERT_TRUE(store.Upsert(1, "cccccccc", 8).ok());
  std::string out;
  ASSERT_TRUE(store.Read(1, &out).ok());
  EXPECT_EQ(out, "cccccccc");
  EXPECT_GE(StoreMetric(store, "mlkv_store_rcu_appends_total"), 1u);
}

TEST(FasterStoreTest, ManyKeysSurviveSpillToDisk) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  // 1000 keys x 64B records >> 32 KiB buffer: most go cold.
  std::vector<char> value(32);
  for (Key k = 0; k < 1000; ++k) {
    std::memset(value.data(), static_cast<char>('a' + (k % 26)), 32);
    ASSERT_TRUE(store.Upsert(k, value.data(), 32).ok());
  }
  EXPECT_GT(store.log().head_address(), HybridLog::kLogBegin);
  for (Key k = 0; k < 1000; ++k) {
    std::string out;
    ASSERT_TRUE(store.Read(k, &out).ok()) << "key " << k;
    ASSERT_EQ(out.size(), 32u);
    EXPECT_EQ(out[0], static_cast<char>('a' + (k % 26))) << "key " << k;
  }
  EXPECT_GT(StoreMetric(store, "mlkv_io_disk_record_reads_total"), 0u);
}

TEST(FasterStoreTest, UpdateColdKeyRcuAndReadsNewValue) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  std::vector<char> value(64, 'x');
  for (Key k = 0; k < 800; ++k) {
    ASSERT_TRUE(store.Upsert(k, value.data(), 64).ok());
  }
  // Key 0 is long cold now; update it.
  std::vector<char> nv(64, 'y');
  ASSERT_TRUE(store.Upsert(0, nv.data(), 64).ok());
  std::string out;
  ASSERT_TRUE(store.Read(0, &out).ok());
  EXPECT_EQ(out[0], 'y');
}

TEST(FasterStoreTest, DeleteHidesKey) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  ASSERT_TRUE(store.Upsert(5, "val", 3).ok());
  ASSERT_TRUE(store.Delete(5).ok());
  std::string out;
  EXPECT_TRUE(store.Read(5, &out).IsNotFound());
  EXPECT_TRUE(store.Delete(5).IsNotFound());
  // Re-insert after delete works.
  ASSERT_TRUE(store.Upsert(5, "new", 3).ok());
  ASSERT_TRUE(store.Read(5, &out).ok());
  EXPECT_EQ(out, "new");
}

TEST(FasterStoreTest, RmwCreatesAndModifies) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  auto add_one = [](char* value, uint32_t size, bool exists) {
    int64_t v = 0;
    if (exists) std::memcpy(&v, value, sizeof(v));
    v += 1;
    std::memcpy(value, &v, sizeof(v));
  };
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.Rmw(9, sizeof(int64_t), add_one).ok());
  }
  std::string out;
  ASSERT_TRUE(store.Read(9, &out).ok());
  int64_t v;
  std::memcpy(&v, out.data(), sizeof(v));
  EXPECT_EQ(v, 10);
}

TEST(FasterStoreTest, RmwOnColdRecordPreservesCounter) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  auto add_one = [](char* value, uint32_t size, bool exists) {
    int64_t v = 0;
    if (exists) std::memcpy(&v, value, sizeof(v));
    v += 1;
    std::memcpy(value, &v, sizeof(v));
  };
  ASSERT_TRUE(store.Rmw(0, sizeof(int64_t), add_one).ok());
  // Push key 0 out of memory.
  std::vector<char> filler(128, 'f');
  for (Key k = 1; k < 600; ++k) {
    ASSERT_TRUE(store.Upsert(k, filler.data(), 128).ok());
  }
  ASSERT_TRUE(store.Rmw(0, sizeof(int64_t), add_one).ok());
  std::string out;
  ASSERT_TRUE(store.Read(0, &out).ok());
  int64_t v;
  std::memcpy(&v, out.data(), sizeof(v));
  EXPECT_EQ(v, 2);
}

TEST(FasterStoreTest, PromoteMovesDiskRecordToMemory) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  std::vector<char> value(64, 'p');
  ASSERT_TRUE(store.Upsert(7, value.data(), 64).ok());
  std::vector<char> filler(128, 'f');
  for (Key k = 100; k < 700; ++k) {
    ASSERT_TRUE(store.Upsert(k, filler.data(), 128).ok());
  }
  ASSERT_FALSE(store.IsInMemory(7)) << "key 7 should have been evicted";
  ASSERT_TRUE(Promote(&store, 7).ok());
  EXPECT_TRUE(store.IsInMemory(7));
  EXPECT_EQ(StoreMetric(store, "mlkv_store_promotions_total"), 1u);
  std::string out;
  ASSERT_TRUE(store.Read(7, &out).ok());
  EXPECT_EQ(out[0], 'p');
}

TEST(FasterStoreTest, PromotedColdReadKeepsTheFullValue) {
  // An untracked read copies the disk record it fetched to the tail. A read
  // whose buffer holds only a prefix of the value must never publish that
  // prefix as the record: the blocking path loads the whole value for the
  // copy, and the pipeline copies only from a landing buffer that holds it
  // all. The copy keeps the source's control word.
  TempDir dir;
  FasterOptions o = SmallStore(dir);
  o.track_staleness = true;  // gives the words a nonzero staleness
  FasterStore store;
  ASSERT_TRUE(store.Open(o).ok());
  std::vector<char> value(64);
  for (size_t i = 0; i < value.size(); ++i) value[i] = static_cast<char>(i);
  for (Key k = 1; k <= 3; ++k) {
    // Two Gets and two Puts: generation 1, staleness 1.
    std::string out;
    ASSERT_TRUE(store.Upsert(k, value.data(), 64).ok());
    ASSERT_TRUE(store.Read(k, &out).ok());
    ASSERT_TRUE(store.Read(k, &out).ok());
    ASSERT_TRUE(store.Upsert(k, value.data(), 64).ok());
  }
  std::vector<char> filler(128, 'f');
  for (Key k = 100; k < 700; ++k) {
    ASSERT_TRUE(store.Upsert(k, filler.data(), 128).ok());
  }
  const auto word = [&](Key k) {
    RecordMeta meta;
    EXPECT_TRUE(store.PeekMeta(k, &meta).ok());
    return meta.control;
  };
  const auto expect_same_word = [&](Key k, uint64_t source) {
    const uint64_t copy = word(k);
    EXPECT_EQ(ControlWord::Staleness(copy), 1u) << "key " << k;
    EXPECT_EQ(ControlWord::Staleness(copy), ControlWord::Staleness(source))
        << "key " << k;
    EXPECT_EQ(ControlWord::Generation(copy), ControlWord::Generation(source))
        << "key " << k;
  };
  const auto expect_whole = [&](Key k) {
    RecordMeta meta;
    ASSERT_TRUE(store.PeekMeta(k, &meta).ok());
    EXPECT_EQ(meta.value_size, 64u) << "key " << k;
    std::string out;
    ASSERT_TRUE(store.Read(k, &out).ok());
    EXPECT_EQ(out, std::string(value.begin(), value.end())) << "key " << k;
  };
  char prefix[16];

  // Blocking path: a 16-byte read of a 64-byte disk record copies it whole.
  ASSERT_FALSE(store.IsInMemory(1));
  const uint64_t source1 = word(1);
  ASSERT_EQ(ControlWord::Generation(source1), 1u);
  uint32_t size = 0;
  ASSERT_TRUE(store.Peek(1, prefix, sizeof(prefix), &size).ok());
  EXPECT_EQ(size, 64u);
  EXPECT_EQ(std::memcmp(prefix, value.data(), sizeof(prefix)), 0);
  EXPECT_TRUE(store.IsInMemory(1));
  expect_same_word(1, source1);
  expect_whole(1);

  // Pipeline: a landing buffer of 16 value bytes skips the copy; one that
  // covers the value (fetch = 64) copies it whole.
  AsyncIoEngine engine;
  for (const Key k : {Key{2}, Key{3}}) {
    ASSERT_FALSE(store.IsInMemory(k));
    const uint64_t source = word(k);
    PendingRead p;
    ASSERT_FALSE(store.StartRead(k, prefix, sizeof(prefix), nullptr,
                                 UINT32_MAX, /*tracked=*/false, &p,
                                 /*fetch=*/k == 2 ? 0 : 64));
    PendingSink sink;
    sink.Park(&store, std::move(p),
              [](PendingRead* done) { EXPECT_TRUE(done->status.ok()); });
    PendingReadWave wave(&engine);
    wave.Adopt(&sink);
    wave.CompleteAll();
    EXPECT_EQ(std::memcmp(prefix, value.data(), sizeof(prefix)), 0);
    EXPECT_EQ(store.IsInMemory(k), k == 3) << "key " << k;
    expect_same_word(k, source);
    expect_whole(k);
  }
}

TEST(FasterStoreTest, PromoteSkipsImmutableInMemoryRecords) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  std::vector<char> value(64, 'q');
  ASSERT_TRUE(store.Upsert(7, value.data(), 64).ok());
  // Push key 7 into the read-only (still in-memory) region only.
  std::vector<char> filler(128, 'f');
  for (Key k = 100; k < 250; ++k) {
    ASSERT_TRUE(store.Upsert(k, filler.data(), 128).ok());
  }
  ASSERT_TRUE(store.IsInMemory(7));
  const obs::MetricsSink before = StoreSamples(store);
  ASSERT_TRUE(Promote(&store, 7).ok());
  const obs::MetricsSink after = StoreSamples(store);
  EXPECT_EQ(MetricSum(after, "mlkv_store_promotions_total"),
            MetricSum(before, "mlkv_store_promotions_total"));
  EXPECT_EQ(MetricSum(after, "mlkv_store_promotions_skipped_total"),
            MetricSum(before, "mlkv_store_promotions_skipped_total") + 1);
}

TEST(FasterStoreTest, CheckpointRecoverRoundTrip) {
  TempDir dir;
  FasterOptions o = SmallStore(dir);
  {
    FasterStore store;
    ASSERT_TRUE(store.Open(o).ok());
    for (Key k = 0; k < 300; ++k) {
      std::string v = "value-" + std::to_string(k);
      ASSERT_TRUE(store.Upsert(k, v.data(), v.size()).ok());
    }
    ASSERT_TRUE(store.Checkpoint(dir.File("ckpt")).ok());
  }
  FasterStore restored;
  ASSERT_TRUE(restored.Recover(o, dir.File("ckpt")).ok());
  for (Key k = 0; k < 300; ++k) {
    std::string out;
    ASSERT_TRUE(restored.Read(k, &out).ok()) << "key " << k;
    EXPECT_EQ(out, "value-" + std::to_string(k));
  }
  // Recovered store accepts new writes.
  ASSERT_TRUE(restored.Upsert(1000, "fresh", 5).ok());
  std::string out;
  ASSERT_TRUE(restored.Read(1000, &out).ok());
  EXPECT_EQ(out, "fresh");
}

TEST(FasterStoreTest, PageGeometryFollowsBudget) {
  TempDir dir;
  const std::string value(200, 'v');
  // Fills `store` with `n` keys; returns the bytes between the read-only
  // boundary and the tail (the mutable region).
  auto fill = [&](FasterStore* store, Key n) {
    for (Key k = 0; k < n; ++k) {
      EXPECT_TRUE(store->Upsert(k, value.data(), value.size()).ok());
    }
    return store->log().tail() - store->log().read_only_address();
  };

  // A 1 MiB budget holds 64 frames of 16 KiB; the default 90% keeps
  // floor(64 * 0.9) = 57 of them mutable, the tail page included.
  FasterOptions o;
  o.path = dir.File("wide.log");
  o.index_slots = 1u << 14;
  o.page_size = 1ull << 20;
  o.mem_size = 1ull << 20;
  constexpr uint64_t kPage = 16ull << 10;
  {
    FasterStore store;
    ASSERT_TRUE(store.Open(o).ok());
    EXPECT_EQ(store.log().options().page_size, kPage);
    const uint64_t mutable_bytes = fill(&store, 8000);  // ~1.8 MiB of records
    EXPECT_GT(mutable_bytes, 56 * kPage);
    EXPECT_LE(mutable_bytes, 57 * kPage);
    ASSERT_TRUE(store.Checkpoint(dir.File("wide")).ok());
  }

  // Recovery parses the log with the checkpoint's 16 KiB pages even though
  // a 4 MiB budget alone would pick 64 KiB ones.
  FasterOptions bigger = o;
  bigger.mem_size = 4ull << 20;
  {
    FasterStore restored;
    ASSERT_TRUE(restored.Recover(bigger, dir.File("wide")).ok());
    EXPECT_EQ(restored.log().options().page_size, kPage);
    std::string out;
    for (Key k = 0; k < 8000; ++k) {
      ASSERT_TRUE(restored.Read(k, &out).ok()) << "key " << k;
      EXPECT_EQ(out, value);
    }
  }

  // The 16 KiB shard floor still opens: four 4 KiB pages, of which the
  // mem - 2 cap leaves two mutable.
  FasterOptions tiny = o;
  tiny.path = dir.File("tiny.log");
  tiny.mem_size = ShardedStore::kMinShardMemBytes;
  FasterStore store;
  ASSERT_TRUE(store.Open(tiny).ok());
  EXPECT_EQ(store.log().options().page_size, 4096u);
  const uint64_t mutable_bytes = fill(&store, 200);  // ~45 KiB of records
  EXPECT_GT(mutable_bytes, 1 * 4096u);
  EXPECT_LE(mutable_bytes, 2 * 4096u);
}

TEST(FasterStoreTest, FixedBufferReadReportsSizeAndTruncates) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  ASSERT_TRUE(store.Upsert(3, "0123456789", 10).ok());
  char buf[4];
  uint32_t size = 0;
  ASSERT_TRUE(store.Read(3, buf, 4, &size).ok());
  EXPECT_EQ(size, 10u);
  EXPECT_EQ(std::string(buf, 4), "0123");
}

TEST(FasterStoreTest, StatsCountOperations) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(SmallStore(dir)).ok());
  ASSERT_TRUE(store.Upsert(1, "a", 1).ok());
  std::string out;
  ASSERT_TRUE(store.Read(1, &out).ok());
  const obs::MetricsSink s = StoreSamples(store);
  EXPECT_EQ(MetricSum(s, "mlkv_shard_ops_total", {{"op", "upsert"}}), 1u);
  EXPECT_EQ(MetricSum(s, "mlkv_shard_ops_total", {{"op", "read"}}), 1u);
  EXPECT_EQ(MetricSum(s, "mlkv_store_inserts_total"), 1u);
}


TEST(FasterStoreGrowTest, AllKeysReadableAfterIndexGrowth) {
  TempDir dir;
  FasterOptions o = SmallStore(dir);
  o.index_slots = 16;  // deliberately undersized: two full buckets
  FasterStore store;
  ASSERT_TRUE(store.Open(o).ok());
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    const std::string v = std::string("v").append(std::to_string(i));
    ASSERT_TRUE(store.Upsert(i, v.data(), v.size()).ok());
  }
  ASSERT_TRUE(store.GrowIndex(4).ok());  // 16 -> 256 slots
  for (int i = 0; i < n; ++i) {
    std::string out;
    ASSERT_TRUE(store.Read(i, &out).ok()) << "key " << i;
    const std::string expect = "v" + std::to_string(i);
    EXPECT_EQ(out, expect);
  }
  // Updates and fresh inserts keep working against the refined slots.
  for (int i = 0; i < n + 100; ++i) {
    const std::string v = "w" + std::to_string(i);
    ASSERT_TRUE(store.Upsert(i, v.data(), v.size()).ok());
  }
  for (int i = 0; i < n + 100; ++i) {
    std::string out;
    ASSERT_TRUE(store.Read(i, &out).ok()) << "key " << i;
    const std::string expect = "w" + std::to_string(i);
    EXPECT_EQ(out, expect);
  }
}

TEST(FasterStoreGrowTest, MaybeGrowIndexHonorsLoadFactor) {
  TempDir dir;
  FasterOptions o = SmallStore(dir);
  o.index_slots = 16;
  FasterStore store;
  ASSERT_TRUE(store.Open(o).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store.Upsert(i, "abcd", 4).ok());
  }
  // 200 keys / 16 slots = 12.5 load; growing to <= 1.5 needs 256 slots.
  ASSERT_TRUE(store.MaybeGrowIndex(1.5).ok());
  EXPECT_EQ(store.index_slots(), 256u);
  EXPECT_EQ(StoreMetric(store, "mlkv_store_inserts_total"), 200u);
  std::string out;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store.Read(i, &out).ok());
  }
  // Under the threshold now: another call is a no-op.
  ASSERT_TRUE(store.MaybeGrowIndex(1.5).ok());
  EXPECT_EQ(store.index_slots(), 256u);
}

TEST(FasterStoreGrowTest, GrowthSurvivesCheckpointRecover) {
  TempDir dir;
  FasterOptions o = SmallStore(dir);
  o.index_slots = 16;
  {
    FasterStore store;
    ASSERT_TRUE(store.Open(o).ok());
    for (int i = 0; i < 150; ++i) {
      const std::string v = std::string("v").append(std::to_string(i));
      ASSERT_TRUE(store.Upsert(i, v.data(), v.size()).ok());
    }
    ASSERT_TRUE(store.GrowIndex(3).ok());
    ASSERT_TRUE(store.Checkpoint(dir.File("g")).ok());
  }
  FasterStore recovered;
  ASSERT_TRUE(recovered.Recover(o, dir.File("g")).ok());
  EXPECT_EQ(recovered.index_slots(), 128u);
  for (int i = 0; i < 150; ++i) {
    std::string out;
    ASSERT_TRUE(recovered.Read(i, &out).ok()) << "key " << i;
    const std::string expect = "v" + std::to_string(i);
    EXPECT_EQ(out, expect);
  }
  // 150 keys filled the 16 entries before growth: the recovered (all
  // disk-resident) chains are shared, so reads hop over other keys.
  EXPECT_GT(StoreMetric(recovered, "mlkv_store_chain_hops_total"), 0u);
}

}  // namespace
}  // namespace mlkv
