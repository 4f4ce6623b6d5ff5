// Durability tests across the engines. For the FASTER path: the group-
// durability crash-recovery matrix (group-committed records replayed past
// the checkpoint marker, torn-tail truncation, base+delta checkpoint
// ordering, injected fsync failures surfacing as errors) and the tailable
// update-log cursor. For the baseline engines: WAL record format, crash
// recovery (including fault injection on the WAL tail), LEVELS manifest
// recovery, and range scans on the LSM store and the B+tree.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "btree/btree_store.h"
#include "common/random.h"
#include "io/faulty_file_device.h"
#include "io/temp_dir.h"
#include "kv/faster_store.h"
#include "kv/hash_index.h"
#include "kv/update_log.h"
#include "lsm/lsm_store.h"
#include "lsm/wal.h"

namespace mlkv {
namespace {

LsmOptions SmallLsm(const TempDir& dir) {
  LsmOptions o;
  o.dir = dir.path() + "/lsm";
  o.memtable_bytes = 4096;
  o.block_cache_bytes = 1 << 20;
  o.block_size = 1024;
  o.l0_compaction_trigger = 3;
  return o;
}

// ------------------------------------------------------------------ WAL --

TEST(WalTest, EmptyFileReplaysNothing) {
  TempDir dir;
  uint64_t n = 99;
  ASSERT_TRUE(ReplayWal(dir.File("missing.wal"),
                        [](Key, const std::string&, bool) { FAIL(); }, &n)
                  .ok());
  EXPECT_EQ(n, 0u);
}

TEST(WalTest, RoundTripsPutsAndDeletes) {
  TempDir dir;
  const std::string path = dir.File("w.wal");
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    ASSERT_TRUE(w.AppendPut(1, "alpha", 5).ok());
    ASSERT_TRUE(w.AppendDelete(2).ok());
    ASSERT_TRUE(w.AppendPut(3, "b", 1).ok());
    ASSERT_TRUE(w.Sync().ok());
  }
  std::vector<std::tuple<Key, std::string, bool>> got;
  uint64_t n = 0;
  ASSERT_TRUE(ReplayWal(path,
                        [&](Key k, const std::string& v, bool tomb) {
                          got.emplace_back(k, v, tomb);
                        },
                        &n)
                  .ok());
  ASSERT_EQ(n, 3u);
  EXPECT_EQ(got[0], std::make_tuple(Key{1}, std::string("alpha"), false));
  EXPECT_EQ(got[1], std::make_tuple(Key{2}, std::string(), true));
  EXPECT_EQ(got[2], std::make_tuple(Key{3}, std::string("b"), false));
}

TEST(WalTest, ResetEmptiesTheLog) {
  TempDir dir;
  const std::string path = dir.File("w.wal");
  WalWriter w;
  ASSERT_TRUE(w.Open(path).ok());
  ASSERT_TRUE(w.AppendPut(1, "x", 1).ok());
  ASSERT_TRUE(w.Reset().ok());
  EXPECT_EQ(w.bytes(), 0u);
  uint64_t n = 0;
  ASSERT_TRUE(
      ReplayWal(path, [](Key, const std::string&, bool) {}, &n).ok());
  EXPECT_EQ(n, 0u);
}

TEST(WalTest, TornTailStopsReplayCleanly) {
  TempDir dir;
  const std::string path = dir.File("w.wal");
  uint64_t full_size = 0;
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    ASSERT_TRUE(w.AppendPut(1, "aaaa", 4).ok());
    ASSERT_TRUE(w.AppendPut(2, "bbbb", 4).ok());
    ASSERT_TRUE(w.Sync().ok());
    full_size = w.bytes();
  }
  // Chop the last record in half (simulated crash mid-write).
  std::filesystem::resize_file(path, full_size - 3);
  uint64_t n = 0;
  std::vector<Key> keys;
  ASSERT_TRUE(ReplayWal(path,
                        [&](Key k, const std::string&, bool) {
                          keys.push_back(k);
                        },
                        &n)
                  .ok());
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(keys[0], 1u);
}

TEST(WalTest, CorruptMiddleByteStopsAtTheRecord) {
  TempDir dir;
  const std::string path = dir.File("w.wal");
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    ASSERT_TRUE(w.AppendPut(1, "aaaa", 4).ok());
    ASSERT_TRUE(w.AppendPut(2, "bbbb", 4).ok());
    ASSERT_TRUE(w.AppendPut(3, "cccc", 4).ok());
  }
  // Flip a byte inside record 2's value.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(21 + 18, std::ios::beg);  // record size = 17 + 4 = 21 bytes
  f.put('X');
  f.close();
  uint64_t n = 0;
  ASSERT_TRUE(
      ReplayWal(path, [](Key, const std::string&, bool) {}, &n).ok());
  EXPECT_EQ(n, 1u);  // only the first record survives
}

// -------------------------------------------------------- LSM recovery --

TEST(LsmRecoveryTest, RecoversFlushedAndUnflushedWrites) {
  TempDir dir;
  const LsmOptions o = SmallLsm(dir);
  std::map<Key, std::string> model;
  {
    LsmStore store;
    ASSERT_TRUE(store.Open(o).ok());
    Rng rng(7);
    for (int i = 0; i < 500; ++i) {
      const Key k = rng.Next() % 200;
      const std::string v = std::string("v").append(std::to_string(i));
      ASSERT_TRUE(store.Put(k, v.data(), v.size()).ok());
      model[k] = v;
    }
    // Deliberately NO Flush(): the tail lives only in the WAL.
  }
  LsmStore recovered;
  ASSERT_TRUE(recovered.Open(o).ok());
  for (const auto& [k, v] : model) {
    std::string out;
    ASSERT_TRUE(recovered.Get(k, &out).ok()) << "key " << k;
    EXPECT_EQ(out, v);
  }
}

TEST(LsmRecoveryTest, RecoversDeletes) {
  TempDir dir;
  const LsmOptions o = SmallLsm(dir);
  {
    LsmStore store;
    ASSERT_TRUE(store.Open(o).ok());
    for (Key k = 0; k < 50; ++k) {
      const std::string v = std::string("v").append(std::to_string(k));
      ASSERT_TRUE(store.Put(k, v.data(), v.size()).ok());
    }
    for (Key k = 0; k < 50; k += 2) ASSERT_TRUE(store.Delete(k).ok());
  }
  LsmStore recovered;
  ASSERT_TRUE(recovered.Open(o).ok());
  for (Key k = 0; k < 50; ++k) {
    std::string out;
    if (k % 2 == 0) {
      EXPECT_TRUE(recovered.Get(k, &out).IsNotFound()) << "key " << k;
    } else {
      ASSERT_TRUE(recovered.Get(k, &out).ok()) << "key " << k;
    }
  }
}

TEST(LsmRecoveryTest, SurvivesTornWalTail) {
  TempDir dir;
  const LsmOptions o = SmallLsm(dir);
  {
    LsmStore store;
    ASSERT_TRUE(store.Open(o).ok());
    for (Key k = 0; k < 20; ++k) {
      const std::string v = "value" + std::to_string(k);
      ASSERT_TRUE(store.Put(k, v.data(), v.size()).ok());
    }
  }
  // Crash injection: chop bytes off the WAL tail.
  const std::string wal = o.dir + "/WAL";
  ASSERT_TRUE(std::filesystem::exists(wal));
  const auto size = std::filesystem::file_size(wal);
  ASSERT_GT(size, 4u);
  std::filesystem::resize_file(wal, size - 4);
  LsmStore recovered;
  ASSERT_TRUE(recovered.Open(o).ok());
  // Everything except (at most) the torn-off tail record must be intact.
  for (Key k = 0; k + 1 < 20; ++k) {
    std::string out;
    ASSERT_TRUE(recovered.Get(k, &out).ok()) << "key " << k;
    EXPECT_EQ(out, "value" + std::to_string(k));
  }
}

TEST(LsmRecoveryTest, DoubleRecoveryIsStable) {
  TempDir dir;
  const LsmOptions o = SmallLsm(dir);
  {
    LsmStore store;
    ASSERT_TRUE(store.Open(o).ok());
    for (Key k = 0; k < 300; ++k) {
      const std::string v = std::string("v").append(std::to_string(k));
      ASSERT_TRUE(store.Put(k, v.data(), v.size()).ok());
    }
  }
  {
    LsmStore once;
    ASSERT_TRUE(once.Open(o).ok());
    const std::string v = "extra";
    Key k = 1000;
    ASSERT_TRUE(once.Put(k, v.data(), v.size()).ok());
  }
  LsmStore twice;
  ASSERT_TRUE(twice.Open(o).ok());
  std::string out;
  for (Key k = 0; k < 300; ++k) {
    ASSERT_TRUE(twice.Get(k, &out).ok()) << "key " << k;
  }
  ASSERT_TRUE(twice.Get(1000, &out).ok());
  EXPECT_EQ(out, "extra");
}

TEST(LsmRecoveryTest, WalDisabledLosesOnlyMemtable) {
  TempDir dir;
  LsmOptions o = SmallLsm(dir);
  o.enable_wal = false;
  {
    LsmStore store;
    ASSERT_TRUE(store.Open(o).ok());
    for (Key k = 0; k < 300; ++k) {
      const std::string v = std::string("v").append(std::to_string(k));
      ASSERT_TRUE(store.Put(k, v.data(), v.size()).ok());
    }
    ASSERT_TRUE(store.Flush().ok());
    // Unflushed write that will be lost without a WAL.
    const std::string v = "lost";
    Key k = 5000;
    ASSERT_TRUE(store.Put(k, v.data(), v.size()).ok());
  }
  LsmStore recovered;
  ASSERT_TRUE(recovered.Open(o).ok());
  std::string out;
  for (Key k = 0; k < 300; ++k) {
    ASSERT_TRUE(recovered.Get(k, &out).ok()) << "key " << k;
  }
  EXPECT_TRUE(recovered.Get(5000, &out).IsNotFound());
}

// ------------------------------------------------------------ LSM scan --

TEST(LsmScanTest, MergesAllLevelsNewestWins) {
  TempDir dir;
  LsmStore store;
  ASSERT_TRUE(store.Open(SmallLsm(dir)).ok());
  // Enough writes to populate L1 (via compaction), L0, and the memtable,
  // with overlapping key versions.
  for (int round = 0; round < 6; ++round) {
    for (Key k = 0; k < 120; ++k) {
      const std::string v = std::string("r")
                                .append(std::to_string(round))
                                .append("k")
                                .append(std::to_string(k));
      ASSERT_TRUE(store.Put(k, v.data(), v.size()).ok());
    }
  }
  ASSERT_GT(store.l1_run_count() + store.l0_run_count(), 0u);
  std::map<Key, std::string> got;
  ASSERT_TRUE(store.Scan(10, 50, [&](Key k, const std::string& v) {
    got[k] = v;
  }).ok());
  ASSERT_EQ(got.size(), 41u);
  for (Key k = 10; k <= 50; ++k) {
    EXPECT_EQ(got[k], "r5k" + std::to_string(k)) << "key " << k;
  }
}

TEST(LsmScanTest, SkipsDeletedKeys) {
  TempDir dir;
  LsmStore store;
  ASSERT_TRUE(store.Open(SmallLsm(dir)).ok());
  for (Key k = 0; k < 100; ++k) {
    const std::string v = std::string("v").append(std::to_string(k));
    ASSERT_TRUE(store.Put(k, v.data(), v.size()).ok());
  }
  for (Key k = 0; k < 100; k += 3) ASSERT_TRUE(store.Delete(k).ok());
  int count = 0;
  ASSERT_TRUE(store.Scan(0, 99, [&](Key k, const std::string&) {
    EXPECT_NE(k % 3, 0u);
    ++count;
  }).ok());
  EXPECT_EQ(count, 66);
}

TEST(LsmScanTest, EmptyRangeAndReversedRange) {
  TempDir dir;
  LsmStore store;
  ASSERT_TRUE(store.Open(SmallLsm(dir)).ok());
  const std::string v = "x";
  Key k = 10;
  ASSERT_TRUE(store.Put(k, v.data(), v.size()).ok());
  int count = 0;
  ASSERT_TRUE(store.Scan(20, 30, [&](Key, const std::string&) {
    ++count;
  }).ok());
  EXPECT_EQ(count, 0);
  ASSERT_TRUE(store.Scan(30, 20, [&](Key, const std::string&) {
    ++count;
  }).ok());
  EXPECT_EQ(count, 0);
}

TEST(LsmScanTest, OrderedAscending) {
  TempDir dir;
  LsmStore store;
  ASSERT_TRUE(store.Open(SmallLsm(dir)).ok());
  Rng rng(3);
  for (int i = 0; i < 400; ++i) {
    const Key k = rng.Next() % 1000;
    const std::string v = "v";
    ASSERT_TRUE(store.Put(k, v.data(), v.size()).ok());
  }
  Key prev = 0;
  bool first = true;
  ASSERT_TRUE(store.Scan(0, 999, [&](Key k, const std::string&) {
    if (!first) {
      EXPECT_GT(k, prev);
    }
    prev = k;
    first = false;
  }).ok());
}

// ---------------------------------------------------------- BTree scan --

TEST(BTreeScanTest, FullRangeInOrder) {
  TempDir dir;
  BTreeOptions o;
  o.path = dir.File("bt");
  o.page_size = 4096;
  o.buffer_pool_bytes = 64 * 4096;
  o.value_size = 16;
  BTreeStore store;
  ASSERT_TRUE(store.Open(o).ok());
  // Insert shuffled keys across multiple leaves.
  std::vector<Key> keys;
  for (Key k = 0; k < 2000; ++k) keys.push_back(k * 3);
  Rng rng(5);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.Next() % i]);
  }
  std::vector<char> v(o.value_size);
  for (const Key k : keys) {
    std::memcpy(v.data(), &k, sizeof(k));
    ASSERT_TRUE(store.Put(k, v.data()).ok());
  }
  Key expected = 0;
  int count = 0;
  ASSERT_TRUE(store.Scan(0, UINT64_MAX - 1, [&](Key k, const void* value) {
    EXPECT_EQ(k, expected);
    Key stored = 0;
    std::memcpy(&stored, value, sizeof(stored));
    EXPECT_EQ(stored, k);
    expected += 3;
    ++count;
  }).ok());
  EXPECT_EQ(count, 2000);
}

TEST(BTreeScanTest, SubRangeBoundsInclusive) {
  TempDir dir;
  BTreeOptions o;
  o.path = dir.File("bt");
  o.value_size = 8;
  BTreeStore store;
  ASSERT_TRUE(store.Open(o).ok());
  std::vector<char> v(o.value_size, 1);
  for (Key k = 0; k < 500; ++k) {
    ASSERT_TRUE(store.Put(k, v.data()).ok());
  }
  std::vector<Key> got;
  ASSERT_TRUE(store.Scan(100, 110, [&](Key k, const void*) {
    got.push_back(k);
  }).ok());
  ASSERT_EQ(got.size(), 11u);
  EXPECT_EQ(got.front(), 100u);
  EXPECT_EQ(got.back(), 110u);
}

TEST(BTreeScanTest, EmptyTreeAndMissRange) {
  TempDir dir;
  BTreeOptions o;
  o.path = dir.File("bt");
  o.value_size = 8;
  BTreeStore store;
  ASSERT_TRUE(store.Open(o).ok());
  int count = 0;
  ASSERT_TRUE(store.Scan(0, 100, [&](Key, const void*) { ++count; }).ok());
  EXPECT_EQ(count, 0);
  std::vector<char> v(o.value_size, 1);
  Key k = 1000;
  ASSERT_TRUE(store.Put(k, v.data()).ok());
  ASSERT_TRUE(store.Scan(0, 100, [&](Key, const void*) { ++count; }).ok());
  EXPECT_EQ(count, 0);
}

TEST(BTreeScanTest, SparseKeysAcrossLeaves) {
  TempDir dir;
  BTreeOptions o;
  o.path = dir.File("bt");
  o.page_size = 4096;
  o.value_size = 64;  // fewer slots per leaf -> more leaves
  BTreeStore store;
  ASSERT_TRUE(store.Open(o).ok());
  std::vector<char> v(o.value_size, 7);
  std::map<Key, bool> model;
  Rng rng(11);
  for (int i = 0; i < 3000; ++i) {
    const Key k = rng.Next() % 100000;
    ASSERT_TRUE(store.Put(k, v.data()).ok());
    model[k] = true;
  }
  std::vector<Key> got;
  ASSERT_TRUE(store.Scan(20000, 80000, [&](Key k, const void*) {
    got.push_back(k);
  }).ok());
  std::vector<Key> expected;
  for (const auto& [k, _] : model) {
    if (k >= 20000 && k <= 80000) expected.push_back(k);
  }
  EXPECT_EQ(got, expected);
}

// ------------------------------------- FASTER group-durability matrix --
//
// The crash model throughout: a "crash" is closing the store without the
// shutdown-time checkpoint (everything not on media is gone), optionally
// followed by tearing the log file the way an interrupted page write
// would. Recovery is Recover() from the last checkpoint prefix.

FasterOptions GroupStore(const TempDir& dir, const char* name = "kv.log") {
  FasterOptions o;
  o.path = dir.File(name);
  o.index_slots = 1024;
  o.page_size = 4096;
  o.mem_size = 16 * 4096;
  o.mutable_fraction = 0.5;
  o.durability = DurabilityMode::kGroup;
  o.group_commit.window_us = 100;
  return o;
}

Status UpsertStr(FasterStore* store, Key k, const std::string& v) {
  return store->Upsert(k, v.data(), static_cast<uint32_t>(v.size()));
}

// Kill between group commit and checkpoint marker: work made durable by
// Persist() but never covered by a checkpoint must be replayed from the
// log tail on recovery — new inserts, RCU updates, and tombstones alike.
TEST(GroupDurabilityTest, GroupCommittedRecordsReplayPastCheckpoint) {
  TempDir dir;
  const FasterOptions o = GroupStore(dir);
  const std::string prefix = dir.File("ckpt");
  {
    FasterStore store;
    ASSERT_TRUE(store.Open(o).ok());
    for (Key k = 1; k <= 20; ++k) {
      ASSERT_TRUE(UpsertStr(&store, k, "base-" + std::to_string(k)).ok());
    }
    ASSERT_TRUE(store.Checkpoint(prefix).ok());
    // Post-checkpoint: new keys plus size-changing (RCU) updates of old
    // ones, then one group-committed durability point — and a crash
    // before any further checkpoint marker.
    for (Key k = 21; k <= 40; ++k) {
      ASSERT_TRUE(UpsertStr(&store, k, "tail-" + std::to_string(k)).ok());
    }
    for (Key k = 1; k <= 10; ++k) {
      ASSERT_TRUE(
          UpsertStr(&store, k, "updated!!-" + std::to_string(k)).ok());
    }
    ASSERT_TRUE(store.Delete(15).ok());
    ASSERT_TRUE(store.Persist().ok());
  }

  FasterStore store;
  ASSERT_TRUE(store.Recover(o, prefix).ok());
  std::string out;
  for (Key k = 1; k <= 10; ++k) {
    ASSERT_TRUE(store.Read(k, &out).ok()) << k;
    EXPECT_EQ(out, "updated!!-" + std::to_string(k));
  }
  for (Key k = 11; k <= 14; ++k) {
    ASSERT_TRUE(store.Read(k, &out).ok()) << k;
    EXPECT_EQ(out, "base-" + std::to_string(k));
  }
  EXPECT_TRUE(store.Read(15, &out).IsNotFound());  // tombstone replayed
  for (Key k = 21; k <= 40; ++k) {
    ASSERT_TRUE(store.Read(k, &out).ok()) << k;
    EXPECT_EQ(out, "tail-" + std::to_string(k));
  }
}

// The sync-mode contract, for contrast: without kGroup the checkpoint is
// the only durability marker, so flushed-but-unmarked tail records are
// deliberately NOT replayed (classic FASTER semantics, byte-identical
// write path).
TEST(GroupDurabilityTest, SyncModeRecoveryStopsAtCheckpoint) {
  TempDir dir;
  FasterOptions o = GroupStore(dir);
  o.durability = DurabilityMode::kSync;
  const std::string prefix = dir.File("ckpt");
  {
    FasterStore store;
    ASSERT_TRUE(store.Open(o).ok());
    for (Key k = 1; k <= 10; ++k) {
      ASSERT_TRUE(UpsertStr(&store, k, "base-" + std::to_string(k)).ok());
    }
    ASSERT_TRUE(store.Checkpoint(prefix).ok());
    for (Key k = 11; k <= 20; ++k) {
      ASSERT_TRUE(UpsertStr(&store, k, "tail-" + std::to_string(k)).ok());
    }
    ASSERT_TRUE(store.mutable_log()->FlushAll().ok());  // on media, unmarked
  }
  FasterStore store;
  ASSERT_TRUE(store.Recover(o, prefix).ok());
  std::string out;
  for (Key k = 1; k <= 10; ++k) {
    ASSERT_TRUE(store.Read(k, &out).ok()) << k;
  }
  for (Key k = 11; k <= 20; ++k) {
    EXPECT_TRUE(store.Read(k, &out).IsNotFound()) << k;
  }
}

// A crash that tears the last record mid-header: the tail scan must stop
// at the tear, recovery must truncate the torn bytes off the file, and
// every group-committed record before the tear must survive.
TEST(GroupDurabilityTest, TornTailIsTruncatedOnRecovery) {
  TempDir dir;
  const FasterOptions o = GroupStore(dir);
  const std::string prefix = dir.File("ckpt");
  Address tear = 0;
  {
    FasterStore store;
    ASSERT_TRUE(store.Open(o).ok());
    for (Key k = 1; k <= 12; ++k) {
      ASSERT_TRUE(UpsertStr(&store, k, "base-" + std::to_string(k)).ok());
    }
    ASSERT_TRUE(store.Checkpoint(prefix).ok());
    for (Key k = 13; k <= 24; ++k) {
      ASSERT_TRUE(UpsertStr(&store, k, "post-" + std::to_string(k)).ok());
    }
    tear = store.mutable_log()->tail();
    ASSERT_TRUE(UpsertStr(&store, 99, "torn-victim-value").ok());
    ASSERT_TRUE(store.Persist().ok());
  }
  // Only the first 8 bytes of the victim's header reached media.
  std::filesystem::resize_file(o.path, tear + 8);

  FasterStore store;
  ASSERT_TRUE(store.Recover(o, prefix).ok());
  std::string out;
  for (Key k = 13; k <= 24; ++k) {
    ASSERT_TRUE(store.Read(k, &out).ok()) << k;
    EXPECT_EQ(out, "post-" + std::to_string(k));
  }
  EXPECT_TRUE(store.Read(99, &out).IsNotFound());
  // The torn bytes are gone from disk — stale fragments can never
  // resurface as valid records in a later scan.
  EXPECT_LE(std::filesystem::file_size(o.path), tear);
  // And the recovered store keeps working past the truncation point.
  ASSERT_TRUE(UpsertStr(&store, 100, "after-recovery").ok());
  ASSERT_TRUE(store.Persist().ok());
  ASSERT_TRUE(store.Read(100, &out).ok());
  EXPECT_EQ(out, "after-recovery");
}

// Base + delta replay ordering: three incremental checkpoints under one
// prefix (base, d1, d2) with overlapping key updates; recovery must apply
// the chain in order so the newest generation wins everywhere.
TEST(IncrementalCheckpointTest, BaseAndDeltasReplayInOrder) {
  TempDir dir;
  FasterOptions o = GroupStore(dir);
  o.durability = DurabilityMode::kSync;  // isolate from tail replay
  o.checkpoint_mode = CheckpointMode::kIncremental;
  const std::string prefix = dir.File("inc");
  {
    FasterStore store;
    ASSERT_TRUE(store.Open(o).ok());
    for (Key k = 1; k <= 30; ++k) {
      ASSERT_TRUE(UpsertStr(&store, k, "gen0-" + std::to_string(k)).ok());
    }
    ASSERT_TRUE(store.Checkpoint(prefix).ok());  // base
    for (Key k = 1; k <= 10; ++k) {
      ASSERT_TRUE(UpsertStr(&store, k, "gen1!!-" + std::to_string(k)).ok());
    }
    for (Key k = 31; k <= 40; ++k) {
      ASSERT_TRUE(UpsertStr(&store, k, "gen1-" + std::to_string(k)).ok());
    }
    ASSERT_TRUE(store.Checkpoint(prefix).ok());  // delta 1
    for (Key k = 1; k <= 5; ++k) {
      ASSERT_TRUE(
          UpsertStr(&store, k, "gen2####-" + std::to_string(k)).ok());
    }
    ASSERT_TRUE(store.Delete(10).ok());
    ASSERT_TRUE(store.Checkpoint(prefix).ok());  // delta 2
  }
  ASSERT_TRUE(std::filesystem::exists(prefix + ".idx3"));
  ASSERT_TRUE(std::filesystem::exists(prefix + ".idx3.d1"));
  ASSERT_TRUE(std::filesystem::exists(prefix + ".idx3.d2"));
  // A delta names only the slots whose chain head moved — a small
  // fraction of the full index dump.
  EXPECT_LT(std::filesystem::file_size(prefix + ".idx3.d1"),
            std::filesystem::file_size(prefix + ".idx3") / 4);

  FasterStore store;
  ASSERT_TRUE(store.Recover(o, prefix).ok());
  std::string out;
  for (Key k = 1; k <= 5; ++k) {
    ASSERT_TRUE(store.Read(k, &out).ok()) << k;
    EXPECT_EQ(out, "gen2####-" + std::to_string(k));
  }
  for (Key k = 6; k <= 9; ++k) {
    ASSERT_TRUE(store.Read(k, &out).ok()) << k;
    EXPECT_EQ(out, "gen1!!-" + std::to_string(k));
  }
  EXPECT_TRUE(store.Read(10, &out).IsNotFound());
  for (Key k = 11; k <= 30; ++k) {
    ASSERT_TRUE(store.Read(k, &out).ok()) << k;
    EXPECT_EQ(out, "gen0-" + std::to_string(k));
  }
  for (Key k = 31; k <= 40; ++k) {
    ASSERT_TRUE(store.Read(k, &out).ok()) << k;
    EXPECT_EQ(out, "gen1-" + std::to_string(k));
  }
}

// ------------------------------------------------ hand-written logs --
//
// HandLog writes log records by hand, exactly as the store lays them out,
// so a test can pin a publish order or an on-disk format that a live store
// would only produce under a particular interleaving (or no longer
// produces at all).

void WriteWords(const std::string& path, const std::vector<uint64_t>& w) {
  FileDevice dev;
  ASSERT_TRUE(dev.Open(path).ok());
  ASSERT_TRUE(dev.WriteAt(0, w.data(), w.size() * sizeof(uint64_t)).ok());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

class HandLog {
 public:
  explicit HandLog(const FasterOptions& o) : page_size_(o.page_size) {
    EXPECT_TRUE(log_.Open(o.path).ok());
  }

  // Appends a valid record linked on top of `prev`; returns its address.
  Address Append(Key key, const std::string& value, Address prev,
                 uint32_t flags = 0) {
    const uint32_t size = Record::SizeFor(static_cast<uint32_t>(value.size()));
    const uint64_t page_end = (tail_ / page_size_ + 1) * page_size_;
    if (tail_ + size > page_end) tail_ = page_end;  // zero gap, as a roll
    std::vector<char> rec(size, 0);
    const uint64_t control = ControlWord::Make(++generation_, 0);
    const uint32_t value_size = static_cast<uint32_t>(value.size());
    flags |= kRecordValid;
    std::memcpy(rec.data() + 0, &control, 8);
    std::memcpy(rec.data() + 8, &prev, 8);
    std::memcpy(rec.data() + 16, &key, 8);
    std::memcpy(rec.data() + 24, &value_size, 4);
    std::memcpy(rec.data() + 28, &flags, 4);
    std::memcpy(rec.data() + sizeof(Record), value.data(), value.size());
    EXPECT_TRUE(log_.WriteAt(tail_, rec.data(), rec.size()).ok());
    const Address at = tail_;
    tail_ += size;
    return at;
  }
  void Sync() { EXPECT_TRUE(log_.Sync().ok()); }

  // Writes a meta block; delta_count < 0 writes the v1 block, which has no
  // delta_count field.
  void WriteMeta(const std::string& prefix, uint64_t magic, uint64_t slots,
                 uint64_t inserts, int64_t delta_count) {
    std::vector<uint64_t> meta{magic,     tail_,      slots, inserts,
                               kLogBegin, page_size_};
    if (delta_count >= 0) meta.push_back(static_cast<uint64_t>(delta_count));
    WriteWords(prefix + ".meta", meta);
  }

  static constexpr Address kLogBegin = 64;

 private:
  const uint64_t page_size_;
  FileDevice log_;
  Address tail_ = kLogBegin;
  uint32_t generation_ = 0;
};

// In a full bucket, a missing tag's chain must not depend on the order in
// which the other tags claimed their entries: group-commit recovery
// re-claims them in address order, which can differ from the order the
// original CASes won. The log below is one such run. Eight keys with
// distinct tags fill bucket 0; the last two were allocated A then B, but
// B's claim won first. Then 32 keys with further tags publish onto the
// full bucket's chains, and A and B update. Every record lies past an
// empty v3 checkpoint, so recovery has to replay all of it.
TEST(GroupDurabilityTest, ReplayKeepsFullBucketRoutesWhenClaimsReorder) {
  TempDir dir;
  FasterOptions o = GroupStore(dir);
  o.index_slots = 16;  // two buckets
  const std::string prefix = dir.File("ckpt");
  auto bucket = [](Key k) { return Hash64(k) & 1; };
  auto tag = [](Key k) { return (Hash64(k) >> 32) & 0x7FFF; };
  std::vector<Key> keys;
  std::set<uint64_t> tags;
  for (Key k = 0; keys.size() < 8 + 32; ++k) {
    if (bucket(k) == 0 && tags.insert(tag(k)).second) keys.push_back(k);
  }
  std::map<Key, std::string> model;
  {
    HandLog log(o);
    HashIndex live(o.index_slots);  // the original run's index
    std::vector<Address> claim(8);
    for (size_t i = 0; i < 8; ++i) {
      model[keys[i]] = "claim-" + std::to_string(i);
      claim[i] = log.Append(keys[i], model[keys[i]], kInvalidAddress);
    }
    for (const size_t i : {0, 1, 2, 3, 4, 5, 7, 6}) {  // B (7) beats A (6)
      Address e = kInvalidAddress;
      ASSERT_TRUE(live.CompareExchange(keys[i], e, claim[i]));
    }
    auto publish = [&](Key k, const std::string& value) {
      Address head = live.Load(k);
      const Address at = log.Append(k, value, head);
      ASSERT_TRUE(live.CompareExchange(k, head, at)) << "key " << k;
      model[k] = value;
    };
    for (size_t i = 8; i < keys.size(); ++i) {
      publish(keys[i], "routed-" + std::to_string(i));
    }
    publish(keys[6], "A-again");
    publish(keys[7], "B-again");
    log.Sync();
    // An empty v3 checkpoint: no claimed entries, tail at the log's start.
    WriteWords(prefix + ".meta",
               {0x4D4C4B563543484Bull, HandLog::kLogBegin, o.index_slots, 0,
                HandLog::kLogBegin, o.page_size, /*delta_count=*/0});
    WriteWords(prefix + ".idx3", std::vector<uint64_t>(o.index_slots, 0));
  }
  FasterStore store;
  ASSERT_TRUE(store.Recover(o, prefix).ok());
  std::string out;
  for (const auto& [k, v] : model) {
    ASSERT_TRUE(store.Read(k, &out).ok()) << "key " << k;
    EXPECT_EQ(out, v) << "key " << k;
  }
}

// ------------------------------------------------ legacy checkpoints --
//
// Checkpoints from before tagged index entries store one untagged chain
// head per slot (hash & (slots - 1)) under meta v1 ("MLKV3CHK", full) or
// v2 ("MLKV4CHK", incremental, with delta files). LegacyLog writes one by
// hand, exactly as the untagged store laid it out: records linked per
// slot through prev, the slot array, optional deltas, and the meta block.
class LegacyLog {
 public:
  LegacyLog(const FasterOptions& o, uint64_t slots)
      : log_(o), heads_(slots, kInvalidAddress) {}

  void Put(Key key, const std::string& value, uint32_t flags = 0) {
    Address& head = heads_[Hash64(key) & (heads_.size() - 1)];
    head = log_.Append(key, value, head, flags);
  }
  void Delete(Key key) { Put(key, "", kRecordTombstone); }

  // Writes the slot array as <prefix>.idx plus a v1 meta block.
  void CommitV1(const std::string& prefix, uint64_t inserts) {
    WriteWords(prefix + ".idx", heads_);
    base_ = heads_;
    log_.WriteMeta(prefix, 0x4D4C4B563343484Bull, heads_.size(), inserts,
                   /*delta_count=*/-1);
  }
  // Starts a v2 chain: the base slot array, zero deltas.
  void CommitV2Base(const std::string& prefix, uint64_t inserts) {
    WriteWords(prefix + ".idx", heads_);
    base_ = heads_;
    log_.WriteMeta(prefix, 0x4D4C4B563443484Bull, heads_.size(), inserts, 0);
  }
  // Appends <prefix>.idx.d1: (slot, head) pairs for slots that moved.
  void CommitV2Delta(const std::string& prefix, uint64_t inserts) {
    std::vector<uint64_t> words{0};
    for (uint64_t s = 0; s < heads_.size(); ++s) {
      if (heads_[s] == base_[s]) continue;
      words.push_back(s);
      words.push_back(heads_[s]);
    }
    words[0] = (words.size() - 1) / 2;
    WriteWords(prefix + ".idx.d1", words);
    log_.WriteMeta(prefix, 0x4D4C4B563443484Bull, heads_.size(), inserts, 1);
  }
  void Sync() { log_.Sync(); }

 private:
  HandLog log_;
  std::vector<Address> heads_, base_;
};

// Legacy v1 (full) and v2 (base + delta) checkpoints recover with every key
// readable, and the group-committed tail past a v2 checkpoint replays
// against the legacy heads. 400 keys over 64 slots put several keys on
// every legacy chain, so each new bucket merges eight chains and most of
// its tags overflow: the rebuild has to copy keys between chains.
TEST(LegacyCheckpointTest, V1AndV2CheckpointsRecoverEveryKey) {
  for (const bool v2 : {false, true}) {
    SCOPED_TRACE(v2 ? "v2" : "v1");
    TempDir dir;
    FasterOptions o = GroupStore(dir);
    o.index_slots = 64;
    o.durability = v2 ? DurabilityMode::kGroup : DurabilityMode::kSync;
    const std::string prefix = dir.File("legacy");
    std::map<Key, std::string> model;
    {
      LegacyLog log(o, 64);
      for (Key k = 0; k < 400; ++k) {
        log.Put(k, "v0-" + std::to_string(k));
        model[k] = "v0-" + std::to_string(k);
      }
      for (Key k = 0; k < 400; k += 7) {
        log.Delete(k);
        model.erase(k);
      }
      if (v2) {
        log.CommitV2Base(prefix, 400);
        for (Key k = 1; k < 400; k += 3) {
          log.Put(k, "v1-" + std::to_string(k));
          model[k] = "v1-" + std::to_string(k);
        }
        log.CommitV2Delta(prefix, 400);
        // Group-committed past the checkpoint: published against the
        // legacy heads, so replay has to use them.
        for (Key k = 2; k < 450; k += 5) {
          log.Put(k, "tail-" + std::to_string(k));
          model[k] = "tail-" + std::to_string(k);
        }
      } else {
        log.CommitV1(prefix, 400);
      }
      log.Sync();
    }
    auto check = [&](FasterStore* store) {
      std::string out;
      std::vector<Key> keys{1000};
      for (Key k = 0; k < 450; ++k) keys.push_back(k);
      for (const Key k : keys) {
        const auto it = model.find(k);
        const Status s = store->Read(k, &out);
        if (it == model.end()) {
          EXPECT_TRUE(s.IsNotFound()) << "key " << k;
        } else {
          ASSERT_TRUE(s.ok()) << "key " << k << ": " << s.ToString();
          EXPECT_EQ(out, it->second) << "key " << k;
        }
      }
    };
    {
      FasterStore store;
      ASSERT_TRUE(store.Recover(o, prefix).ok());
      EXPECT_EQ(store.index_slots(), 64u);
      check(&store);
      // The recovered store takes writes against the tagged entries.
      ASSERT_TRUE(UpsertStr(&store, 1000, "fresh").ok());
      model[1000] = "fresh";
      ASSERT_TRUE(UpsertStr(&store, 1, "again-1").ok());
      model[1] = "again-1";
      ASSERT_TRUE(store.Persist().ok());
      check(&store);
    }
    // Recovery rewrote the checkpoint as v3: a second recovery starts from
    // the tagged entries (and, in group mode, replays the writes above).
    if (!v2) {
      model.erase(1000);
      model[1] = "v0-1";
    }
    FasterStore again;
    ASSERT_TRUE(again.Recover(o, prefix).ok());
    check(&again);
  }
}

// Upgrading a legacy checkpoint writes only v3 files beside the legacy ones
// and commits by renaming the v3 meta into place. A crash after the index
// write but before that rename leaves the legacy meta naming its own,
// untouched files: recovery upgrades again and reads every key. Both
// checkpoint modes commit the upgrade the same way.
TEST(LegacyCheckpointTest, UpgradeCrashBeforeMetaCommitRecoversFromLegacy) {
  for (const CheckpointMode mode :
       {CheckpointMode::kFull, CheckpointMode::kIncremental}) {
    SCOPED_TRACE(mode == CheckpointMode::kFull ? "full" : "incremental");
    TempDir dir;
    FasterOptions o = GroupStore(dir);
    o.index_slots = 64;
    o.checkpoint_mode = mode;
    const std::string prefix = dir.File("legacy");
    std::map<Key, std::string> model;
    {
      LegacyLog log(o, 64);
      auto put = [&](Key k, const std::string& v) {
        log.Put(k, v);
        model[k] = v;
      };
      for (Key k = 0; k < 300; ++k) put(k, "v0-" + std::to_string(k));
      log.CommitV2Base(prefix, 300);
      for (Key k = 1; k < 300; k += 4) put(k, "v1-" + std::to_string(k));
      log.CommitV2Delta(prefix, 300);
      for (Key k = 3; k < 320; k += 9) put(k, "tail-" + std::to_string(k));
      log.Sync();
    }
    auto check = [&](FasterStore* store) {
      std::string out;
      for (Key k = 0; k < 330; ++k) {
        const auto it = model.find(k);
        const Status s = store->Read(k, &out);
        if (it == model.end()) {
          EXPECT_TRUE(s.IsNotFound()) << "key " << k;
        } else {
          ASSERT_TRUE(s.ok()) << "key " << k << ": " << s.ToString();
          EXPECT_EQ(out, it->second) << "key " << k;
        }
      }
    };
    const std::string legacy_meta = ReadFile(prefix + ".meta");
    const std::string legacy_idx = ReadFile(prefix + ".idx");
    const std::string legacy_delta = ReadFile(prefix + ".idx.d1");
    {
      FasterStore store;
      ASSERT_TRUE(store.Recover(o, prefix).ok());
      check(&store);
    }
    // The upgrade committed a v3 meta and left the legacy files as they
    // were.
    EXPECT_NE(ReadFile(prefix + ".meta"), legacy_meta);
    EXPECT_TRUE(std::filesystem::exists(prefix + ".idx3"));
    EXPECT_EQ(ReadFile(prefix + ".idx"), legacy_idx);
    EXPECT_EQ(ReadFile(prefix + ".idx.d1"), legacy_delta);
    // Roll back to just before the commit: the log flush and the v3 index
    // are on disk, the new meta only as the not-yet-renamed temp file.
    std::filesystem::rename(prefix + ".meta", prefix + ".meta.tmp");
    {
      std::ofstream out(prefix + ".meta", std::ios::binary | std::ios::trunc);
      out << legacy_meta;
    }
    {
      FasterStore store;
      ASSERT_TRUE(store.Recover(o, prefix).ok());
      check(&store);
    }
    FasterStore again;  // from the v3 checkpoint the second upgrade wrote
    ASSERT_TRUE(again.Recover(o, prefix).ok());
    check(&again);
  }
}

// An fsync that reports failure must surface as the checkpoint's status —
// and must not leave a checkpoint marker behind.
TEST(FsyncFaultTest, CheckpointSurfacesInjectedFsyncFailure) {
  TempDir dir;
  auto script = std::make_shared<FaultyFileDevice::Script>();
  FasterOptions o = GroupStore(dir);
  o.durability = DurabilityMode::kSync;
  o.device_factory = [script] {
    return std::make_unique<FaultyFileDevice>(script);
  };
  FasterStore store;
  ASSERT_TRUE(store.Open(o).ok());
  for (Key k = 1; k <= 8; ++k) {
    ASSERT_TRUE(UpsertStr(&store, k, "v-" + std::to_string(k)).ok());
  }
  ASSERT_TRUE(store.Checkpoint(dir.File("good")).ok());

  script->sync_fail_from.store(script->syncs.load() + 1);
  script->sync_fail_count.store(1);
  const Status s = store.Checkpoint(dir.File("bad"));
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_FALSE(std::filesystem::exists(dir.File("bad") + ".meta"));
  // The device recovered (window of one), so the next checkpoint works.
  ASSERT_TRUE(store.Checkpoint(dir.File("good2")).ok());
}

// The GroupCommitter's error model: a failed fsync is sticky. Even after
// the device "heals", later Persist calls keep failing — after an fsync
// error the kernel may have dropped dirty pages, so durability can never
// again be proven on this device.
TEST(FsyncFaultTest, GroupPersistFailureIsSticky) {
  TempDir dir;
  auto script = std::make_shared<FaultyFileDevice::Script>();
  FasterOptions o = GroupStore(dir);
  o.device_factory = [script] {
    return std::make_unique<FaultyFileDevice>(script);
  };
  FasterStore store;
  ASSERT_TRUE(store.Open(o).ok());
  ASSERT_TRUE(UpsertStr(&store, 1, "hello").ok());

  script->sync_fail_from.store(1);
  script->sync_fail_count.store(UINT64_MAX);  // every sync from now on
  EXPECT_FALSE(store.Persist().ok());
  script->sync_fail_from.store(0);  // disarm: device is "healthy" again
  ASSERT_TRUE(UpsertStr(&store, 2, "world").ok());
  EXPECT_FALSE(store.Persist().ok());  // sticky: the loss already happened
}

// --------------------------------------------------- tailable update log --

// The cursor yields exactly the committed prefix: entries appear in log
// order, never above the durable watermark, and the stream resumes after
// each later durability point.
TEST(UpdateLogTest, CursorYieldsCommittedUpdatesInOrder) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(GroupStore(dir)).ok());
  const Key keys[] = {11, 22, 33};
  for (const Key k : keys) {
    ASSERT_TRUE(UpsertStr(&store, k, "v-" + std::to_string(k)).ok());
  }

  UpdateLogCursor cur(&store, 0);
  UpdateEntry e;
  EXPECT_FALSE(cur.Next(&e));  // nothing durable yet
  EXPECT_TRUE(cur.status().ok());

  ASSERT_TRUE(store.Persist().ok());
  for (const Key k : keys) {
    ASSERT_TRUE(cur.Next(&e));
    EXPECT_EQ(e.key, k);
    EXPECT_FALSE(e.tombstone);
    const std::string want = "v-" + std::to_string(k);
    EXPECT_EQ(std::string(e.value.begin(), e.value.end()), want);
  }
  EXPECT_FALSE(cur.Next(&e));  // caught up
  EXPECT_TRUE(cur.status().ok());

  ASSERT_TRUE(UpsertStr(&store, 44, "late").ok());
  EXPECT_FALSE(cur.Next(&e));  // still above the watermark
  ASSERT_TRUE(store.Persist().ok());
  ASSERT_TRUE(cur.Next(&e));
  EXPECT_EQ(e.key, 44u);
  EXPECT_FALSE(cur.Next(&e));
}

// position() is a durable resume token: a fresh cursor started there
// continues the stream with no gaps or repeats.
TEST(UpdateLogTest, CursorResumesFromPosition) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(GroupStore(dir)).ok());
  for (Key k = 1; k <= 5; ++k) {
    ASSERT_TRUE(UpsertStr(&store, k, "v-" + std::to_string(k)).ok());
  }
  ASSERT_TRUE(store.Persist().ok());

  UpdateLogCursor a(&store, 0);
  UpdateEntry e;
  ASSERT_TRUE(a.Next(&e));
  ASSERT_TRUE(a.Next(&e));
  const Address resume = a.position();

  UpdateLogCursor b(&store, resume);
  for (Key k = 3; k <= 5; ++k) {
    ASSERT_TRUE(b.Next(&e));
    EXPECT_EQ(e.key, k);
  }
  EXPECT_FALSE(b.Next(&e));
  EXPECT_TRUE(b.status().ok());
}

// Deletes appear in the feed as tombstone entries with an empty value.
TEST(UpdateLogTest, TombstonesAppearWithEmptyValue) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(GroupStore(dir)).ok());
  ASSERT_TRUE(UpsertStr(&store, 7, "hello").ok());
  ASSERT_TRUE(store.Delete(7).ok());
  ASSERT_TRUE(store.Persist().ok());

  UpdateLogCursor cur(&store, 0);
  UpdateEntry e;
  ASSERT_TRUE(cur.Next(&e));
  EXPECT_EQ(e.key, 7u);
  EXPECT_FALSE(e.tombstone);
  ASSERT_TRUE(cur.Next(&e));
  EXPECT_EQ(e.key, 7u);
  EXPECT_TRUE(e.tombstone);
  EXPECT_TRUE(e.value.empty());
  EXPECT_FALSE(cur.Next(&e));
}

// A cursor that lags behind compaction gets Corruption, not silent
// garbage: its position names log addresses that no longer exist.
TEST(UpdateLogTest, CompactedAwayPositionReportsCorruption) {
  TempDir dir;
  FasterOptions o = GroupStore(dir);
  o.durability = DurabilityMode::kSync;
  o.mem_size = 8 * 4096;
  FasterStore store;
  ASSERT_TRUE(store.Open(o).ok());
  // Alternate value sizes so every overwrite is an RCU append (garbage
  // below), until the read-only boundary has moved off the log start.
  for (int round = 0; round < 200; ++round) {
    const std::string v(round % 2 == 0 ? 40 : 72, 'x');
    for (Key k = 0; k < 64; ++k) {
      ASSERT_TRUE(UpsertStr(&store, k, v).ok());
    }
    if (store.log().read_only_address() > HybridLog::kLogBegin) break;
  }
  ASSERT_GT(store.log().read_only_address(), HybridLog::kLogBegin);
  CompactionResult cr;
  ASSERT_TRUE(store.Compact(store.log().read_only_address(), &cr).ok());
  ASSERT_GT(store.log().begin_address(), HybridLog::kLogBegin);

  UpdateLogCursor cur(&store, HybridLog::kLogBegin);
  UpdateEntry e;
  EXPECT_FALSE(cur.Next(&e));
  EXPECT_TRUE(cur.status().IsCorruption());
}

}  // namespace
}  // namespace mlkv
