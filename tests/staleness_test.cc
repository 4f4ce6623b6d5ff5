// Tests for MLKV's bounded staleness consistency protocol (paper §III-C1):
// Get increments the record's staleness counter and waits while it exceeds
// the bound; Put decrements it and never waits; bound 0 = BSP, huge = ASP.
// The contract matrix checks it for cold records (read-only memory and
// disk), whose reads count through a tail copy, on both read paths.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "io/async_io.h"
#include "io/temp_dir.h"
#include "kv/faster_store.h"
#include "kv/pending_read.h"
#include "mlkv/mlkv.h"
#include "store_metrics.h"
#include "store_promote.h"

namespace mlkv {
namespace {

FasterOptions TrackedStore(const TempDir& dir, uint32_t bound,
                           uint64_t spin_limit = 1ull << 14) {
  FasterOptions o;
  o.path = dir.File("tracked.log");
  o.index_slots = 1024;
  o.page_size = 4096;
  o.mem_size = 8 * 4096;
  o.track_staleness = true;
  o.staleness_bound = bound;
  o.busy_spin_limit = spin_limit;
  return o;
}

TEST(StalenessTest, GetIncrementsPutDecrements) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(TrackedStore(dir, /*bound=*/10)).ok());
  double v = 1.5;
  ASSERT_TRUE(store.Upsert(1, &v, sizeof(v)).ok());
  double out;
  // Three reads, no writes: staleness climbs to 3 (still below bound 10).
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store.Read(1, &out, sizeof(out)).ok());
    EXPECT_EQ(out, 1.5);
  }
  // A fourth read with per-op bound 2 must hit the wall and return Busy
  // after the spin limit (no writer will ever come).
  EXPECT_TRUE(store.Read(1, &out, sizeof(out), nullptr, /*bound=*/2).IsBusy());
  // One Put drops staleness to 2: the same bounded read now succeeds.
  v = 2.5;
  ASSERT_TRUE(store.Upsert(1, &v, sizeof(v)).ok());
  EXPECT_TRUE(store.Read(1, &out, sizeof(out), nullptr, /*bound=*/3).ok());
  EXPECT_EQ(out, 2.5);
}

TEST(StalenessTest, BspBoundZeroSerializesReadersBehindWriter) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(TrackedStore(dir, /*bound=*/0, 1ull << 26)).ok());
  double v = 0.0;
  ASSERT_TRUE(store.Upsert(1, &v, sizeof(v)).ok());

  // Reader 1 succeeds (staleness 0 <= 0) and bumps staleness to 1.
  double out;
  ASSERT_TRUE(store.Read(1, &out, sizeof(out)).ok());

  // Reader 2 must block until the writer's Put lands.
  std::atomic<bool> reader_done{false};
  std::thread reader([&] {
    double r;
    ASSERT_TRUE(store.Read(1, &r, sizeof(r)).ok());
    EXPECT_EQ(r, 7.0);  // must observe the post-Put value
    reader_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(reader_done.load()) << "BSP read must wait for the update";
  v = 7.0;
  ASSERT_TRUE(store.Upsert(1, &v, sizeof(v)).ok());
  reader.join();
  EXPECT_TRUE(reader_done.load());
  EXPECT_GT(StoreMetric(store, "mlkv_store_staleness_waits_total"), 0u);
}

TEST(StalenessTest, AspNeverWaits) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(TrackedStore(dir, UINT32_MAX - 1)).ok());
  double v = 1.0;
  ASSERT_TRUE(store.Upsert(1, &v, sizeof(v)).ok());
  double out;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(store.Read(1, &out, sizeof(out)).ok());
  }
  EXPECT_EQ(StoreMetric(store, "mlkv_store_staleness_waits_total"), 0u);
  EXPECT_EQ(StoreMetric(store, "mlkv_store_busy_aborts_total"), 0u);
}

TEST(StalenessTest, PutNeverWaitsEvenAtBound) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(TrackedStore(dir, /*bound=*/1)).ok());
  double v = 0.0;
  ASSERT_TRUE(store.Upsert(1, &v, sizeof(v)).ok());
  double out;
  ASSERT_TRUE(store.Read(1, &out, sizeof(out)).ok());  // staleness -> 1
  // Puts proceed regardless of the staleness level (§III-C1: "a Put
  // operation can skip this step because it only reduces the staleness").
  for (int i = 0; i < 100; ++i) {
    v = i;
    ASSERT_TRUE(store.Upsert(1, &v, sizeof(v)).ok());
  }
  EXPECT_EQ(StoreMetric(store, "mlkv_store_staleness_waits_total"), 0u);
}

TEST(StalenessTest, StalenessSaturatesAtZero) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(TrackedStore(dir, /*bound=*/0)).ok());
  double v = 0.0;
  ASSERT_TRUE(store.Upsert(1, &v, sizeof(v)).ok());
  // Many Puts with no Gets: staleness must not underflow (wrap to huge).
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store.Upsert(1, &v, sizeof(v)).ok());
  }
  double out;
  // If staleness wrapped, this bound-0 read would block forever.
  EXPECT_TRUE(store.Read(1, &out, sizeof(out)).ok());
}

TEST(StalenessTest, BoundSurvivesRcuToNewVersion) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(TrackedStore(dir, /*bound=*/4)).ok());
  std::vector<char> small(16, 'a'), big(32, 'b');
  ASSERT_TRUE(store.Upsert(1, small.data(), 16).ok());
  char out[32];
  // Two reads: staleness 2.
  ASSERT_TRUE(store.Read(1, out, 16).ok());
  ASSERT_TRUE(store.Read(1, out, 16).ok());
  // Size-changing Put forces RCU; new version must carry staleness 2-1=1.
  ASSERT_TRUE(store.Upsert(1, big.data(), 32).ok());
  // Bound-1 read succeeds only if staleness carried over as 1.
  ASSERT_TRUE(store.Read(1, out, 32, nullptr, /*bound=*/1).ok());
  // That read pushed staleness to 2; a bound-1 read now fails.
  EXPECT_TRUE(store.Read(1, out, 32, nullptr, /*bound=*/1).IsBusy());
}

TEST(StalenessTest, PromotionPreservesStaleness) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(TrackedStore(dir, /*bound=*/8)).ok());
  std::vector<char> value(16, 'v');
  ASSERT_TRUE(store.Upsert(1, value.data(), 16).ok());
  char out[16];
  // Staleness 3.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(store.Read(1, out, 16).ok());
  // Evict key 1 by writing many other records.
  std::vector<char> filler(128, 'f');
  for (Key k = 100; k < 800; ++k) {
    ASSERT_TRUE(store.Upsert(k, filler.data(), 128).ok());
  }
  ASSERT_FALSE(store.IsInMemory(1));
  // Promote back to the mutable region "with the original staleness".
  ASSERT_TRUE(Promote(&store, 1).ok());
  ASSERT_TRUE(store.IsInMemory(1));
  // A bound-2 read must fail (staleness is still 3)...
  EXPECT_TRUE(store.Read(1, out, 16, nullptr, /*bound=*/2).IsBusy());
  // ...and a bound-3 read succeeds.
  EXPECT_TRUE(store.Read(1, out, 16, nullptr, /*bound=*/3).ok());
}

TEST(StalenessTest, GenerationAdvancesOnPuts) {
  TempDir dir;
  FasterStore store;
  ASSERT_TRUE(store.Open(TrackedStore(dir, /*bound=*/100)).ok());
  double v = 0;
  ASSERT_TRUE(store.Upsert(1, &v, sizeof(v)).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.Upsert(1, &v, sizeof(v)).ok());
  }
  // Interleaved reads still see consistent values; generation is internal,
  // but 5 in-place updates must be recorded.
  EXPECT_EQ(StoreMetric(store, "mlkv_store_inplace_updates_total"), 5u);
}

TEST(StalenessTest, ConcurrentPipelineRespectsBound) {
  // Emulates an async training pipeline: a reader thread Gets key k and a
  // writer thread Puts it back. Get admits a read while the record's
  // staleness is at most the bound and then increments it, so the counter
  // itself never exceeds bound + 1. Both threads check that on the record's
  // control word after every operation.
  TempDir dir;
  constexpr uint32_t kBound = 4;
  FasterStore store;
  ASSERT_TRUE(store.Open(TrackedStore(dir, kBound, 1ull << 30)).ok());
  double v = 0.0;
  ASSERT_TRUE(store.Upsert(1, &v, sizeof(v)).ok());

  constexpr int kOps = 3000;
  std::atomic<int> gets_done{0}, puts_done{0};
  std::atomic<uint32_t> max_staleness{0};
  const auto observe = [&] {
    RecordMeta meta;
    ASSERT_TRUE(store.PeekMeta(1, &meta).ok());
    const uint32_t s = ControlWord::Staleness(meta.control);
    uint32_t prev = max_staleness.load();
    while (s > prev && !max_staleness.compare_exchange_weak(prev, s)) {
    }
  };
  std::thread reader([&] {
    double out;
    for (int i = 0; i < kOps; ++i) {
      ASSERT_TRUE(store.Read(1, &out, sizeof(out)).ok());
      gets_done.fetch_add(1, std::memory_order_release);
      observe();
    }
  });
  std::thread writer([&] {
    double val = 1.0;
    for (int i = 0; i < kOps; ++i) {
      // A training pipeline issues one Put per completed Get; pace the
      // writer behind the reader so decrements never saturate at zero and
      // strand the reader against the bound.
      while (puts_done.load(std::memory_order_acquire) >=
             gets_done.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      if (i % 64 == 0) std::this_thread::yield();
      ASSERT_TRUE(store.Upsert(1, &val, sizeof(val)).ok());
      puts_done.fetch_add(1, std::memory_order_release);
      observe();
    }
  });
  reader.join();
  writer.join();
  EXPECT_LE(max_staleness.load(), kBound + 1);
  // One Put per Get: the counter is back where it started.
  RecordMeta meta;
  ASSERT_TRUE(store.PeekMeta(1, &meta).ok());
  EXPECT_EQ(ControlWord::Staleness(meta.control), 0u);
}

TEST(StalenessTest, UntrackedModeHasNoStalenessEffects) {
  TempDir dir;
  FasterOptions o = TrackedStore(dir, 0);
  o.track_staleness = false;  // plain FASTER
  FasterStore store;
  ASSERT_TRUE(store.Open(o).ok());
  double v = 1.0;
  ASSERT_TRUE(store.Upsert(1, &v, sizeof(v)).ok());
  double out;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.Read(1, &out, sizeof(out)).ok());
  }
  EXPECT_EQ(StoreMetric(store, "mlkv_store_staleness_waits_total"), 0u);
  EXPECT_EQ(StoreMetric(store, "mlkv_store_busy_aborts_total"), 0u);
}

// --- Cold-record contract matrix ------------------------------------------

enum class Residency { kDisk, kReadOnlyMemory };
enum class ReadPath { kBlocking, kPipeline };

constexpr uint32_t kDim = 8;
constexpr uint32_t kRowBytes = kDim * sizeof(float);
constexpr Key kTarget = 7;
constexpr Key kFirstFiller = 1000;

std::vector<float> Row(Key key) {
  std::vector<float> row(kDim);
  for (uint32_t d = 0; d < kDim; ++d) row[d] = static_cast<float>(key + d);
  return row;
}

// One-shard MLKV table over a 64 KiB log buffer, so a few hundred filler
// rows push any record out of the mutable region.
struct ColdTable {
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  EmbeddingTable* table = nullptr;
  FasterStore* shard = nullptr;
  Key next_filler = kFirstFiller;
  Key next_companion = 0;  // set by Bury

  explicit ColdTable(uint32_t bound) {
    MlkvOptions o;
    o.dir = dir.File("db");
    o.store.index_slots = 4096;
    o.store.page_size = 4096;
    o.store.mem_size = 16 * 4096;
    o.shard_bits = 0;
    o.store.busy_spin_limit = 16;  // an over-bound read gives up at once
    EXPECT_TRUE(Mlkv::Open(o, &db).ok());
    EXPECT_TRUE(db->OpenTable("emb", kDim, bound, &table).ok());
    shard = table->store()->shard(0);
  }

  // Where `key`'s newest version sits: 0 mutable, 1 read-only memory,
  // 2 disk.
  int RegionOf(Key key) {
    RecordMeta meta;
    Address a = kInvalidAddress;
    EXPECT_TRUE(shard->PeekMeta(key, &meta, &a).ok());
    if (a >= shard->log().read_only_address()) return 0;
    return a >= shard->log().head_address() ? 1 : 2;
  }

  // Writes filler rows until every key's newest version sits in `where`,
  // then writes `companions` rows that stay mutable (see TrackedRead).
  void Bury(std::initializer_list<Key> keys, Residency where,
            uint32_t companions) {
    const int target = where == Residency::kDisk ? 2 : 1;
    for (const Key key : keys) {
      while (RegionOf(key) < target) {
        const Key filler = next_filler++;
        ASSERT_TRUE(table->Put({&filler, 1}, Row(filler).data()).ok());
      }
    }
    next_companion = next_filler;
    for (uint32_t i = 0; i < companions; ++i) {
      const Key filler = next_filler++;
      ASSERT_TRUE(table->Put({&filler, 1}, Row(filler).data()).ok());
    }
    for (const Key key : keys) ASSERT_EQ(RegionOf(key), target) << key;
  }

  // One tracked read of `key`. The pipeline path batches it with a fresh
  // mutable companion so the read goes through the pending-read wave
  // (single-key batches take the blocking path) without copying anything
  // but `key`.
  Status TrackedRead(Key key, ReadPath path, std::vector<float>* out) {
    out->assign(kDim, 0.0f);
    if (path == ReadPath::kBlocking) {
      return shard->Read(key, out->data(), kRowBytes);
    }
    const Key companion = next_companion++;
    const Key keys[2] = {key, companion};
    std::vector<float> rows(2 * kDim);
    BatchResult r;
    table->Get(keys, rows.data(), &r);
    EXPECT_EQ(r.codes[1], Status::Code::kOk) << "companion " << companion;
    std::memcpy(out->data(), rows.data(), kRowBytes);
    return r.StatusAt(0);
  }
};

class ColdStalenessTest
    : public ::testing::TestWithParam<
          std::tuple<uint32_t, Residency, ReadPath>> {};

TEST_P(ColdStalenessTest, AdmitsBoundPlusOneThenBusy) {
  const auto [bound, where, path] = GetParam();
  ColdTable t(bound);
  // Three keys go cold with counters 0, b and b+1 (Gets taken while they
  // were mutable), so the cold admission check runs inside, exactly at,
  // and just past the bound.
  constexpr Key kFresh = kTarget, kAtBound = kTarget + 1,
                kOverBound = kTarget + 2;
  const auto frozen = [bound = bound](Key k) {
    return k == kFresh ? 0 : k == kAtBound ? bound : bound + 1;
  };
  std::vector<float> out(kDim);
  for (const Key k : {kFresh, kAtBound, kOverBound}) {
    ASSERT_TRUE(t.table->Put({&k, 1}, Row(k).data()).ok());
    for (uint32_t i = 0; i < frozen(k); ++i) {
      ASSERT_TRUE(t.shard->Read(k, out.data(), kRowBytes).ok());
    }
  }
  t.Bury({kFresh, kAtBound, kOverBound}, where,
         /*companions=*/3 * bound + 8);
  const uint64_t submitted_before =
      StoreMetric(*t.shard, "mlkv_io_async_reads_submitted_total");

  // An admitted Get of a cold key counts through its tail copy; later ones
  // count in place on that copy. Bound b admits b+1 outstanding Gets: the
  // rest of the b+1 for each key, then Busy.
  for (const Key k : {kFresh, kAtBound, kOverBound}) {
    const uint32_t admitted = bound + 1 - frozen(k);
    for (uint32_t i = 0; i < admitted; ++i) {
      ASSERT_TRUE(t.TrackedRead(k, path, &out).ok())
          << "key " << k << " read " << i;
      EXPECT_EQ(out, Row(k)) << "key " << k << " read " << i;
    }
    EXPECT_TRUE(t.TrackedRead(k, path, &out).IsBusy()) << "key " << k;

    RecordMeta meta;
    Address a = kInvalidAddress;
    ASSERT_TRUE(t.shard->PeekMeta(k, &meta, &a).ok());
    EXPECT_EQ(ControlWord::Staleness(meta.control), bound + 1) << "key " << k;
    // A refused Get leaves the record where it was; an admitted one left a
    // mutable copy.
    EXPECT_EQ(a >= t.shard->log().read_only_address(), admitted > 0)
        << "key " << k;
  }
  EXPECT_EQ(StoreMetric(*t.shard, "mlkv_store_read_copies_total"), 2u);
  if (where == Residency::kDisk && path == ReadPath::kPipeline) {
    EXPECT_GT(StoreMetric(*t.shard, "mlkv_io_async_reads_submitted_total"),
              submitted_before);
  }

  // A Put releases one slot: exactly one more Get is admitted.
  ASSERT_TRUE(t.table->Put({&kFresh, 1}, Row(kFresh).data()).ok());
  EXPECT_TRUE(t.TrackedRead(kFresh, path, &out).ok());
  EXPECT_TRUE(t.TrackedRead(kFresh, path, &out).IsBusy());
}

std::string MatrixName(
    const ::testing::TestParamInfo<ColdStalenessTest::ParamType>& info) {
  const auto [bound, where, path] = info.param;
  return "Bound" + std::to_string(bound) +
         (where == Residency::kDisk ? "_Disk" : "_ReadOnlyMemory") +
         (path == ReadPath::kBlocking ? "_Blocking" : "_Pipeline");
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ColdStalenessTest,
    ::testing::Combine(::testing::Values(0u, 1u, 4u),
                       ::testing::Values(Residency::kDisk,
                                         Residency::kReadOnlyMemory),
                       ::testing::Values(ReadPath::kBlocking,
                                         ReadPath::kPipeline)),
    MatrixName);

TEST(StalenessTest, ParkedColdReadLosingToAPutCountsOnTheLiveVersion) {
  // A tracked read parks on a disk record; a Put supersedes the record
  // while the fetch is in flight. The read's tail copy loses its publish
  // CAS, so the read falls back and its increment lands on the Put's
  // version, serving the Put's value.
  ColdTable t(/*bound=*/8);
  ASSERT_TRUE(t.table->Put({&kTarget, 1}, Row(kTarget).data()).ok());
  std::vector<float> out(kDim);
  for (int i = 0; i < 2; ++i) {  // counter 2 while mutable
    ASSERT_TRUE(t.shard->Read(kTarget, out.data(), kRowBytes).ok());
  }
  t.Bury({kTarget}, Residency::kDisk, /*companions=*/0);

  std::vector<float> got(kDim, 0.0f);
  PendingRead p;
  ASSERT_FALSE(t.shard->StartRead(kTarget, got.data(), kRowBytes, nullptr,
                                  UINT32_MAX, /*tracked=*/true, &p));
  const std::vector<float> newer = Row(kTarget + 100);
  ASSERT_TRUE(t.shard->Upsert(kTarget, newer.data(), kRowBytes).ok());

  AsyncIoEngine engine;
  PendingSink sink;
  Status status;
  sink.Park(t.shard, std::move(p),
            [&status](PendingRead* done) { status = done->status; });
  PendingReadWave wave(&engine);
  wave.Adopt(&sink);
  wave.CompleteAll();

  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(got, newer);
  RecordMeta meta;
  ASSERT_TRUE(t.shard->PeekMeta(kTarget, &meta).ok());
  // 2 on disk, the Put releases one, the read takes it back.
  EXPECT_EQ(ControlWord::Staleness(meta.control), 2u);
  EXPECT_EQ(StoreMetric(*t.shard, "mlkv_store_read_copies_total"), 0u);
  EXPECT_GE(StoreMetric(*t.shard, "mlkv_io_async_reads_refetched_total"), 1u);
}

}  // namespace
}  // namespace mlkv
