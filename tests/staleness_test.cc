// Tests for MLKV's bounded staleness consistency protocol (paper §III-C1):
// Get increments the record's staleness counter and waits while it exceeds
// the bound; Put decrements it and never waits; bound 0 = BSP, huge = ASP.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "io/temp_dir.h"
#include "kv/faster_store.h"

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
  EXPECT_GT(store.stats().staleness_waits, 0u);
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
  EXPECT_EQ(store.stats().staleness_waits, 0u);
  EXPECT_EQ(store.stats().busy_aborts, 0u);
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
  EXPECT_EQ(store.stats().staleness_waits, 0u);
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
  ASSERT_TRUE(store.Promote(1).ok());
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
  EXPECT_EQ(store.stats().inplace_updates, 5u);
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
  EXPECT_EQ(store.stats().staleness_waits, 0u);
  EXPECT_EQ(store.stats().busy_aborts, 0u);
}

}  // namespace
}  // namespace mlkv
