#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace mlkv {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("key 42");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: key 42");
}

TEST(StatusTest, AllConstructorsMatchPredicates) {
  EXPECT_TRUE(Status::Busy().IsBusy());
  EXPECT_TRUE(Status::IOError().IsIOError());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::Corruption().IsCorruption());
  EXPECT_TRUE(Status::TimedOut().IsTimedOut());
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto f = []() -> Status {
    MLKV_RETURN_NOT_OK(Status::IOError("disk"));
    return Status::OK();
  };
  EXPECT_TRUE(f().IsIOError());
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> good(7);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(*good, 7);
  StatusOr<int> bad(Status::NotFound());
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsNotFound());
}

TEST(SliceTest, CompareAndEquality) {
  EXPECT_EQ(Slice("abc"), Slice("abc"));
  EXPECT_NE(Slice("abc"), Slice("abd"));
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
  EXPECT_GT(Slice("b").compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice().empty());
}

TEST(HashTest, Hash64IsDeterministicAndSpreads) {
  EXPECT_EQ(Hash64(12345), Hash64(12345));
  // Consecutive keys should land in different low-bit buckets most of the
  // time; require at least 900 distinct of 1024 in the low 10 bits domain.
  std::set<uint64_t> buckets;
  for (uint64_t i = 0; i < 4096; ++i) buckets.insert(Hash64(i) & 1023);
  EXPECT_GE(buckets.size(), 900u);
}

TEST(HashTest, HashBytesDiffersByContent) {
  EXPECT_NE(HashBytes("hello", 5), HashBytes("hellp", 5));
  EXPECT_NE(HashBytes("hello", 5), HashBytes("hello", 4));
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(7);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(ZipfianTest, SkewsTowardSmallRanks) {
  ZipfianGenerator gen(1000, 0.99, 3);
  std::map<uint64_t, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[gen.Next()]++;
  // Rank 0 must dominate rank 100 heavily under theta=0.99.
  EXPECT_GT(counts[0], 20 * std::max(counts[100], 1));
  for (const auto& [v, c] : counts) EXPECT_LT(v, 1000u);
}

TEST(ZipfianTest, ScrambledCoversSpaceButStaysSkewed) {
  ZipfianGenerator gen(100000, 0.99, 5);
  std::map<uint64_t, int> counts;
  const int n = 200000;
  for (int i = 0; i < n; ++i) counts[gen.NextScrambled()]++;
  int max_count = 0;
  for (const auto& [v, c] : counts) max_count = std::max(max_count, c);
  // Hot key still absorbs far more than uniform share (2 per key).
  EXPECT_GT(max_count, 1000);
}

TEST(HistogramTest, PercentilesOrderedAndMeanExact) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 500.5);
  EXPECT_LE(h.Percentile(0.50), h.Percentile(0.95));
  EXPECT_LE(h.Percentile(0.95), h.Percentile(0.99));
  // Log-bucketed: p50 within ~7% of true median.
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)), 500.0, 40.0);
  EXPECT_EQ(h.max(), 1000u);
}

TEST(HistogramTest, MergeAggregates) {
  Histogram a, b;
  a.Record(10);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.max(), 1000u);
  EXPECT_EQ(a.sum(), 1010u);
}

TEST(HistogramTest, PercentileOneIsExactMax) {
  Histogram h;
  EXPECT_EQ(h.Percentile(1.0), 0u);  // empty: no samples, no max
  h.Record(3);
  h.Record(123456789);
  // q=1.0 bypasses bucket interpolation and returns the tracked max
  // exactly, even when the max lands mid-bucket.
  EXPECT_EQ(h.Percentile(1.0), 123456789u);
  EXPECT_EQ(h.Percentile(2.0), 123456789u);  // clamped
}

TEST(HistogramTest, CountAtOrBelowIsCumulative) {
  Histogram h;
  h.Record(5);
  h.Record(50);
  h.Record(500);
  EXPECT_EQ(h.CountAtOrBelow(4), 0u);
  EXPECT_EQ(h.CountAtOrBelow(5), 1u);
  EXPECT_EQ(h.CountAtOrBelow(100), 2u);
  EXPECT_EQ(h.CountAtOrBelow(UINT64_MAX), 3u);
  // The top of the range lands in the last bucket, with no shift past 63.
  h.Record(UINT64_MAX);
  EXPECT_EQ(h.Percentile(1.0), UINT64_MAX);
  EXPECT_EQ(h.CountAtOrBelow(UINT64_MAX), 4u);
  EXPECT_EQ(h.CountAtOrBelow(UINT64_MAX - 1), 3u);
}

TEST(HistogramTest, SnapshotStringCarriesTheSummary) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  const std::string s = h.SnapshotString();
  EXPECT_NE(s.find("count=100"), std::string::npos);
  EXPECT_NE(s.find("max=100"), std::string::npos);
  EXPECT_NE(s.find("p50="), std::string::npos);
  EXPECT_NE(s.find("p999="), std::string::npos);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> n{0};
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(pool.Submit([&n] { n.fetch_add(1); }));
  }
  pool.Drain();
  EXPECT_EQ(n.load(), 1000);
}

TEST(ThreadPoolTest, TrySubmitBackpressure) {
  ThreadPool pool(1, /*max_queue=*/2);
  std::atomic<bool> release{false};
  ASSERT_TRUE(pool.Submit([&] {
    while (!release.load()) std::this_thread::yield();
  }));
  // Fill the queue; eventually TrySubmit must refuse.
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (pool.TrySubmit([] {})) ++accepted;
  }
  EXPECT_LE(accepted, 2);
  release.store(true);
  pool.Drain();
}

TEST(ThreadPoolTest, ShutdownRejectsNewWork) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

}  // namespace
}  // namespace mlkv
