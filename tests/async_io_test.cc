// AsyncIoEngine, GroupCommitter, and FaultyFileDevice unit tests:
// submit/complete correctness against real files (reads and writes),
// vectored reads (gaps up to the whole scratch dropped, EOF zero-filled,
// bounds checked), batch isolation, depth-limit backpressure,
// drain-on-shutdown with submissions outstanding, queue-merged reads, the
// batched-fsync commit protocol, and the fault decorator's scripted
// failures.
#include "io/async_io.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <condition_variable>
#include <memory>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "io/faulty_file_device.h"
#include "io/group_committer.h"
#include "io/temp_dir.h"

namespace mlkv {
namespace {

// A file whose byte at offset i is a deterministic function of i.
void FillPattern(FileDevice* dev, size_t n) {
  std::vector<char> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<char>((i * 131) & 0xFF);
  }
  ASSERT_TRUE(dev->WriteAt(0, data.data(), n).ok());
}

bool MatchesPattern(const char* buf, uint64_t offset, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (buf[i] != static_cast<char>(((offset + i) * 131) & 0xFF)) {
      return false;
    }
  }
  return true;
}

AsyncIoEngine::Options EngineOptions(size_t threads = 4) {
  AsyncIoEngine::Options o;
  o.io_threads = threads;
  return o;
}

TEST(AsyncIoTest, ReadsLandCorrectBytes) {
  TempDir dir;
  FileDevice dev;
  ASSERT_TRUE(dev.Open(dir.File("data")).ok());
  constexpr size_t kFile = 64 * 1024;
  FillPattern(&dev, kFile);

  AsyncIoEngine engine(EngineOptions());
  AsyncIoEngine::Batch batch(&engine);
  constexpr size_t kReads = 64;
  constexpr uint32_t kLen = 512;
  std::vector<std::vector<char>> bufs(kReads, std::vector<char>(kLen));
  std::vector<uint64_t> offsets(kReads);
  for (size_t i = 0; i < kReads; ++i) {
    offsets[i] = (i * 997) % (kFile - kLen);
    ASSERT_TRUE(
        batch.Submit(&dev, offsets[i], bufs[i].data(), kLen, i).ok());
  }
  size_t completed = 0;
  AsyncIoEngine::Completion c;
  std::vector<uint8_t> seen(kReads, 0);
  while (batch.WaitOne(&c)) {
    ASSERT_TRUE(c.status.ok()) << c.status.ToString();
    ASSERT_LT(c.tag, kReads);
    EXPECT_FALSE(seen[c.tag]) << "duplicate completion";
    seen[c.tag] = 1;
    EXPECT_TRUE(MatchesPattern(bufs[c.tag].data(), offsets[c.tag], kLen));
    ++completed;
  }
  EXPECT_EQ(completed, kReads);
}

TEST(AsyncIoTest, ReadPastEofZeroFills) {
  TempDir dir;
  FileDevice dev;
  ASSERT_TRUE(dev.Open(dir.File("data")).ok());
  FillPattern(&dev, 1024);

  AsyncIoEngine engine(EngineOptions(2));
  AsyncIoEngine::Batch batch(&engine);
  // Straddles EOF: first half real bytes, rest zero (the blocking
  // ReadAt contract, which async reads must preserve).
  std::vector<char> buf(512, 'x');
  ASSERT_TRUE(batch.Submit(&dev, 768, buf.data(), 512, 0).ok());
  AsyncIoEngine::Completion c;
  ASSERT_TRUE(batch.WaitOne(&c));
  EXPECT_TRUE(c.status.ok());
  EXPECT_TRUE(MatchesPattern(buf.data(), 768, 256));
  for (size_t i = 256; i < 512; ++i) EXPECT_EQ(buf[i], 0) << i;
}

TEST(AsyncIoTest, VectoredReadLandsSegmentsAndDropsGaps) {
  TempDir dir;
  FileDevice dev;
  ASSERT_TRUE(dev.Open(dir.File("data")).ok());
  constexpr size_t kFile = 64 * 1024;
  FillPattern(&dev, kFile);

  AsyncIoEngine engine(EngineOptions(2));
  AsyncIoEngine::Batch batch(&engine);
  // Three records with gaps between them: one device read of [4000, 5650).
  std::vector<char> a(100, 'x'), b(50, 'x'), c(200, 'x');
  const AsyncIoEngine::ReadSegment inside[] = {
      {a.data(), 100}, {nullptr, 300}, {b.data(), 50},
      {nullptr, 1000}, {c.data(), 200}};
  ASSERT_TRUE(batch.Submit(&dev, 4000, inside, 5, 1).ok());
  // One that straddles EOF: its second member is half past it.
  std::vector<char> d(64, 'x'), e(128, 'x');
  const AsyncIoEngine::ReadSegment eof[] = {
      {d.data(), 64}, {nullptr, 64}, {e.data(), 128}};
  ASSERT_TRUE(batch.Submit(&dev, kFile - 192, eof, 3, 2).ok());
  // Out of bounds: too many segments, or a gap past the scratch.
  std::vector<AsyncIoEngine::ReadSegment> many(
      AsyncIoEngine::kMaxReadSegments + 1, {a.data(), 1});
  EXPECT_TRUE(batch.Submit(&dev, 0, many.data(), many.size(), 3)
                  .IsInvalidArgument());
  const AsyncIoEngine::ReadSegment wide[] = {
      {a.data(), 1}, {nullptr, AsyncIoEngine::kMaxGapBytes + 1}, {b.data(), 1}};
  EXPECT_TRUE(batch.Submit(&dev, 0, wide, 3, 4).IsInvalidArgument());

  AsyncIoEngine::Completion done;
  size_t completed = 0;
  while (batch.WaitOne(&done)) {
    EXPECT_TRUE(done.status.ok()) << done.tag;
    ++completed;
  }
  EXPECT_EQ(completed, 2u);
  // Each vectored read is one device read: with an idle second worker the
  // two never merge.
  EXPECT_EQ(dev.reads(), 2u);
  EXPECT_TRUE(MatchesPattern(a.data(), 4000, 100));
  EXPECT_TRUE(MatchesPattern(b.data(), 4400, 50));
  EXPECT_TRUE(MatchesPattern(c.data(), 5450, 200));
  EXPECT_TRUE(MatchesPattern(d.data(), kFile - 192, 64));
  EXPECT_TRUE(MatchesPattern(e.data(), kFile - 64, 64));
  for (size_t i = 64; i < 128; ++i) EXPECT_EQ(e[i], 0) << i;
}

TEST(AsyncIoTest, VectoredReadSpansAGapAsLongAsTheScratch) {
  // Gaps far past one 16 KiB log page, up to the whole scratch, with
  // several such reads in flight on one worker at once: every member
  // lands byte-exact and the gap bytes are dropped.
  TempDir dir;
  FileDevice dev;
  ASSERT_TRUE(dev.Open(dir.File("data")).ok());
  constexpr uint32_t kGap = AsyncIoEngine::kMaxGapBytes;
  constexpr size_t kReads = 4;
  constexpr size_t kFile = kReads * (2 * kGap);
  FillPattern(&dev, kFile);

  AsyncIoEngine engine(EngineOptions(1));
  AsyncIoEngine::Batch batch(&engine);
  std::vector<std::vector<char>> heads(kReads), mids(kReads), tails(kReads);
  std::vector<std::vector<AsyncIoEngine::ReadSegment>> reads(kReads);
  for (size_t r = 0; r < kReads; ++r) {
    heads[r].assign(64, 'x');
    mids[r].assign(96, 'x');
    tails[r].assign(128, 'x');
    reads[r] = {{heads[r].data(), 64},
                {nullptr, 20000},  // past one 16 KiB log page
                {mids[r].data(), 96},
                {nullptr, kGap},
                {tails[r].data(), 128}};
    ASSERT_TRUE(batch
                    .Submit(&dev, r * 2 * kGap, reads[r].data(),
                            reads[r].size(), r)
                    .ok());
  }
  const AsyncIoEngine::ReadSegment too_wide[] = {
      {heads[0].data(), 1}, {nullptr, kGap + 1}, {mids[0].data(), 1}};
  EXPECT_TRUE(batch.Submit(&dev, 0, too_wide, 3, kReads).IsInvalidArgument());

  AsyncIoEngine::Completion done;
  size_t completed = 0;
  while (batch.WaitOne(&done)) {
    EXPECT_TRUE(done.status.ok()) << done.tag;
    ++completed;
  }
  EXPECT_EQ(completed, kReads);
  for (size_t r = 0; r < kReads; ++r) {
    const uint64_t at = r * 2 * kGap;
    EXPECT_TRUE(MatchesPattern(heads[r].data(), at, 64)) << r;
    EXPECT_TRUE(MatchesPattern(mids[r].data(), at + 64 + 20000, 96)) << r;
    EXPECT_TRUE(
        MatchesPattern(tails[r].data(), at + 64 + 20000 + 96 + kGap, 128))
        << r;
  }
}

TEST(AsyncIoTest, BatchesAreIsolated) {
  TempDir dir;
  FileDevice dev;
  ASSERT_TRUE(dev.Open(dir.File("data")).ok());
  FillPattern(&dev, 8192);

  AsyncIoEngine engine(EngineOptions(2));
  AsyncIoEngine::Batch a(&engine);
  AsyncIoEngine::Batch b(&engine);
  std::vector<char> abuf(64), bbuf(64);
  ASSERT_TRUE(a.Submit(&dev, 0, abuf.data(), 64, 100).ok());
  ASSERT_TRUE(b.Submit(&dev, 64, bbuf.data(), 64, 200).ok());
  AsyncIoEngine::Completion c;
  ASSERT_TRUE(a.WaitOne(&c));
  EXPECT_EQ(c.tag, 100u);  // never batch b's completion
  ASSERT_TRUE(b.WaitOne(&c));
  EXPECT_EQ(c.tag, 200u);
  EXPECT_FALSE(a.WaitOne(&c));
  EXPECT_FALSE(b.WaitOne(&c));
}

TEST(AsyncIoTest, DrainOnShutdownCompletesEverySubmission) {
  TempDir dir;
  FileDevice dev;
  ASSERT_TRUE(dev.Open(dir.File("data")).ok());
  FillPattern(&dev, 64 * 1024);
  // Slow the device so submissions are still queued/in flight when the
  // engine is destroyed.
  dev.SetSimulatedCosts(/*read_latency_us=*/2000, 0, 0);

  constexpr size_t kReads = 32;
  std::vector<std::vector<char>> bufs(kReads, std::vector<char>(256));
  size_t completed = 0;
  {
    auto engine =
        std::make_unique<AsyncIoEngine>(EngineOptions(/*threads=*/2));
    AsyncIoEngine::Batch batch(engine.get());
    for (size_t i = 0; i < kReads; ++i) {
      ASSERT_TRUE(batch.Submit(&dev, i * 256, bufs[i].data(), 256, i).ok());
    }
    // Destroy the engine with most reads outstanding: the destructor must
    // block until every accepted read completed...
    engine.reset();
    // ...so by now every completion is already waiting in the batch.
    AsyncIoEngine::Completion c;
    while (batch.WaitOne(&c)) {
      EXPECT_TRUE(c.status.ok());
      EXPECT_TRUE(MatchesPattern(bufs[c.tag].data(), c.tag * 256, 256));
      ++completed;
    }
  }
  EXPECT_EQ(completed, kReads);
}

TEST(AsyncIoTest, DepthLimitAppliesBackpressureNotLoss) {
  TempDir dir;
  FileDevice dev;
  ASSERT_TRUE(dev.Open(dir.File("data")).ok());
  FillPattern(&dev, 64 * 1024);

  AsyncIoEngine::Options o = EngineOptions(2);
  o.queue_depth = 4;  // far fewer slots than submissions
  AsyncIoEngine engine(o);
  AsyncIoEngine::Batch batch(&engine);
  constexpr size_t kReads = 64;
  std::vector<std::vector<char>> bufs(kReads, std::vector<char>(128));
  for (size_t i = 0; i < kReads; ++i) {
    ASSERT_TRUE(batch.Submit(&dev, i * 128, bufs[i].data(), 128, i).ok());
  }
  size_t completed = 0;
  AsyncIoEngine::Completion c;
  while (batch.WaitOne(&c)) {
    EXPECT_TRUE(c.status.ok());
    ++completed;
  }
  EXPECT_EQ(completed, kReads);
}

// A device whose reads block inside ReadAt until `width` of them are in it
// at once; a read that waits out the (generous) timeout fails.
class LatchDevice : public FileDevice {
 public:
  explicit LatchDevice(int width) : width_(width) {}
  using FileDevice::ReadAt;
  Status ReadAt(uint64_t, void* data, size_t n) const override {
    std::unique_lock<std::mutex> lk(mu_);
    if (++inside_ >= width_) cv_.notify_all();
    if (!cv_.wait_for(lk, std::chrono::seconds(10),
                      [this] { return inside_ >= width_; })) {
      return Status::IOError("fewer than width reads ever ran at once");
    }
    std::memset(data, 0x5A, n);
    return Status::OK();
  }

 private:
  const int width_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable int inside_ = 0;
};

// Reads run on as many workers at once as there are reads: no worker
// takes a second one while the first blocks. The latch only opens once all
// four are inside ReadAt together, so this does not depend on thread
// timing.
TEST(AsyncIoTest, BlockingReadsRunOnEveryWorkerAtOnce) {
  constexpr int kWorkers = 4;
  LatchDevice dev(kWorkers);
  AsyncIoEngine engine(EngineOptions(kWorkers));
  AsyncIoEngine::Batch batch(&engine);
  std::vector<std::vector<char>> bufs(kWorkers, std::vector<char>(64));
  for (int i = 0; i < kWorkers; ++i) {
    ASSERT_TRUE(batch.Submit(&dev, i * 64, bufs[i].data(), 64, i).ok());
  }
  AsyncIoEngine::Completion c;
  int completed = 0;
  while (batch.WaitOne(&c)) {
    EXPECT_TRUE(c.status.ok()) << c.status.ToString();
    EXPECT_EQ(bufs[c.tag][0], 0x5A);
    ++completed;
  }
  EXPECT_EQ(completed, kWorkers);
}

// A device that logs every read call (offset, bytes, iovec count; 0 for the
// scalar form) and write call, and whose gate, while closed, holds a read
// inside ReadAt. Read call `fail_call` (1-based, 0: none) fails instead of
// reading.
class GateDevice : public FileDevice {
 public:
  struct Call {
    uint64_t offset;
    uint64_t len;
    int iovcnt;
    bool operator==(const Call&) const = default;
    friend void PrintTo(const Call& c, std::ostream* os) {
      *os << "{" << c.offset << ", " << c.len << ", " << c.iovcnt << "}";
    }
  };

  explicit GateDevice(bool open = true, uint64_t fail_call = 0)
      : open_(open), fail_call_(fail_call) {}

  Status WriteAt(uint64_t offset, const void* data, size_t n) override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      writes_.push_back(Call{offset, n, 0});
    }
    return FileDevice::WriteAt(offset, data, n);
  }
  Status ReadAt(uint64_t offset, void* data, size_t n) const override {
    MLKV_RETURN_NOT_OK(Enter(Call{offset, n, 0}));
    return FileDevice::ReadAt(offset, data, n);
  }
  Status ReadAt(uint64_t offset, const struct iovec* iov,
                int iovcnt) const override {
    uint64_t n = 0;
    for (int i = 0; i < iovcnt; ++i) n += iov[i].iov_len;
    MLKV_RETURN_NOT_OK(Enter(Call{offset, n, iovcnt}));
    return FileDevice::ReadAt(offset, iov, iovcnt);
  }

  // Blocks until a read waits at the closed gate.
  void AwaitHeldRead() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return held_ > 0; });
  }
  void OpenGate() {
    std::lock_guard<std::mutex> lk(mu_);
    open_ = true;
    cv_.notify_all();
  }
  std::vector<Call> calls() const {
    std::lock_guard<std::mutex> lk(mu_);
    return calls_;
  }
  std::vector<Call> writes() const {
    std::lock_guard<std::mutex> lk(mu_);
    return writes_;
  }

 private:
  Status Enter(const Call& call) const {
    std::unique_lock<std::mutex> lk(mu_);
    calls_.push_back(call);
    ++held_;
    cv_.notify_all();
    cv_.wait(lk, [this] { return open_; });
    --held_;
    if (calls_.size() == fail_call_) {
      return Status::IOError("gate device: scripted read fault");
    }
    return Status::OK();
  }

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool open_;
  const uint64_t fail_call_;
  mutable int held_ = 0;
  mutable std::vector<Call> calls_;
  std::vector<Call> writes_;
};

// Queue merging, made deterministic: the engine's one worker is held
// inside read 1 (so every other worker, of which there are none, is
// busy), two more batches queue reads around [9000, 10600) together with
// reads the rule must leave alone, and the gate opens. `fail_call` 2 fails
// the merged read.
struct MergeScene {
  static constexpr size_t kFile = 256 * 1024;
  static constexpr uint64_t kWriteAt = 11000;
  // More than kMaxGapBytes past every other read.
  static constexpr uint64_t kFar = 200 * 1024;
  static_assert(kFar > 11050 + AsyncIoEngine::kMaxGapBytes);

  explicit MergeScene(uint64_t fail_call = 0)
      : dev(/*open=*/false, fail_call) {
    EXPECT_TRUE(dev.Open(dir.File("data")).ok());
    EXPECT_TRUE(other.Open(dir.File("other")).ok());
    FillPattern(&dev, kFile);
    FillPattern(&other, kFile);
    write_buf.assign(100, static_cast<char>(0xEE));
    engine = std::make_unique<AsyncIoEngine>(EngineOptions(1));
    b1 = std::make_unique<AsyncIoEngine::Batch>(engine.get());
    b2 = std::make_unique<AsyncIoEngine::Batch>(engine.get());
    b3 = std::make_unique<AsyncIoEngine::Batch>(engine.get());
  }

  // Submits everything (tags: 1 the held read; 2-5 the merged reads;
  // 10-15 the rest) and opens the gate.
  void Run() {
    Read(b1.get(), &dev, 0, 64, 1);
    dev.AwaitHeldRead();
    Read(b2.get(), &dev, 10000, 100, 2);   // the merge's first read
    Read(b2.get(), &dev, 10050, 100, 10);  // overlaps it: never merged
    Read(b3.get(), &dev, 10300, 100, 3);   // 200 bytes right of it
    Read(b2.get(), &other, 10400, 100, 11);  // another device
    // One vectored read of [9000, 9400), 600 bytes left of the range.
    seg_a.assign(100, 'x');
    seg_b.assign(100, 'x');
    segments = {{seg_a.data(), 100}, {nullptr, 200}, {seg_b.data(), 100}};
    EXPECT_TRUE(b3->Submit(&dev, 9000, segments.data(), 3, 4).ok());
    EXPECT_TRUE(b2->SubmitWrite(&dev, kWriteAt, write_buf.data(), 100, 12)
                    .ok());
    // Near the range, but the union would overlap the queued write.
    Read(b3.get(), &dev, 10900, 150, 13);
    Read(b2.get(), &dev, 10500, 100, 5);  // behind the write, clear of it
    Read(b3.get(), &dev, kFar, 100, 14);  // far from every other read
    dev.OpenGate();
  }

  // Collects `batch`'s completions, failing on a duplicate or foreign tag.
  std::map<uint64_t, Status> Drain(AsyncIoEngine::Batch* batch,
                                   const std::set<uint64_t>& tags) {
    std::map<uint64_t, Status> done;
    AsyncIoEngine::Completion c;
    while (batch->WaitOne(&c)) {
      EXPECT_EQ(tags.count(c.tag), 1u) << "tag " << c.tag;
      EXPECT_TRUE(done.emplace(c.tag, c.status).second)
          << "tag " << c.tag << " delivered twice";
    }
    return done;
  }

  void Read(AsyncIoEngine::Batch* batch, const FileDevice* d, uint64_t at,
            uint32_t len, uint64_t tag) {
    auto& buf = bufs[tag];
    buf.assign(len, 'x');
    offsets[tag] = at;
    EXPECT_TRUE(batch->Submit(d, at, buf.data(), len, tag).ok());
  }

  TempDir dir;
  GateDevice dev;
  GateDevice other;
  std::unique_ptr<AsyncIoEngine> engine;
  std::unique_ptr<AsyncIoEngine::Batch> b1, b2, b3;
  std::map<uint64_t, std::vector<char>> bufs;
  std::map<uint64_t, uint64_t> offsets;
  std::vector<char> seg_a, seg_b, write_buf;
  std::vector<AsyncIoEngine::ReadSegment> segments;
};

// The one vectored read the scene's merge issues: [9000, 10600), in nine
// iovecs (the vectored read's three, then a gap before each of the other
// three constituents).
const GateDevice::Call kMergedCall{9000, 1600, 9};

TEST(AsyncIoTest, QueuedNeighboursOfABusyWorkerShareOneDeviceRead) {
  MergeScene scene;
  scene.Run();
  const auto d1 = scene.Drain(scene.b1.get(), {1});
  const auto d2 = scene.Drain(scene.b2.get(), {2, 5, 10, 11, 12});
  const auto d3 = scene.Drain(scene.b3.get(), {3, 4, 13, 14});
  EXPECT_EQ(d1.size() + d2.size() + d3.size(), 10u);
  for (const auto* done : {&d1, &d2, &d3}) {
    for (const auto& [tag, status] : *done) {
      EXPECT_TRUE(status.ok()) << "tag " << tag << ": " << status.ToString();
    }
  }
  // Every read lands byte-exact in its own buffer; the read behind the
  // write (13) sees the written bytes, so it ran after it.
  for (const auto& [tag, buf] : scene.bufs) {
    const uint64_t at = scene.offsets[tag];
    if (tag == 13) {
      const size_t before = MergeScene::kWriteAt - at;
      EXPECT_TRUE(MatchesPattern(buf.data(), at, before));
      for (size_t i = before; i < buf.size(); ++i) {
        EXPECT_EQ(buf[i], static_cast<char>(0xEE)) << i;
      }
      continue;
    }
    EXPECT_TRUE(MatchesPattern(buf.data(), at, buf.size())) << "tag " << tag;
  }
  EXPECT_TRUE(MatchesPattern(scene.seg_a.data(), 9000, 100));
  EXPECT_TRUE(MatchesPattern(scene.seg_b.data(), 9300, 100));

  // Read 1; the merged read; then the overlapping read, the read behind
  // the write and the far one, each alone, in queue order.
  const std::vector<GateDevice::Call> expected = {
      {0, 64, 0}, kMergedCall, {10050, 100, 0}, {10900, 150, 0},
      {MergeScene::kFar, 100, 0}};
  EXPECT_EQ(scene.dev.calls(), expected);
  EXPECT_EQ(scene.dev.reads(), expected.size());
  EXPECT_EQ(scene.other.calls(),
            (std::vector<GateDevice::Call>{{10400, 100, 0}}));
  EXPECT_EQ(scene.dev.writes().size(), 2u);  // FillPattern's, then tag 12
}

TEST(AsyncIoTest, FailedMergedReadFailsExactlyItsConstituents) {
  MergeScene scene(/*fail_call=*/2);
  scene.Run();
  std::map<uint64_t, Status> all;
  for (const auto& done :
       {scene.Drain(scene.b1.get(), {1}),
        scene.Drain(scene.b2.get(), {2, 5, 10, 11, 12}),
        scene.Drain(scene.b3.get(), {3, 4, 13, 14})}) {
    all.insert(done.begin(), done.end());
  }
  ASSERT_EQ(all.size(), 10u);
  for (const auto& [tag, status] : all) {
    const bool merged = tag >= 2 && tag <= 5;
    EXPECT_EQ(status.IsIOError(), merged)
        << "tag " << tag << ": " << status.ToString();
    if (!merged) {
      EXPECT_TRUE(status.ok()) << "tag " << tag;
    }
  }
  const std::vector<GateDevice::Call> calls = scene.dev.calls();
  ASSERT_EQ(calls.size(), 5u);
  EXPECT_EQ(calls[1], kMergedCall);
}

TEST(AsyncIoTest, QueueMergedReadStaysWithinItsSpan) {
  // Reads every 100 KiB (gaps within kMaxGapBytes) queue behind a held
  // one: the merge takes them until the union would pass
  // kMaxQueueMergeBytes; the rest are merged with each other next.
  TempDir dir;
  GateDevice dev(/*open=*/false);
  ASSERT_TRUE(dev.Open(dir.File("data")).ok());
  constexpr uint64_t kStep = 100u << 10;
  constexpr size_t kReads = 9;
  FillPattern(&dev, kReads * kStep + 64);
  AsyncIoEngine engine(EngineOptions(1));
  AsyncIoEngine::Batch batch(&engine);
  char held[64];
  ASSERT_TRUE(batch.Submit(&dev, kReads * kStep, held, 64, kReads).ok());
  dev.AwaitHeldRead();
  std::vector<std::vector<char>> bufs(kReads, std::vector<char>(64));
  for (size_t i = 0; i < kReads; ++i) {
    ASSERT_TRUE(batch.Submit(&dev, i * kStep, bufs[i].data(), 64, i).ok());
  }
  dev.OpenGate();
  AsyncIoEngine::Completion c;
  size_t completed = 0;
  while (batch.WaitOne(&c)) {
    EXPECT_TRUE(c.status.ok());
    ++completed;
  }
  EXPECT_EQ(completed, kReads + 1);
  for (size_t i = 0; i < kReads; ++i) {
    EXPECT_TRUE(MatchesPattern(bufs[i].data(), i * kStep, 64)) << i;
  }
  // Six reads fit: 5 * kStep + 64 <= kMaxQueueMergeBytes < 6 * kStep + 64.
  static_assert(5 * kStep + 64 <= AsyncIoEngine::kMaxQueueMergeBytes);
  static_assert(6 * kStep + 64 > AsyncIoEngine::kMaxQueueMergeBytes);
  const std::vector<GateDevice::Call> expected = {
      {kReads * kStep, 64, 0},
      {0, 5 * kStep + 64, 11},
      {6 * kStep, 2 * kStep + 64, 5}};
  EXPECT_EQ(dev.calls(), expected);
}

TEST(AsyncIoTest, QueuedReadsOfAPlainDeviceMerge) {
  // The lone worker is held in a read of another file while three adjacent
  // reads of an undecorated device queue: once it frees up, it serves
  // them as one device read.
  TempDir dir;
  GateDevice gate(/*open=*/false);
  FileDevice dev;
  ASSERT_TRUE(gate.Open(dir.File("gate")).ok());
  ASSERT_TRUE(dev.Open(dir.File("data")).ok());
  FillPattern(&gate, 64);
  FillPattern(&dev, 4096);
  AsyncIoEngine engine(EngineOptions(1));
  AsyncIoEngine::Batch batch(&engine);
  char held[64];
  ASSERT_TRUE(batch.Submit(&gate, 0, held, 64, 0).ok());
  gate.AwaitHeldRead();
  std::vector<std::vector<char>> bufs(3, std::vector<char>(100, 'x'));
  for (size_t i = 0; i < bufs.size(); ++i) {
    ASSERT_TRUE(
        batch.Submit(&dev, 1000 + i * 100, bufs[i].data(), 100, i + 1).ok());
  }
  gate.OpenGate();
  AsyncIoEngine::Completion c;
  size_t completed = 0;
  while (batch.WaitOne(&c)) {
    EXPECT_TRUE(c.status.ok()) << c.tag;
    ++completed;
  }
  EXPECT_EQ(completed, 4u);
  EXPECT_EQ(dev.reads(), 1u);
  for (size_t i = 0; i < bufs.size(); ++i) {
    EXPECT_TRUE(MatchesPattern(bufs[i].data(), 1000 + i * 100, 100)) << i;
  }
}

TEST(AsyncIoTest, WritesAreNeverMerged) {
  // Adjacent writes queued behind a held read each go to the device alone.
  TempDir dir;
  GateDevice dev(/*open=*/false);
  ASSERT_TRUE(dev.Open(dir.File("data")).ok());
  FillPattern(&dev, 4096);
  AsyncIoEngine engine(EngineOptions(1));
  AsyncIoEngine::Batch batch(&engine);
  char held[64];
  ASSERT_TRUE(batch.Submit(&dev, 0, held, 64, 0).ok());
  dev.AwaitHeldRead();
  std::vector<char> data(4 * 256);
  for (size_t j = 0; j < data.size(); ++j) {
    data[j] = static_cast<char>(((1024 + j) * 131) & 0xFF);
  }
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(batch
                    .SubmitWrite(&dev, 1024 + i * 256, data.data() + i * 256,
                                 256, i + 1)
                    .ok());
  }
  dev.OpenGate();
  AsyncIoEngine::Completion c;
  size_t completed = 0;
  while (batch.WaitOne(&c)) {
    EXPECT_TRUE(c.status.ok());
    ++completed;
  }
  EXPECT_EQ(completed, 5u);  // the held read and four writes
  const std::vector<GateDevice::Call> expected = {
      {0, 4096, 0},  // FillPattern's
      {1024, 256, 0}, {1280, 256, 0}, {1536, 256, 0}, {1792, 256, 0}};
  EXPECT_EQ(dev.writes(), expected);
  std::vector<char> check(data.size());
  ASSERT_TRUE(dev.ReadAt(1024, check.data(), check.size()).ok());
  EXPECT_EQ(check, data);
}

TEST(AsyncIoTest, WritesLandCorrectBytes) {
  TempDir dir;
  FileDevice dev;
  ASSERT_TRUE(dev.Open(dir.File("data")).ok());

  AsyncIoEngine engine(EngineOptions());
  constexpr size_t kWrites = 48;
  constexpr uint32_t kLen = 512;
  // Disjoint slices, each filled with the global pattern for its offset,
  // submitted out of order — the file must still assemble byte-exact.
  std::vector<std::vector<char>> bufs(kWrites, std::vector<char>(kLen));
  for (size_t i = 0; i < kWrites; ++i) {
    const uint64_t off = i * kLen;
    for (uint32_t j = 0; j < kLen; ++j) {
      bufs[i][j] = static_cast<char>(((off + j) * 131) & 0xFF);
    }
  }
  {
    AsyncIoEngine::Batch batch(&engine);
    for (size_t i = 0; i < kWrites; ++i) {
      const size_t w = (i * 31) % kWrites;  // shuffled submission order
      ASSERT_TRUE(batch
                      .SubmitWrite(&dev, w * kLen, bufs[w].data(), kLen,
                                   w)
                      .ok());
    }
    size_t completed = 0;
    AsyncIoEngine::Completion c;
    std::vector<uint8_t> seen(kWrites, 0);
    while (batch.WaitOne(&c)) {
      ASSERT_TRUE(c.status.ok()) << c.status.ToString();
      ASSERT_LT(c.tag, kWrites);
      EXPECT_FALSE(seen[c.tag]) << "duplicate completion";
      seen[c.tag] = 1;
      ++completed;
    }
    EXPECT_EQ(completed, kWrites);
  }
  std::vector<char> all(kWrites * kLen);
  ASSERT_TRUE(dev.ReadAt(0, all.data(), all.size()).ok());
  EXPECT_TRUE(MatchesPattern(all.data(), 0, all.size()));
  EXPECT_EQ(dev.bytes_written(), kWrites * kLen);
}

TEST(AsyncIoTest, MixedReadsAndWritesInOneBatch) {
  TempDir dir;
  FileDevice dev;
  ASSERT_TRUE(dev.Open(dir.File("data")).ok());
  FillPattern(&dev, 4096);

  AsyncIoEngine engine(EngineOptions(2));
  AsyncIoEngine::Batch batch(&engine);
  std::vector<char> rbuf(256);
  std::vector<char> wbuf(256);
  for (size_t j = 0; j < wbuf.size(); ++j) {
    wbuf[j] = static_cast<char>(((4096 + j) * 131) & 0xFF);
  }
  ASSERT_TRUE(batch.Submit(&dev, 1024, rbuf.data(), 256, 1).ok());
  ASSERT_TRUE(batch.SubmitWrite(&dev, 4096, wbuf.data(), 256, 2).ok());
  AsyncIoEngine::Completion c;
  size_t done = 0;
  while (batch.WaitOne(&c)) {
    EXPECT_TRUE(c.status.ok());
    ++done;
  }
  EXPECT_EQ(done, 2u);
  EXPECT_TRUE(MatchesPattern(rbuf.data(), 1024, 256));
  std::vector<char> check(256);
  ASSERT_TRUE(dev.ReadAt(4096, check.data(), 256).ok());
  EXPECT_TRUE(MatchesPattern(check.data(), 4096, 256));
}

TEST(FaultyFileDeviceTest, ScriptedErrorAndRecovery) {
  TempDir dir;
  auto script = std::make_shared<FaultyFileDevice::Script>();
  FaultyFileDevice dev(script);
  ASSERT_TRUE(dev.Open(dir.File("data")).ok());
  std::vector<char> data(256, 7);
  ASSERT_TRUE(dev.WriteAt(0, data.data(), data.size()).ok());

  char buf[256];
  ASSERT_TRUE(dev.ReadAt(0, buf, sizeof(buf)).ok());  // read #1: clean
  script->fail_from.store(2);                         // arm read #2
  const Status s = dev.ReadAt(0, buf, sizeof(buf));
  ASSERT_TRUE(s.IsIOError());
  EXPECT_NE(s.message().find("injected"), std::string::npos);
  ASSERT_TRUE(dev.ReadAt(0, buf, sizeof(buf)).ok());  // #3: recovered
  EXPECT_EQ(buf[0], 7);
  EXPECT_EQ(script->reads.load(), 3u);
}

TEST(FaultyFileDeviceTest, ShortReadTearsAndZeroFills) {
  TempDir dir;
  auto script = std::make_shared<FaultyFileDevice::Script>();
  FaultyFileDevice dev(script);
  ASSERT_TRUE(dev.Open(dir.File("data")).ok());
  std::vector<char> data(256, 9);
  ASSERT_TRUE(dev.WriteAt(0, data.data(), data.size()).ok());

  script->fail_from.store(1);
  script->short_read.store(true);
  char buf[256];
  std::memset(buf, 'x', sizeof(buf));
  ASSERT_TRUE(dev.ReadAt(0, buf, sizeof(buf)).ok());  // "succeeds", torn
  EXPECT_EQ(buf[0], 9);            // first half served
  EXPECT_EQ(buf[127], 9);
  EXPECT_EQ(buf[128], 0);          // rest zeroed
  EXPECT_EQ(buf[255], 0);
}

TEST(FaultyFileDeviceTest, VectoredReadIsOneScriptedRead) {
  TempDir dir;
  auto script = std::make_shared<FaultyFileDevice::Script>();
  FaultyFileDevice dev(script);
  ASSERT_TRUE(dev.Open(dir.File("data")).ok());
  std::vector<char> data(256, 4);
  ASSERT_TRUE(dev.WriteAt(0, data.data(), data.size()).ok());

  char head[64], tail[64], gap[128];
  const struct iovec iov[] = {
      {head, sizeof(head)}, {gap, sizeof(gap)}, {tail, sizeof(tail)}};
  ASSERT_TRUE(dev.ReadAt(0, iov, 3).ok());  // read #1: clean
  EXPECT_EQ(tail[63], 4);
  script->fail_from.store(2);  // arm read #2: the whole vector fails
  EXPECT_TRUE(dev.ReadAt(0, iov, 3).IsIOError());
  EXPECT_EQ(script->reads.load(), 2u);

  // A tear cuts the vector's whole range at half: head served, the rest
  // (from the middle of the gap on) zeroed.
  script->fail_from.store(3);
  script->short_read.store(true);
  std::memset(tail, 'x', sizeof(tail));
  ASSERT_TRUE(dev.ReadAt(0, iov, 3).ok());
  EXPECT_EQ(head[63], 4);
  EXPECT_EQ(gap[63], 4);
  EXPECT_EQ(gap[64], 0);
  EXPECT_EQ(tail[0], 0);
  EXPECT_EQ(tail[63], 0);
  EXPECT_EQ(script->reads.load(), 3u);
}

TEST(FaultyFileDeviceTest, EngineRoutesDecoratedDeviceThroughReadAt) {
  TempDir dir;
  auto script = std::make_shared<FaultyFileDevice::Script>();
  FaultyFileDevice dev(script);
  ASSERT_TRUE(dev.Open(dir.File("data")).ok());
  std::vector<char> data(1024, 3);
  ASSERT_TRUE(dev.WriteAt(0, data.data(), data.size()).ok());

  AsyncIoEngine engine;
  AsyncIoEngine::Batch batch(&engine);
  script->fail_from.store(2);  // second engine read faults
  char b1[64], b2[64];
  ASSERT_TRUE(batch.Submit(&dev, 0, b1, sizeof(b1), 1).ok());
  AsyncIoEngine::Completion c;
  ASSERT_TRUE(batch.WaitOne(&c));
  EXPECT_TRUE(c.status.ok());
  ASSERT_TRUE(batch.Submit(&dev, 64, b2, sizeof(b2), 2).ok());
  ASSERT_TRUE(batch.WaitOne(&c));
  EXPECT_TRUE(c.status.IsIOError());  // the script fired → virtual path used
  EXPECT_EQ(script->reads.load(), 2u);
}

TEST(FaultyFileDeviceTest, EngineRoutesDecoratedWriteThroughWriteAt) {
  TempDir dir;
  auto script = std::make_shared<FaultyFileDevice::Script>();
  FaultyFileDevice dev(script);
  ASSERT_TRUE(dev.Open(dir.File("data")).ok());

  AsyncIoEngine engine;
  AsyncIoEngine::Batch batch(&engine);
  std::vector<char> buf(128, 5);
  script->write_fail_from.store(2);  // second engine write faults
  ASSERT_TRUE(batch.SubmitWrite(&dev, 0, buf.data(), 128, 1).ok());
  AsyncIoEngine::Completion c;
  ASSERT_TRUE(batch.WaitOne(&c));
  EXPECT_TRUE(c.status.ok());
  ASSERT_TRUE(batch.SubmitWrite(&dev, 128, buf.data(), 128, 2).ok());
  ASSERT_TRUE(batch.WaitOne(&c));
  EXPECT_TRUE(c.status.IsIOError());  // the script fired → virtual path used
  EXPECT_EQ(script->writes.load(), 2u);
}

// N tickets staged inside one commit window cost one fsync, and that
// fsync releases them all.
TEST(GroupCommitterTest, OneFsyncReleasesEveryStagedTicket) {
  TempDir dir;
  FileDevice dev;
  ASSERT_TRUE(dev.Open(dir.File("data")).ok());
  GroupCommitter::Options o;
  o.window_us = 200 * 1000;  // generous: all tickets land in one window
  o.max_bytes = 1ull << 30;
  GroupCommitter committer(&dev, o);

  constexpr size_t kTickets = 8;
  char byte = 1;
  std::vector<uint64_t> tickets;
  for (size_t i = 0; i < kTickets; ++i) {
    ASSERT_TRUE(dev.WriteAt(i, &byte, 1).ok());
    tickets.push_back(committer.StageWrite(1));
  }
  for (const uint64_t t : tickets) {
    EXPECT_TRUE(committer.Wait(t).ok());
  }
  const GroupCommitter::Stats s = committer.stats();
  EXPECT_EQ(s.tickets, kTickets);
  EXPECT_EQ(s.fsyncs, 1u);
  EXPECT_EQ(s.group_commits, 1u);
}

// The staged-bytes trigger closes the window early: a burst past
// max_bytes commits long before the timer would have fired.
TEST(GroupCommitterTest, MaxBytesTriggerClosesWindowEarly) {
  TempDir dir;
  FileDevice dev;
  ASSERT_TRUE(dev.Open(dir.File("data")).ok());
  GroupCommitter::Options o;
  o.window_us = 5 * 1000 * 1000;  // 5 s — must not be what releases us
  o.max_bytes = 1024;
  GroupCommitter committer(&dev, o);

  const auto start = std::chrono::steady_clock::now();
  const uint64_t t = committer.StageWrite(4096);  // past the trigger alone
  ASSERT_TRUE(committer.Wait(t).ok());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2500);
}

TEST(GroupCommitterTest, FsyncFailureIsStickyAcrossTickets) {
  TempDir dir;
  auto script = std::make_shared<FaultyFileDevice::Script>();
  FaultyFileDevice dev(script);
  ASSERT_TRUE(dev.Open(dir.File("data")).ok());
  GroupCommitter::Options o;
  o.window_us = 100;
  GroupCommitter committer(&dev, o);

  script->sync_fail_from.store(1);
  script->sync_fail_count.store(1);  // only the first fsync fails
  EXPECT_TRUE(committer.Wait(committer.StageWrite(1)).IsIOError());
  // The device works again, but durability of the dropped pages can never
  // be proven — every later ticket inherits the failure.
  EXPECT_TRUE(committer.Wait(committer.StageWrite(1)).IsIOError());
}

TEST(ModeNameTest, DurabilityModeParseAndName) {
  DurabilityMode m = DurabilityMode::kGroup;
  EXPECT_TRUE(ParseDurabilityMode("sync", &m));
  EXPECT_EQ(m, DurabilityMode::kSync);
  EXPECT_TRUE(ParseDurabilityMode("group", &m));
  EXPECT_EQ(m, DurabilityMode::kGroup);
  EXPECT_FALSE(ParseDurabilityMode("wal", &m));
  EXPECT_STREQ(DurabilityModeName(DurabilityMode::kSync), "sync");
  EXPECT_STREQ(DurabilityModeName(DurabilityMode::kGroup), "group");
}

}  // namespace
}  // namespace mlkv
