#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "io/file_device.h"
#include "io/temp_dir.h"

namespace mlkv {
namespace {

TEST(FileDeviceTest, WriteReadRoundTrip) {
  TempDir dir;
  FileDevice dev;
  ASSERT_TRUE(dev.Open(dir.File("a.dat")).ok());
  const std::string payload = "hello hybrid log";
  ASSERT_TRUE(dev.WriteAt(100, payload.data(), payload.size()).ok());
  std::vector<char> buf(payload.size());
  ASSERT_TRUE(dev.ReadAt(100, buf.data(), buf.size()).ok());
  EXPECT_EQ(std::string(buf.begin(), buf.end()), payload);
}

TEST(FileDeviceTest, ReadPastEofZeroFills) {
  TempDir dir;
  FileDevice dev;
  ASSERT_TRUE(dev.Open(dir.File("b.dat")).ok());
  ASSERT_TRUE(dev.WriteAt(0, "xy", 2).ok());
  char buf[8];
  std::memset(buf, 0x7f, sizeof(buf));
  ASSERT_TRUE(dev.ReadAt(0, buf, sizeof(buf)).ok());
  EXPECT_EQ(buf[0], 'x');
  EXPECT_EQ(buf[1], 'y');
  for (int i = 2; i < 8; ++i) EXPECT_EQ(buf[i], 0) << i;
}

TEST(FileDeviceTest, FileSizeAndTruncate) {
  TempDir dir;
  FileDevice dev;
  ASSERT_TRUE(dev.Open(dir.File("c.dat")).ok());
  ASSERT_TRUE(dev.WriteAt(4095, "z", 1).ok());
  EXPECT_EQ(dev.FileSize(), 4096u);
  ASSERT_TRUE(dev.Truncate(128).ok());
  EXPECT_EQ(dev.FileSize(), 128u);
}

TEST(FileDeviceTest, CountersTrackTraffic) {
  TempDir dir;
  FileDevice dev;
  ASSERT_TRUE(dev.Open(dir.File("d.dat")).ok());
  ASSERT_TRUE(dev.WriteAt(0, "abcd", 4).ok());
  char b[4];
  ASSERT_TRUE(dev.ReadAt(0, b, 4).ok());
  EXPECT_EQ(dev.bytes_written(), 4u);
  EXPECT_EQ(dev.bytes_read(), 4u);
  // One device read per call, scalar or vectored, however many buffers.
  char c[2], d[2];
  const struct iovec iov[] = {{c, 2}, {d, 2}};
  ASSERT_TRUE(dev.ReadAt(0, iov, 2).ok());
  EXPECT_EQ(dev.reads(), 2u);
  EXPECT_EQ(dev.bytes_read(), 8u);
}

TEST(FileDeviceTest, MergeGapIsTheCostModelsLatencyTimesBandwidth) {
  FileDevice dev;
  EXPECT_EQ(dev.MergeGapBytes(4096), 4096u);  // no cost model: the cap
  dev.SetSimulatedCosts(/*read_latency_us=*/30, /*read_gbps=*/1.0, 0);
  EXPECT_EQ(dev.MergeGapBytes(1u << 20), 30000u);  // 30 us x 1 GB/s
  dev.SetSimulatedCosts(150, 1.0, 0);
  EXPECT_EQ(dev.MergeGapBytes(128u << 10), 128u << 10);  // L*B past the cap
}

TEST(FileDeviceTest, ReopenWithoutTruncateKeepsData) {
  TempDir dir;
  const std::string path = dir.File("e.dat");
  {
    FileDevice dev;
    ASSERT_TRUE(dev.Open(path).ok());
    ASSERT_TRUE(dev.WriteAt(0, "keep", 4).ok());
  }
  FileDevice dev;
  ASSERT_TRUE(dev.Open(path, /*truncate=*/false).ok());
  char b[4];
  ASSERT_TRUE(dev.ReadAt(0, b, 4).ok());
  EXPECT_EQ(std::string(b, 4), "keep");
}

TEST(FileDeviceTest, OpenTruncateDiscardsData) {
  TempDir dir;
  const std::string path = dir.File("f.dat");
  {
    FileDevice dev;
    ASSERT_TRUE(dev.Open(path).ok());
    ASSERT_TRUE(dev.WriteAt(0, "gone", 4).ok());
  }
  FileDevice dev;
  ASSERT_TRUE(dev.Open(path, /*truncate=*/true).ok());
  EXPECT_EQ(dev.FileSize(), 0u);
}

TEST(FileDeviceTest, OpenBadPathFails) {
  FileDevice dev;
  EXPECT_TRUE(dev.Open("/nonexistent-dir-xyz/file").IsIOError());
}


TEST(FileDeviceTest, PunchHoleKeepsSizeAndZeroesNothingLogical) {
  TempDir dir;
  FileDevice dev;
  ASSERT_TRUE(dev.Open(dir.File("f")).ok());
  std::vector<char> block(8192, 'x');
  ASSERT_TRUE(dev.WriteAt(0, block.data(), block.size()).ok());
  const uint64_t size = dev.FileSize();
  ASSERT_TRUE(dev.PunchHole(0, 4096).ok());
  EXPECT_EQ(dev.FileSize(), size) << "KEEP_SIZE semantics";
  // The tail region is untouched.
  std::vector<char> out(4096);
  ASSERT_TRUE(dev.ReadAt(4096, out.data(), out.size()).ok());
  EXPECT_EQ(out[0], 'x');
}

TEST(FileDeviceTest, PunchHoleZeroLengthIsNoOp) {
  TempDir dir;
  FileDevice dev;
  ASSERT_TRUE(dev.Open(dir.File("f")).ok());
  ASSERT_TRUE(dev.PunchHole(0, 0).ok());
}

}  // namespace
}  // namespace mlkv
