#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "io/temp_dir.h"
#include "kv/hybrid_log.h"

namespace mlkv {
namespace {

HybridLogOptions SmallLog(const TempDir& dir, uint64_t pages = 8,
                          uint64_t page_size = 4096) {
  HybridLogOptions o;
  o.page_size = page_size;
  o.mem_size = pages * page_size;
  o.mutable_fraction = 0.5;
  o.path = dir.File("log");
  return o;
}

TEST(HybridLogTest, OpenRejectsBadGeometry) {
  TempDir dir;
  HybridLog log;
  HybridLogOptions o = SmallLog(dir);
  o.page_size = 3000;  // not a power of two
  EXPECT_TRUE(log.Open(o).IsInvalidArgument());
  o = SmallLog(dir, /*pages=*/2);  // too few pages
  EXPECT_TRUE(log.Open(o).IsInvalidArgument());
}

TEST(HybridLogTest, AllocateReturnsWritableMemory) {
  TempDir dir;
  HybridLog log;
  ASSERT_TRUE(log.Open(SmallLog(dir)).ok());
  Address a;
  char* mem;
  ASSERT_TRUE(log.Allocate(64, &a, &mem).ok());
  EXPECT_EQ(a, HybridLog::kLogBegin);
  std::memset(mem, 0xAB, 64);
  log.EndAppend(a);
  char buf[64];
  ASSERT_TRUE(log.TryReadMemory(a, buf, 64));
  EXPECT_EQ(buf[0], static_cast<char>(0xAB));
  EXPECT_EQ(buf[63], static_cast<char>(0xAB));
}

TEST(HybridLogTest, AllocationsAreAlignedAndMonotonic) {
  TempDir dir;
  HybridLog log;
  ASSERT_TRUE(log.Open(SmallLog(dir)).ok());
  Address prev = 0;
  for (int i = 0; i < 100; ++i) {
    Address a;
    char* mem;
    ASSERT_TRUE(log.Allocate(33, &a, &mem).ok());  // odd size: gets padded
    log.EndAppend(a);
    EXPECT_EQ(a % 8, 0u);
    EXPECT_GT(a, prev);
    prev = a;
  }
}

TEST(HybridLogTest, PageRollAdvancesReadOnlyBoundary) {
  TempDir dir;
  HybridLog log;
  ASSERT_TRUE(log.Open(SmallLog(dir, 8, 4096)).ok());
  EXPECT_EQ(log.read_only_address(), HybridLog::kLogBegin);
  // Fill ~6 pages; mutable window is 4 pages, so read_only must advance.
  Address a;
  char* mem;
  for (int i = 0; i < 6 * 4096 / 512; ++i) {
    ASSERT_TRUE(log.Allocate(512, &a, &mem).ok());
    log.EndAppend(a);
  }
  EXPECT_GT(log.read_only_address(), HybridLog::kLogBegin);
  EXPECT_LE(log.read_only_address(), log.tail());
  EXPECT_LE(log.head_address(), log.read_only_address());
}

TEST(HybridLogTest, EvictionMovesHeadAndDiskReadsWork) {
  TempDir dir;
  HybridLog log;
  ASSERT_TRUE(log.Open(SmallLog(dir, 4, 4096)).ok());
  // Write identifiable records: 128-byte chunks holding their own address.
  std::vector<Address> addrs;
  for (int i = 0; i < 400; ++i) {  // ~12 pages >> 4-page buffer
    Address a;
    char* mem;
    ASSERT_TRUE(log.Allocate(128, &a, &mem).ok());
    std::memcpy(mem, &a, sizeof(a));
    log.EndAppend(a);
    addrs.push_back(a);
  }
  EXPECT_GT(log.head_address(), HybridLog::kLogBegin);
  EXPECT_GT(log.stats().pages_evicted.load(), 0u);

  // Early addresses must have been evicted; memory read fails, disk works.
  const Address early = addrs.front();
  ASSERT_LT(early, log.head_address());
  char buf[128];
  EXPECT_FALSE(log.TryReadMemory(early, buf, 128));
  RecordMeta meta;
  // Interpret the raw chunk as a record header: the first 8 bytes (control
  // in Record layout) hold the address we wrote.
  ASSERT_TRUE(log.ReadFromDisk(early, &meta, nullptr, 0).ok());
  EXPECT_EQ(ControlWord::Sanitize(early), meta.control);

  // Recent addresses still read from memory and match.
  const Address late = addrs.back();
  ASSERT_TRUE(log.TryReadMemory(late, buf, 128));
  Address stored;
  std::memcpy(&stored, buf, sizeof(stored));
  EXPECT_EQ(stored, late);
}

TEST(HybridLogTest, InPlaceWriteRefusedBelowReadOnly) {
  TempDir dir;
  HybridLog log;
  ASSERT_TRUE(log.Open(SmallLog(dir, 8, 4096)).ok());
  Address first;
  char* mem;
  ASSERT_TRUE(log.Allocate(256, &first, &mem).ok());
  log.EndAppend(first);
  ASSERT_TRUE(log.BeginInPlaceWrite(first));
  log.EndInPlaceWrite(first);
  // Push the boundary past `first`.
  for (int i = 0; i < 8 * 4096 / 256; ++i) {
    Address a;
    ASSERT_TRUE(log.Allocate(256, &a, &mem).ok());
    log.EndAppend(a);
  }
  ASSERT_LT(first, log.read_only_address());
  EXPECT_FALSE(log.BeginInPlaceWrite(first));
}

TEST(HybridLogTest, FlushAllPersistsTailPage) {
  TempDir dir;
  HybridLog log;
  ASSERT_TRUE(log.Open(SmallLog(dir)).ok());
  Address a;
  char* mem;
  ASSERT_TRUE(log.Allocate(64, &a, &mem).ok());
  std::memset(mem, 0x5A, 64);
  log.EndAppend(a);
  ASSERT_TRUE(log.FlushAll().ok());
  // Read the bytes straight from the file at the logical offset.
  char buf[64];
  ASSERT_TRUE(log.device()->ReadAt(a, buf, 64).ok());
  EXPECT_EQ(buf[0], 0x5A);
  EXPECT_EQ(buf[63], 0x5A);
}

TEST(HybridLogTest, RestoreBoundariesStartsFreshPage) {
  TempDir dir;
  HybridLog log;
  ASSERT_TRUE(log.Open(SmallLog(dir)).ok());
  Address a;
  char* mem;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(log.Allocate(100, &a, &mem).ok());
    log.EndAppend(a);
  }
  const Address old_tail = log.tail();
  ASSERT_TRUE(log.FlushAll().ok());
  ASSERT_TRUE(log.RestoreBoundaries(old_tail).ok());
  EXPECT_GE(log.tail(), old_tail);
  EXPECT_EQ(log.tail() % 4096, 0u) << "must restart on a page boundary";
  EXPECT_EQ(log.head_address(), log.tail());
  // New allocations work after restore.
  ASSERT_TRUE(log.Allocate(64, &a, &mem).ok());
  log.EndAppend(a);
  EXPECT_EQ(a, log.tail() - 64);
}

TEST(HybridLogTest, OversizedAllocationRejected) {
  TempDir dir;
  HybridLog log;
  ASSERT_TRUE(log.Open(SmallLog(dir, 8, 4096)).ok());
  Address a;
  char* mem;
  EXPECT_TRUE(log.Allocate(8192, &a, &mem).IsInvalidArgument());
}


TEST(HybridLogTest, AllocateRefusesAddressesPastTheIndexLimit) {
  // Hash index entries keep 48 address bits (kv/hash_index.h), so the log
  // must never hand out an address at or above kAddressLimit.
  TempDir dir;
  HybridLog log;
  ASSERT_TRUE(log.Open(SmallLog(dir)).ok());
  ASSERT_TRUE(log.RestoreBoundaries(kAddressLimit).ok());
  Address a;
  char* mem;
  EXPECT_TRUE(log.Allocate(64, &a, &mem).IsIOError());
}

TEST(HybridLogTest, ShiftBeginAddressIsMonotonicAndClamped) {
  TempDir dir;
  HybridLog log;
  HybridLogOptions o;
  o.page_size = 4096;
  o.mem_size = 8 * 4096;
  o.path = dir.File("log");
  ASSERT_TRUE(log.Open(o).ok());
  EXPECT_EQ(log.begin_address(), HybridLog::kLogBegin);
  // Cannot pass the read-only boundary.
  EXPECT_TRUE(log.ShiftBeginAddress(log.read_only_address() + 1)
                  .IsInvalidArgument());
  // Fill several pages so the read-only boundary advances.
  Address a;
  char* mem;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(log.Allocate(1024, &a, &mem).ok());
    log.EndAppend(a);
  }
  const Address ro = log.read_only_address();
  ASSERT_GT(ro, HybridLog::kLogBegin);
  ASSERT_TRUE(log.ShiftBeginAddress(ro).ok());
  EXPECT_EQ(log.begin_address(), ro);
  // Regressing is a silent no-op (monotonic).
  ASSERT_TRUE(log.ShiftBeginAddress(HybridLog::kLogBegin).ok());
  EXPECT_EQ(log.begin_address(), ro);
}

TEST(HybridLogTest, ShiftBeginKeepsFileSize) {
  TempDir dir;
  HybridLog log;
  HybridLogOptions o;
  o.page_size = 4096;
  o.mem_size = 8 * 4096;
  o.path = dir.File("log");
  ASSERT_TRUE(log.Open(o).ok());
  Address a;
  char* mem;
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(log.Allocate(1024, &a, &mem).ok());
    log.EndAppend(a);
  }
  const uint64_t size_before = log.device()->FileSize();
  ASSERT_TRUE(log.ShiftBeginAddress(log.read_only_address()).ok());
  // Hole punching keeps the logical size; addresses stay file offsets.
  EXPECT_EQ(log.device()->FileSize(), size_before);
}

}  // namespace
}  // namespace mlkv
