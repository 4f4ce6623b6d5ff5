// Two-phase pending-read pipeline tests (kv/pending_read.h): byte-for-byte
// equivalence with the blocking path on a cold working set, duplicate-cold-key
// coalescing, span-merged device reads (one read per kMaxMergedReadBytes
// span across log pages, members that hop or fall back still matching the
// blocking path), a compaction deterministically racing an in-flight read,
// staleness-bound fallbacks, injected device failures surfacing as per-key
// codes without poisoning batch siblings, and drain-on-close.
#include "kv/pending_read.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "backend/kv_backend.h"
#include "io/async_io.h"
#include "io/faulty_file_device.h"
#include "io/temp_dir.h"
#include "kv/faster_store.h"
#include "kv/sharded_store.h"
#include "mlkv/embedding_init.h"
#include "mlkv/mlkv.h"
#include "obs/metrics.h"
#include "store_geometry.h"
#include "store_metrics.h"

namespace mlkv {
namespace {

constexpr uint32_t kValueBytes = 32;

void FillValue(Key key, char* out) {
  for (uint32_t i = 0; i < kValueBytes; ++i) {
    out[i] = static_cast<char>((key * 31 + i) & 0xFF);
  }
}

// A sharded store with a tiny memory budget so most of `num_keys` end up
// disk-resident after the load.
ShardedStoreOptions ColdStoreOptions(const std::string& path,
                                     uint32_t shard_bits,
                                     AsyncIoEngine* io) {
  ShardedStoreOptions o;
  o.store.path = path;
  o.store.index_slots = 4096;
  o.store.mem_size = 1u << 16;  // 64 KiB total: a few hundred records hot
  o.store.page_size = 1u << 12;
  o.shard_bits = shard_bits;
  o.store.io = io;
  return o;
}

template <typename Store>
void LoadKeys(Store* store, uint64_t num_keys) {
  char value[kValueBytes];
  for (Key k = 0; k < num_keys; ++k) {
    FillValue(k, value);
    ASSERT_TRUE(store->Upsert(k, value, kValueBytes).ok());
  }
}

// Log address of `key`'s newest version.
Address AddressOf(FasterStore* store, Key key) {
  RecordMeta meta;
  Address a = kInvalidAddress;
  EXPECT_TRUE(store->PeekMeta(key, &meta, &a).ok()) << "key " << key;
  return a;
}

uint64_t PageOf(FasterStore* store, Key key) {
  return AddressOf(store, key) / store->log().options().page_size;
}

// Counter deltas of one store across a wave.
struct WaveCounts {
  uint64_t device_reads = 0;  // mlkv_io_async_reads_submitted_total
  uint64_t records = 0;       // mlkv_io_disk_record_reads_total
  uint64_t hops = 0;          // mlkv_store_chain_hops_total
  uint64_t refetched = 0;     // mlkv_io_async_reads_refetched_total
};

template <typename Store>
WaveCounts Counts(const Store& store) {
  const obs::MetricsSink s = StoreSamples(store);
  return WaveCounts{MetricSum(s, "mlkv_io_async_reads_submitted_total"),
                    MetricSum(s, "mlkv_io_disk_record_reads_total"),
                    MetricSum(s, "mlkv_store_chain_hops_total"),
                    MetricSum(s, "mlkv_io_async_reads_refetched_total")};
}

WaveCounts operator-(const WaveCounts& a, const WaveCounts& b) {
  return WaveCounts{a.device_reads - b.device_reads, a.records - b.records,
                    a.hops - b.hops, a.refetched - b.refetched};
}

// Parks an untracked cold read of each key of `keys` (every one must be
// disk-resident) into one wave, runs it, and returns each key's status;
// values land in `out` (kValueBytes per key).
std::vector<Status> ReadWave(FasterStore* store, AsyncIoEngine* engine,
                             const std::vector<Key>& keys,
                             std::vector<char>* out) {
  out->assign(keys.size() * kValueBytes, 0);
  std::vector<Status> status(keys.size());
  PendingSink sink;
  for (size_t i = 0; i < keys.size(); ++i) {
    PendingRead p;
    EXPECT_FALSE(store->StartRead(keys[i], out->data() + i * kValueBytes,
                                  kValueBytes, nullptr, UINT32_MAX,
                                  /*tracked=*/false, &p))
        << "key " << keys[i] << " is not cold";
    sink.Park(store, std::move(p), [&status, i](PendingRead* done) {
      status[i] = done->status;
    });
  }
  PendingReadWave wave(engine);
  wave.Adopt(&sink);
  wave.CompleteAll();
  return status;
}

void ExpectValue(const char* got, Key key) {
  char expected[kValueBytes];
  FillValue(key, expected);
  EXPECT_EQ(std::memcmp(got, expected, kValueBytes), 0) << "key " << key;
}

// One store with 64 KiB pages (4 frames, so most of kLargePageKeys is on
// disk) and an index wide enough that none of its keys share a chain.
constexpr uint64_t kLargePage = 64u << 10;
constexpr uint64_t kLargePageKeys = 10000;

FasterOptions LargePageOptions(const std::string& path, AsyncIoEngine* io) {
  FasterOptions o;
  o.path = path;
  o.index_slots = 1u << 16;
  o.page_size = kLargePage;
  o.mem_size = 4 * kLargePage;
  o.io = io;
  return o;
}

// Enough keys that the first several SpanKeys() of them stay cold under
// either store geometry above.
constexpr uint64_t kSpreadKeys = 13000;

// Keys this many apart in load order lie more than kMaxMergedReadBytes
// apart on the log (records are appended back to back), so no merged read
// carries both.
Key SpanKeys(FasterStore* store) {
  const uint32_t record = Record::SizeFor(kValueBytes);
  EXPECT_EQ(AddressOf(store, 1) - AddressOf(store, 0), record);
  return kMaxMergedReadBytes / record;
}

// Device reads seen by LengthRecordingDevice: how many, and the longest.
struct ReadLengths {
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> longest{0};
};

// A FileDevice that records each read's length.
class LengthRecordingDevice : public FileDevice {
 public:
  explicit LengthRecordingDevice(std::shared_ptr<ReadLengths> lengths)
      : lengths_(std::move(lengths)) {}

  Status ReadAt(uint64_t offset, void* data, size_t n) const override {
    Note(n);
    return FileDevice::ReadAt(offset, data, n);
  }
  Status ReadAt(uint64_t offset, const struct iovec* iov,
                int iovcnt) const override {
    size_t n = 0;
    for (int i = 0; i < iovcnt; ++i) n += iov[i].iov_len;
    Note(n);
    return FileDevice::ReadAt(offset, iov, iovcnt);
  }

 private:
  void Note(uint64_t n) const {
    lengths_->reads.fetch_add(1);
    uint64_t seen = lengths_->longest.load();
    while (n > seen && !lengths_->longest.compare_exchange_weak(seen, n)) {
    }
  }

  std::shared_ptr<ReadLengths> lengths_;
};

// The Get-shaped read op the embedding layer builds, reduced to raw bytes:
// phase-1 resolve or park, untracked.
ShardedStore::ShardReadOp RawReadOp(char* out, uint32_t stride) {
  return [out, stride](FasterStore* shard, Key key, size_t i,
                       BatchResult* part, size_t pi, PendingSink* sink) {
    char* dst = out + i * stride;
    if (sink == nullptr) {
      part->Record(pi, shard->Read(key, dst, stride));
      return;
    }
    PendingRead p;
    if (shard->StartRead(key, dst, stride, nullptr, UINT32_MAX,
                         /*tracked=*/false, &p)) {
      part->Record(pi, p.status);
      return;
    }
    sink->Park(shard, std::move(p), [part, pi](PendingRead* done) {
      part->Record(pi, done->status);
    });
  };
}

TEST(PendingReadTest, ColdBatchMatchesSyncByteForByte) {
  constexpr uint64_t kKeys = 2000;
  TempDir sync_dir, async_dir;
  AsyncIoEngine engine;

  ShardedStore sync_store, async_store;
  ASSERT_TRUE(
      sync_store.Open(ColdStoreOptions(sync_dir.File("s.log"), 2, nullptr))
          .ok());
  ASSERT_TRUE(
      async_store.Open(ColdStoreOptions(async_dir.File("a.log"), 2, &engine))
          .ok());
  LoadKeys(&sync_store, kKeys);
  LoadKeys(&async_store, kKeys);

  // Mixed batch: cold keys, hot keys, missing keys, strided order.
  std::vector<Key> keys;
  for (uint64_t i = 0; i < 256; ++i) keys.push_back((i * 37) % kKeys);
  keys.push_back(kKeys + 5);  // never stored
  keys.push_back(3);
  keys.push_back(kKeys + 9);  // never stored

  std::vector<char> sync_out(keys.size() * kValueBytes, 0);
  std::vector<char> async_out(keys.size() * kValueBytes, 0);
  BatchResult sync_r, async_r;
  sync_store.MultiExecuteRead(keys, RawReadOp(sync_out.data(), kValueBytes),
                              &sync_r);
  async_store.MultiExecuteRead(keys, RawReadOp(async_out.data(), kValueBytes),
                               &async_r);

  ASSERT_EQ(sync_r.codes.size(), async_r.codes.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(sync_r.codes[i], async_r.codes[i]) << "key " << keys[i];
    if (sync_r.codes[i] == Status::Code::kOk) {
      EXPECT_EQ(std::memcmp(&sync_out[i * kValueBytes],
                            &async_out[i * kValueBytes], kValueBytes),
                0)
          << "key " << keys[i];
    }
  }
  EXPECT_EQ(sync_r.found, async_r.found);
  EXPECT_EQ(sync_r.missing, async_r.missing);
  // The async store actually used the pipeline (the working set is cold),
  // and the sync store never did.
  EXPECT_GT(StoreMetric(async_store, "mlkv_io_async_reads_submitted_total"),
            0u);
  EXPECT_EQ(StoreMetric(sync_store, "mlkv_io_async_reads_submitted_total"), 0u);
  EXPECT_EQ(StoreMetric(async_store, "mlkv_io_async_reads_submitted_total"),
            StoreMetric(async_store, "mlkv_io_async_reads_completed_total"));
}

TEST(PendingReadTest, CollisionChainsHopOnDeviceAndFallBackPastBudget) {
  // An index far smaller than the key count: every bucket is full, so most
  // keys share an overflow chain with dozens of others. Pending reads then
  // hop through other keys' cold records and, past the hop budget, finish
  // on the blocking walk — with results identical to the blocking path.
  constexpr uint64_t kKeys = 2000;
  TempDir sync_dir, async_dir;
  AsyncIoEngine engine;
  ShardedStoreOptions sync_opts =
      ColdStoreOptions(sync_dir.File("s.log"), 0, nullptr);
  ShardedStoreOptions async_opts =
      ColdStoreOptions(async_dir.File("a.log"), 0, &engine);
  sync_opts.store.index_slots = ShardedStore::kMinShardIndexSlots;
  async_opts.store.index_slots = ShardedStore::kMinShardIndexSlots;
  ShardedStore sync_store, async_store;
  ASSERT_TRUE(sync_store.Open(sync_opts).ok());
  ASSERT_TRUE(async_store.Open(async_opts).ok());
  LoadKeys(&sync_store, kKeys);
  LoadKeys(&async_store, kKeys);
  const uint64_t load_hops =
      StoreMetric(async_store, "mlkv_store_chain_hops_total");

  std::vector<Key> keys;
  for (uint64_t i = 0; i < 256; ++i) keys.push_back((i * 37) % kKeys);
  keys.push_back(kKeys + 5);  // never stored: walks a whole chain
  std::vector<char> sync_out(keys.size() * kValueBytes, 0);
  std::vector<char> async_out(keys.size() * kValueBytes, 0);
  BatchResult sync_r, async_r;
  sync_store.MultiExecuteRead(keys, RawReadOp(sync_out.data(), kValueBytes),
                              &sync_r);
  async_store.MultiExecuteRead(keys, RawReadOp(async_out.data(), kValueBytes),
                               &async_r);
  ASSERT_EQ(sync_r.codes, async_r.codes);
  EXPECT_EQ(sync_out, async_out);
  EXPECT_EQ(async_r.missing, 1u);

  const obs::MetricsSink s = StoreSamples(async_store);
  EXPECT_GT(MetricSum(s, "mlkv_io_async_reads_submitted_total"), 0u);
  // Chain hops during the batch, some past kMaxPendingHops (refetched),
  // and on the blocking walk too.
  EXPECT_GT(MetricSum(s, "mlkv_store_chain_hops_total"), load_hops);
  EXPECT_GT(MetricSum(s, "mlkv_io_async_reads_refetched_total"), 0u);
  EXPECT_GT(StoreMetric(sync_store, "mlkv_store_chain_hops_total"), 0u);
}

TEST(PendingReadTest, DuplicateColdKeysCoalesceIntoOneIo) {
  constexpr uint64_t kKeys = 1500;
  TempDir dir;
  AsyncIoEngine engine;
  ShardedStore store;
  // shard_bits 0: all duplicates land in one shard's sub-batch.
  ASSERT_TRUE(
      store.Open(ColdStoreOptions(dir.File("c.log"), 0, &engine)).ok());
  LoadKeys(&store, kKeys);

  // One definitely-cold key, repeated; plus one other cold key.
  const Key cold = 7;
  std::vector<Key> keys(16, cold);
  keys.push_back(11);
  std::vector<char> out(keys.size() * kValueBytes, 0);
  BatchResult r;
  store.MultiExecuteRead(keys, RawReadOp(out.data(), kValueBytes), &r);

  char expected[kValueBytes];
  FillValue(cold, expected);
  for (size_t i = 0; i < 16; ++i) {
    ASSERT_EQ(r.codes[i], Status::Code::kOk);
    EXPECT_EQ(std::memcmp(&out[i * kValueBytes], expected, kValueBytes), 0);
  }
  FillValue(11, expected);
  EXPECT_EQ(std::memcmp(&out[16 * kValueBytes], expected, kValueBytes), 0);
  // 17 key instances, 2 distinct cold records: at most 2 I/Os (+ hash-chain
  // hops, which an index of 4096 slots over 1500 keys makes rare).
  const uint64_t submitted =
      StoreMetric(store, "mlkv_io_async_reads_submitted_total");
  EXPECT_GT(submitted, 0u);
  EXPECT_LE(submitted, 4u);
}

TEST(PendingReadTest, CompactionRacingInFlightReadFallsBackToRefetch) {
  constexpr uint64_t kKeys = 1200;
  TempDir dir;
  AsyncIoEngine engine;
  ShardedStore sharded;
  ASSERT_TRUE(
      sharded.Open(ColdStoreOptions(dir.File("r.log"), 0, &engine)).ok());
  LoadKeys(&sharded, kKeys);
  FasterStore* store = sharded.shard(0);

  // Phase 1 parks a cold key...
  const Key victim = 3;
  char out[kValueBytes] = {0};
  PendingRead p;
  ASSERT_FALSE(store->StartRead(victim, out, kValueBytes, nullptr, UINT32_MAX,
                                /*tracked=*/false, &p));
  // ...then compaction reclaims the whole cold region before the "I/O"
  // completes: the parked address is now below the begin boundary and its
  // live version was republished at the tail.
  ASSERT_TRUE(sharded.CompactAll().ok());
  ASSERT_GT(store->log().begin_address(), p.address);

  PendingSink sink;
  Status final_status;
  sink.Park(store, std::move(p), [&final_status](PendingRead* done) {
    final_status = done->status;
  });
  PendingReadWave wave(&engine);
  wave.Adopt(&sink);
  wave.CompleteAll();

  ASSERT_TRUE(final_status.ok()) << final_status.ToString();
  char expected[kValueBytes];
  FillValue(victim, expected);
  EXPECT_EQ(std::memcmp(out, expected, kValueBytes), 0);
  EXPECT_GE(StoreMetric(*store, "mlkv_io_async_reads_refetched_total"), 1u);
}

TEST(PendingReadTest, PromotionInvalidatedInFlightSkipsCleanly) {
  // Regression: a StartPromote fetch has no caller output buffer; when the
  // record moves mid-flight (compaction here), the completion must skip
  // the promotion — not fall into the buffer-refilling refetch path.
  constexpr uint64_t kKeys = 1200;
  TempDir dir;
  AsyncIoEngine engine;
  ShardedStore sharded;
  ASSERT_TRUE(
      sharded.Open(ColdStoreOptions(dir.File("p.log"), 0, &engine)).ok());
  LoadKeys(&sharded, kKeys);
  FasterStore* store = sharded.shard(0);

  PendingRead p;
  bool parked = false;
  ASSERT_TRUE(store->StartPromote(5, kValueBytes, &p, &parked).ok());
  ASSERT_TRUE(parked);
  ASSERT_TRUE(sharded.CompactAll().ok());
  ASSERT_GT(store->log().begin_address(), p.address);

  const uint64_t skipped_before =
      StoreMetric(*store, "mlkv_store_promotions_skipped_total");
  PendingSink sink;
  sink.Park(store, std::move(p), nullptr);
  PendingReadWave wave(&engine);
  wave.Adopt(&sink);
  wave.CompleteAll();
  EXPECT_GT(StoreMetric(*store, "mlkv_store_promotions_skipped_total"),
            skipped_before);
  // The key still reads correctly afterwards.
  char out[kValueBytes], expected[kValueBytes];
  ASSERT_TRUE(store->Read(5, out, kValueBytes).ok());
  FillValue(5, expected);
  EXPECT_EQ(std::memcmp(out, expected, kValueBytes), 0);
}

TEST(PendingReadTest, LookaheadCountsEachPresentKeyOnce) {
  // A Lookahead wave over every kind of key: each present one lands in
  // exactly one of promotions / promotions_skipped, and an absent one in
  // neither (kv.prefetch_useful_ratio is built from these two counters).
  constexpr uint64_t kKeys = 1200;
  TempDir dir;
  AsyncIoEngine engine;
  ShardedStore sharded;
  ASSERT_TRUE(
      sharded.Open(ColdStoreOptions(dir.File("c.log"), 0, &engine)).ok());
  LoadKeys(&sharded, kKeys);
  FasterStore* store = sharded.shard(0);
  const HybridLog& log = store->log();
  const auto address_of = [store](Key k) {
    RecordMeta meta;
    Address a = kInvalidAddress;
    EXPECT_TRUE(store->PeekMeta(k, &meta, &a).ok()) << "key " << k;
    return a;
  };

  const Key mutable_key = kKeys - 1;
  ASSERT_GE(address_of(mutable_key), log.read_only_address());
  Key read_only_key = kKeys;
  for (Key k = kKeys - 1; k > 0 && read_only_key == kKeys; --k) {
    const Address a = address_of(k);
    if (a < log.read_only_address() && a >= log.head_address()) {
      read_only_key = k;
    }
  }
  ASSERT_LT(read_only_key, kKeys) << "no read-only-resident key";
  const Key moved = 5, disk_a = 10, disk_b = 11;
  for (const Key k : {moved, disk_a, disk_b}) {
    ASSERT_LT(address_of(k), log.head_address()) << "key " << k;
  }
  const Key absent = kKeys + 7;

  const obs::MetricsSink before = StoreSamples(*store);
  PendingSink sink;
  size_t parked_keys = 0;
  for (const Key k :
       {mutable_key, read_only_key, moved, disk_a, disk_b, absent}) {
    PendingRead p;
    bool parked = false;
    const Status s = store->StartPromote(k, kValueBytes, &p, &parked);
    EXPECT_EQ(s.IsNotFound(), k == absent) << "key " << k;
    if (!parked) continue;
    ++parked_keys;
    sink.Park(store, std::move(p), nullptr);
  }
  EXPECT_EQ(parked_keys, 3u);
  // Compaction moves `moved` (but not the keys above it) while in flight.
  const Address until = address_of(moved) + Record::SizeFor(kValueBytes);
  ASSERT_LT(until, address_of(disk_a));
  ASSERT_TRUE(store->Compact(until).ok());
  ASSERT_GE(log.begin_address(), until);
  PendingReadWave wave(&engine);
  wave.Adopt(&sink);
  wave.CompleteAll();

  const obs::MetricsSink after = StoreSamples(*store);
  const auto delta = [&](std::string_view name) {
    return MetricSum(after, name) - MetricSum(before, name);
  };
  EXPECT_EQ(delta("mlkv_store_promotions_total"), 2u);  // disk_a, disk_b
  EXPECT_EQ(delta("mlkv_store_promotions_skipped_total"), 3u);
  // Of the skips, only `moved` arrived late: the other two were resident.
  EXPECT_EQ(delta("mlkv_store_promotions_late_total"), 1u);
  EXPECT_TRUE(store->IsInMemory(disk_a));
  EXPECT_TRUE(store->IsInMemory(disk_b));
  for (const Key k : {mutable_key, read_only_key, moved, disk_a, disk_b}) {
    char out[kValueBytes], expected[kValueBytes];
    ASSERT_TRUE(store->Peek(k, out, kValueBytes).ok()) << "key " << k;
    FillValue(k, expected);
    EXPECT_EQ(std::memcmp(out, expected, kValueBytes), 0) << "key " << k;
  }
}

TEST(PendingReadTest, PromotionLosingItsPublishCountsLate) {
  // A write that publishes the key while its promotion is in flight makes
  // the promotion late; a promotion whose landing buffer truncated the
  // value is skipped but not late.
  constexpr uint64_t kKeys = 1200;
  TempDir dir;
  AsyncIoEngine engine;
  ShardedStore sharded;
  ASSERT_TRUE(
      sharded.Open(ColdStoreOptions(dir.File("l.log"), 0, &engine)).ok());
  LoadKeys(&sharded, kKeys);
  FasterStore* store = sharded.shard(0);
  const Key written = 10, truncated = 11;

  const obs::MetricsSink before = StoreSamples(*store);
  PendingSink sink;
  for (const auto& [key, cap] :
       {std::pair{written, kValueBytes}, std::pair{truncated, 8u}}) {
    PendingRead p;
    bool parked = false;
    ASSERT_TRUE(store->StartPromote(key, cap, &p, &parked).ok());
    ASSERT_TRUE(parked) << "key " << key;
    sink.Park(store, std::move(p), nullptr);
  }
  PendingReadWave wave(&engine);
  wave.Adopt(&sink);
  wave.Submit();
  char fresh[kValueBytes];
  FillValue(written + 1000, fresh);
  ASSERT_TRUE(store->Upsert(written, fresh, kValueBytes).ok());
  wave.Complete();

  const obs::MetricsSink after = StoreSamples(*store);
  const auto delta = [&](std::string_view name) {
    return MetricSum(after, name) - MetricSum(before, name);
  };
  EXPECT_EQ(delta("mlkv_store_promotions_total"), 0u);
  EXPECT_EQ(delta("mlkv_store_promotions_skipped_total"), 2u);
  EXPECT_EQ(delta("mlkv_store_promotions_late_total"), 1u);
  char out[kValueBytes];
  ASSERT_TRUE(store->Peek(written, out, kValueBytes).ok());
  EXPECT_EQ(std::memcmp(out, fresh, kValueBytes), 0);
}

TEST(PendingReadTest, StalenessBoundFallsBackToBlockingProtocol) {
  TempDir dir;
  AsyncIoEngine engine;
  ShardedStoreOptions o = ColdStoreOptions(dir.File("b.log"), 0, &engine);
  o.store.track_staleness = true;
  o.store.staleness_bound = 0;       // BSP
  o.store.busy_spin_limit = 16;      // abort fast in the fallback
  ShardedStore sharded;
  ASSERT_TRUE(sharded.Open(o).ok());
  FasterStore* store = sharded.shard(0);

  // Raise one key's staleness while it is still mutable, then bury it so
  // the stale counter freezes on disk.
  char value[kValueBytes];
  FillValue(42, value);
  ASSERT_TRUE(store->Upsert(42, value, kValueBytes).ok());
  char buf[kValueBytes];
  for (int i = 0; i < 3; ++i) {  // tracked reads: staleness -> 3
    ASSERT_TRUE(
        store->Read(42, buf, kValueBytes, nullptr, UINT32_MAX - 2).ok());
  }
  for (Key filler = 1000; filler < 3000; ++filler) {
    FillValue(filler, value);
    ASSERT_TRUE(store->Upsert(filler, value, kValueBytes).ok());
  }
  ASSERT_FALSE(store->IsInMemory(42));

  // Async tracked read under BSP: the landed record fails the bound, the
  // fallback re-read spins out, and the key reports Busy — exactly the
  // blocking path's outcome.
  std::vector<Key> keys = {42};
  keys.push_back(1001);  // sibling must still be served
  std::vector<char> rows(keys.size() * kValueBytes, 0);
  BatchResult r;
  sharded.MultiExecuteRead(
      keys,
      [&rows](FasterStore* shard, Key key, size_t i, BatchResult* part,
              size_t pi, PendingSink* sink) {
        char* dst = rows.data() + i * kValueBytes;
        if (sink == nullptr) {
          part->Record(pi, shard->Read(key, dst, kValueBytes));
          return;
        }
        PendingRead p;
        if (shard->StartRead(key, dst, kValueBytes, nullptr, UINT32_MAX,
                             /*tracked=*/true, &p)) {
          part->Record(pi, p.status);
          return;
        }
        sink->Park(shard, std::move(p), [part, pi](PendingRead* done) {
          part->Record(pi, done->status);
        });
      },
      &r);
  EXPECT_EQ(r.codes[0], Status::Code::kBusy);
  EXPECT_EQ(r.codes[1], Status::Code::kOk);
  EXPECT_GE(StoreMetric(*store, "mlkv_io_async_reads_refetched_total"), 1u);
  EXPECT_GE(StoreMetric(*store, "mlkv_store_busy_aborts_total"), 1u);
}

TEST(PendingReadTest, InjectedFaultsFailOnlyTheirKeys) {
  TempDir dir;
  AsyncIoEngine engine;
  auto script = std::make_shared<FaultyFileDevice::Script>();
  ShardedStoreOptions o = ColdStoreOptions(dir.File("f.log"), 0, &engine);
  o.store.index_slots = 1u << 16;  // no shared chains among kSpreadKeys
  o.store.device_factory = [script]() {
    return std::make_unique<FaultyFileDevice>(script);
  };
  ShardedStore store;
  ASSERT_TRUE(store.Open(o).ok());
  LoadKeys(&store, kSpreadKeys);
  FasterStore* shard = store.shard(0);

  // 32 distinct cold keys in four clusters of eight, the clusters more
  // than kMaxMergedReadBytes apart: the wave reads each cluster once,
  // carrying its eight keys. The gaps between clusters exceed the
  // engine's kMaxGapBytes too, so its queue merge never joins two of
  // their reads, whichever workers are busy.
  const Key apart = SpanKeys(shard) + 64;
  std::vector<Key> keys;
  std::map<Key, size_t> cluster_of;
  for (size_t c = 0; c < 4; ++c) {
    for (Key k = 0; k < 8; ++k) {
      keys.push_back(c * apart + k * 8);
      cluster_of[keys.back()] = c;
    }
  }
  ASSERT_GT(AddressOf(shard, apart) -
                (AddressOf(shard, 56) + Record::SizeFor(kValueBytes)),
            AsyncIoEngine::kMaxGapBytes);
  for (const Key k : keys) ASSERT_FALSE(store.IsInMemory(k)) << "key " << k;
  std::vector<char> out(keys.size() * kValueBytes, 0);

  // Fail exactly one device read; phase 1 issues none, so it is one of
  // the wave's reads, and only the keys it carried fail.
  const WaveCounts before = Counts(store);
  script->fail_from.store(script->reads.load() + 2);
  script->fail_count.store(1);
  BatchResult r;
  store.MultiExecuteRead(keys, RawReadOp(out.data(), kValueBytes), &r);
  const WaveCounts wave = Counts(store) - before;
  ASSERT_EQ(wave.hops, 0u) << "a chain hop would add a read of its own";
  EXPECT_EQ(wave.device_reads, 4u);

  EXPECT_TRUE(r.first_error.IsIOError());
  std::set<size_t> failed_clusters;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (r.codes[i] == Status::Code::kIOError) {
      failed_clusters.insert(cluster_of[keys[i]]);
      continue;
    }
    ASSERT_EQ(r.codes[i], Status::Code::kOk) << "sibling poisoned at " << i;
    ExpectValue(&out[i * kValueBytes], keys[i]);
  }
  // The failures are exactly the keys of one cluster's read.
  EXPECT_EQ(failed_clusters.size(), 1u);
  EXPECT_EQ(r.failed, 8u);

  // A persistently failing device fails every cold key — and still no
  // crash, hang, or misattributed success. The pass above copied its keys
  // to the tail, so this one reads keys it left cold.
  std::vector<Key> cold;
  for (const Key k : keys) {
    ASSERT_FALSE(store.IsInMemory(k + 1)) << "key " << k + 1;
    cold.push_back(k + 1);
  }
  script->fail_from.store(1);
  script->fail_count.store(UINT64_MAX);
  BatchResult all_fail;
  store.MultiExecuteRead(cold, RawReadOp(out.data(), kValueBytes),
                         &all_fail);
  EXPECT_EQ(all_fail.failed, cold.size());
  script->fail_from.store(0);  // disarm
}

TEST(PendingReadTest, ColdKeysWithinOneSpanShareOneDeviceRead) {
  TempDir dir;
  AsyncIoEngine engine;
  FasterStore store;
  OpenWithGeometry(LargePageOptions(dir.File("m.log"), &engine), &store);
  LoadKeys(&store, kLargePageKeys);

  // Twelve cold keys, every seventh record from key 100: one page, a span
  // well inside kMaxMergedReadBytes, and a gap between every pair (23
  // segments, within the engine's kMaxReadSegments).
  std::vector<Key> keys;
  for (Key k = 100; keys.size() < 12; k += 7) keys.push_back(k);
  ASSERT_LE(2 * keys.size() - 1, AsyncIoEngine::kMaxReadSegments);
  const Address first = AddressOf(&store, keys.front());
  const Address last = AddressOf(&store, keys.back());
  ASSERT_EQ(first / kLargePage, last / kLargePage);
  ASSERT_LE(last + Record::SizeFor(kValueBytes) - first, kMaxMergedReadBytes);

  const WaveCounts before = Counts(store);
  std::vector<char> out;
  const std::vector<Status> status = ReadWave(&store, &engine, keys, &out);
  const WaveCounts wave = Counts(store) - before;
  EXPECT_EQ(wave.device_reads, 1u);
  EXPECT_EQ(wave.records, keys.size());
  EXPECT_EQ(wave.hops, 0u);
  EXPECT_EQ(StoreMetric(store, "mlkv_io_async_reads_completed_total"),
            StoreMetric(store, "mlkv_io_async_reads_submitted_total"));
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(status[i].ok()) << "key " << keys[i] << ": "
                                << status[i].ToString();
    ExpectValue(&out[i * kValueBytes], keys[i]);
  }
}

TEST(PendingReadTest, ColdKeysOnAdjacentPagesShareOneDeviceRead) {
  TempDir dir;
  AsyncIoEngine engine;
  FasterStore store;
  OpenWithGeometry(LargePageOptions(dir.File("p.log"), &engine), &store);
  LoadKeys(&store, kLargePageKeys);

  // Eight cold keys, four on each side of a page boundary: one span well
  // inside kMaxMergedReadBytes, so one device read carries both pages.
  Key boundary = 100;  // first key of the next page
  while (PageOf(&store, boundary) == PageOf(&store, boundary - 1)) ++boundary;
  std::vector<Key> keys;
  for (Key k = boundary - 12; k < boundary + 12; k += 3) keys.push_back(k);
  ASSERT_LT(PageOf(&store, keys.front()), PageOf(&store, keys.back()));
  ASSERT_LE(AddressOf(&store, keys.back()) + Record::SizeFor(kValueBytes) -
                AddressOf(&store, keys.front()),
            kMaxMergedReadBytes);

  const WaveCounts before = Counts(store);
  std::vector<char> out;
  const std::vector<Status> status = ReadWave(&store, &engine, keys, &out);
  const WaveCounts wave = Counts(store) - before;
  EXPECT_EQ(wave.device_reads, 1u);
  EXPECT_EQ(wave.records, keys.size());
  EXPECT_EQ(wave.hops, 0u);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(status[i].ok()) << "key " << keys[i] << ": "
                                << status[i].ToString();
    ExpectValue(&out[i * kValueBytes], keys[i]);
  }
}

TEST(PendingReadTest, ColdKeysApartTakeOneDeviceReadEach) {
  TempDir dir;
  AsyncIoEngine engine;
  FasterStore store;
  OpenWithGeometry(LargePageOptions(dir.File("a.log"), &engine), &store);
  LoadKeys(&store, kSpreadKeys);

  // Five keys, each one just past kMaxMergedReadBytes from the one before.
  const Key apart = SpanKeys(&store);
  std::vector<Key> keys;
  for (Key k = 10; keys.size() < 5; k += apart) keys.push_back(k);
  for (size_t i = 1; i < keys.size(); ++i) {
    ASSERT_GT(AddressOf(&store, keys[i]) + Record::SizeFor(kValueBytes) -
                  AddressOf(&store, keys[i - 1]),
              kMaxMergedReadBytes);
  }

  const WaveCounts before = Counts(store);
  std::vector<char> out;
  const std::vector<Status> status = ReadWave(&store, &engine, keys, &out);
  const WaveCounts wave = Counts(store) - before;
  EXPECT_EQ(wave.device_reads, keys.size());
  EXPECT_EQ(wave.records, keys.size());
  EXPECT_EQ(wave.hops, 0u);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(status[i].ok()) << "key " << keys[i];
    ExpectValue(&out[i * kValueBytes], keys[i]);
  }
}

TEST(PendingReadTest, NoMergedReadSpansMoreThanTheWindow) {
  // A wave of cold keys strided so that the span, not the segment count,
  // ends each merged read (every record adds a gap and a member segment):
  // every device read stays within kMaxMergedReadBytes, and the reads
  // reach across pages up to it. The engine has far more workers than the
  // wave has reads, so one is always idle and the engine never merges
  // queued reads (io/async_io.h): the device sees the wave's reads as
  // submitted, however the workers are scheduled.
  constexpr size_t kWorkers = 16;
  TempDir dir;
  AsyncIoEngine::Options eo;
  eo.io_threads = kWorkers;
  AsyncIoEngine engine(eo);
  auto lengths = std::make_shared<ReadLengths>();
  FasterOptions o = LargePageOptions(dir.File("w.log"), &engine);
  o.device_factory = [lengths]() {
    return std::make_unique<LengthRecordingDevice>(lengths);
  };
  FasterStore store;
  OpenWithGeometry(o, &store);
  LoadKeys(&store, kSpreadKeys);

  const uint32_t record = Record::SizeFor(kValueBytes);
  const Key stride = SpanKeys(&store) / 10;
  std::vector<Key> keys;
  for (Key k = 0; k + stride < kSpreadKeys / 2; k += stride) keys.push_back(k);
  // Records one read carries: its first, and every one whose end is still
  // within the window of the first's start.
  const size_t per_read =
      (kMaxMergedReadBytes - record) / (stride * record) + 1;
  ASSERT_LE(2 * per_read - 1, AsyncIoEngine::kMaxReadSegments);
  // Room to spare for flush writes the wave's tail copies may add.
  const size_t wave_reads = (keys.size() + per_read - 1) / per_read;
  ASSERT_LE(wave_reads, kWorkers / 4);

  lengths->reads.store(0);
  lengths->longest.store(0);
  const WaveCounts before = Counts(store);
  std::vector<char> out;
  const std::vector<Status> status = ReadWave(&store, &engine, keys, &out);
  const WaveCounts wave = Counts(store) - before;
  EXPECT_EQ(wave.records, keys.size());
  EXPECT_EQ(wave.hops, 0u);
  EXPECT_EQ(lengths->reads.load(), wave.device_reads);
  EXPECT_EQ(wave.device_reads, wave_reads);
  EXPECT_LE(lengths->longest.load(), kMaxMergedReadBytes);
  EXPECT_EQ(lengths->longest.load(), (per_read - 1) * stride * record + record);
  EXPECT_GT(lengths->longest.load(), kLargePage);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(status[i].ok()) << "key " << keys[i];
    ExpectValue(&out[i * kValueBytes], keys[i]);
  }
}

TEST(PendingReadTest, MergedReadMembersHopLikeTheBlockingPath) {
  // A dense cold batch over an index far smaller than the key count:
  // span-merged reads carry records that are other keys' chain links, so
  // members hop (on the device and, past the hop budget, on the blocking
  // walk) after their merged read lands. Results match the blocking path
  // byte for byte.
  constexpr uint64_t kKeys = 2000;
  TempDir sync_dir, async_dir;
  AsyncIoEngine engine;
  ShardedStoreOptions sync_opts =
      ColdStoreOptions(sync_dir.File("s.log"), 0, nullptr);
  ShardedStoreOptions async_opts =
      ColdStoreOptions(async_dir.File("a.log"), 0, &engine);
  sync_opts.store.index_slots = ShardedStore::kMinShardIndexSlots;
  async_opts.store.index_slots = ShardedStore::kMinShardIndexSlots;
  ShardedStore sync_store, async_store;
  ASSERT_TRUE(sync_store.Open(sync_opts).ok());
  ASSERT_TRUE(async_store.Open(async_opts).ok());
  LoadKeys(&sync_store, kKeys);
  LoadKeys(&async_store, kKeys);

  std::vector<Key> keys;
  for (Key k = 0; k < 192; ++k) keys.push_back(k);
  std::vector<char> sync_out(keys.size() * kValueBytes, 0);
  std::vector<char> async_out(keys.size() * kValueBytes, 0);
  BatchResult sync_r, async_r;
  const WaveCounts before = Counts(async_store);
  sync_store.MultiExecuteRead(keys, RawReadOp(sync_out.data(), kValueBytes),
                              &sync_r);
  async_store.MultiExecuteRead(keys, RawReadOp(async_out.data(), kValueBytes),
                               &async_r);
  const WaveCounts wave = Counts(async_store) - before;
  ASSERT_EQ(sync_r.codes, async_r.codes);
  EXPECT_EQ(sync_out, async_out);
  EXPECT_TRUE(async_r.AllOk());
  EXPECT_GT(wave.hops, 0u);
  EXPECT_GT(wave.refetched, 0u);
  // Merging happened: fewer device reads than records landed.
  EXPECT_LT(wave.device_reads, wave.records);
}

TEST(PendingReadTest, StaleMemberOfMergedReadFallsBackAlone) {
  // Under BSP a record whose frozen staleness fails the bound falls back
  // to the blocking protocol (which spins out to Busy), while the keys
  // that shared its merged read are served from it.
  TempDir dir;
  AsyncIoEngine engine;
  ShardedStoreOptions o = ColdStoreOptions(dir.File("b.log"), 0, &engine);
  o.store.track_staleness = true;
  o.store.staleness_bound = 0;
  o.store.busy_spin_limit = 16;
  ShardedStore sharded;
  ASSERT_TRUE(sharded.Open(o).ok());
  FasterStore* store = sharded.shard(0);
  char value[kValueBytes];
  FillValue(42, value);
  ASSERT_TRUE(store->Upsert(42, value, kValueBytes).ok());
  char buf[kValueBytes];
  for (int i = 0; i < 3; ++i) {  // tracked reads: staleness -> 3
    ASSERT_TRUE(
        store->Read(42, buf, kValueBytes, nullptr, UINT32_MAX - 2).ok());
  }
  for (Key filler = 1000; filler < 3000; ++filler) {
    FillValue(filler, value);
    ASSERT_TRUE(store->Upsert(filler, value, kValueBytes).ok());
  }
  const std::vector<Key> keys = {42, 1000, 1001, 1002};
  for (const Key k : keys) {
    ASSERT_FALSE(store->IsInMemory(k)) << "key " << k;
    ASSERT_EQ(PageOf(store, k), PageOf(store, 42)) << "key " << k;
  }

  std::vector<char> rows(keys.size() * kValueBytes, 0);
  std::vector<Status> status(keys.size());
  PendingSink sink;
  for (size_t i = 0; i < keys.size(); ++i) {
    PendingRead p;
    ASSERT_FALSE(store->StartRead(keys[i], rows.data() + i * kValueBytes,
                                  kValueBytes, nullptr, UINT32_MAX,
                                  /*tracked=*/true, &p));
    sink.Park(store, std::move(p), [&status, i](PendingRead* done) {
      status[i] = done->status;
    });
  }
  const WaveCounts before = Counts(*store);
  PendingReadWave wave(&engine);
  wave.Adopt(&sink);
  wave.CompleteAll();
  const WaveCounts delta = Counts(*store) - before;

  EXPECT_TRUE(status[0].IsBusy()) << status[0].ToString();
  for (size_t i = 1; i < keys.size(); ++i) {
    ASSERT_TRUE(status[i].ok()) << "key " << keys[i];
    ExpectValue(&rows[i * kValueBytes], keys[i]);
  }
  EXPECT_EQ(delta.device_reads, 1u);
  EXPECT_EQ(delta.refetched, 1u);
}

TEST(PendingReadTest, FailedMergedReadFailsExactlyItsMembers) {
  // Two clusters of cold keys, more than kMaxMergedReadBytes apart: two
  // merged reads. The first one fails on the device; its keys carry the
  // error and the other read's keys are served. One engine worker, so
  // device reads run in submission order (ascending address): the first
  // read is the lower cluster's. The clusters lie more than the engine's
  // kMaxGapBytes apart too, so its queue merge never joins the two reads.
  TempDir dir;
  AsyncIoEngine::Options eo;
  eo.io_threads = 1;
  AsyncIoEngine engine(eo);
  auto script = std::make_shared<FaultyFileDevice::Script>();
  ShardedStoreOptions o = ColdStoreOptions(dir.File("f.log"), 0, &engine);
  o.store.index_slots = 1u << 16;  // no shared chains among kSpreadKeys
  o.store.device_factory = [script]() {
    return std::make_unique<FaultyFileDevice>(script);
  };
  ShardedStore sharded;
  ASSERT_TRUE(sharded.Open(o).ok());
  LoadKeys(&sharded, kSpreadKeys);
  FasterStore* store = sharded.shard(0);

  const Key high = SpanKeys(store) + 200;
  const std::vector<Key> keys = {high + 10, 0, high + 5, 5, high, 10};
  ASSERT_GT(AddressOf(store, high) + Record::SizeFor(kValueBytes) -
                AddressOf(store, 0),
            kMaxMergedReadBytes);
  ASSERT_LE(AddressOf(store, high + 10) + Record::SizeFor(kValueBytes) -
                AddressOf(store, high),
            kMaxMergedReadBytes);
  ASSERT_GT(AddressOf(store, high) -
                (AddressOf(store, 10) + Record::SizeFor(kValueBytes)),
            AsyncIoEngine::kMaxGapBytes);
  std::vector<bool> on_low;
  for (const Key k : keys) on_low.push_back(k < high);

  script->fail_from.store(script->reads.load() + 1);
  script->fail_count.store(1);
  const WaveCounts before = Counts(*store);
  std::vector<char> out;
  const std::vector<Status> status = ReadWave(store, &engine, keys, &out);
  const WaveCounts wave = Counts(*store) - before;
  script->fail_from.store(0);

  EXPECT_EQ(wave.device_reads, 2u);
  EXPECT_EQ(wave.records, 3u);  // only the served read's records landed
  for (size_t i = 0; i < keys.size(); ++i) {
    if (on_low[i]) {
      EXPECT_TRUE(status[i].IsIOError()) << "key " << keys[i];
    } else {
      ASSERT_TRUE(status[i].ok()) << "key " << keys[i];
      ExpectValue(&out[i * kValueBytes], keys[i]);
    }
  }
}

TEST(PendingReadTest, MlkvWaveServesPutRowsInitAndLookahead) {
  // End-to-end through Mlkv/EmbeddingTable, whose batched reads always go
  // through the wave: cold rows come back as they were Put, a never-stored
  // key gets InitEmbedding's row, Lookahead promotions ride the same
  // pipeline, and closing the DB right after issuing lookaheads drains
  // cleanly.
  constexpr uint32_t kDim = 8;
  constexpr uint64_t kKeys = 1500;
  TempDir dir;
  MlkvOptions o;
  o.dir = dir.path() + "/db";
  o.store.mem_size = 1u << 16;
  o.store.page_size = 1u << 12;
  o.shard_bits = 2;
  o.engine.io_threads = 4;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(o, &db).ok());
  EmbeddingTable* table = nullptr;
  ASSERT_TRUE(db->OpenTable("emb", kDim, kAspBound, &table).ok());

  const auto row_value = [](Key k, uint32_t d) {
    return static_cast<float>(k * 100 + d);
  };
  std::vector<Key> keys(kKeys);
  std::vector<float> rows(kKeys * kDim);
  for (uint64_t k = 0; k < kKeys; ++k) {
    keys[k] = k;
    for (uint32_t d = 0; d < kDim; ++d) rows[k * kDim + d] = row_value(k, d);
  }
  BatchResult put;
  ASSERT_TRUE(table->Put(keys, rows.data(), &put).ok());

  // Cold batched gets: strided + duplicates + a fresh key.
  const Key fresh = kKeys + 77;
  std::vector<Key> batch;
  for (uint64_t i = 0; i < 300; ++i) batch.push_back((i * 13) % kKeys);
  batch.push_back(batch[0]);
  batch.push_back(fresh);
  std::vector<float> out(batch.size() * kDim, 0.0f);
  BatchResult got;
  ASSERT_TRUE(table->GetOrInit(batch, out.data(), &got).ok());
  EXPECT_TRUE(got.AllOk());
  EXPECT_EQ(got.missing, 1u);
  EXPECT_GT(
      StoreMetric(*table->store(), "mlkv_io_async_reads_submitted_total"),
      0u);
  for (size_t i = 0; i + 1 < batch.size(); ++i) {
    for (uint32_t d = 0; d < kDim; ++d) {
      ASSERT_EQ(out[i * kDim + d], row_value(batch[i], d))
          << "key " << batch[i] << " lane " << d;
    }
  }
  std::vector<float> init(kDim);
  InitEmbedding(fresh, kDim, init.data());
  EXPECT_EQ(std::memcmp(&out[(batch.size() - 1) * kDim], init.data(),
                        kDim * sizeof(float)),
            0);
  // The bootstrap row was stored: a plain Get serves it now.
  std::vector<float> again(kDim, 0.0f);
  ASSERT_TRUE(table->Get({&fresh, 1}, again.data()).ok());
  EXPECT_EQ(again, init);

  // Lookahead promotion over cold keys rides the same pipeline.
  std::vector<Key> ahead;
  for (Key k = 0; k < 64; ++k) ahead.push_back(k);
  ASSERT_TRUE(table->Lookahead(ahead).ok());
  table->WaitLookahead();
  EXPECT_GT(StoreMetric(*table->store(), "mlkv_store_promotions_total"), 0u);

  // Drain-on-close: issue lookaheads and destroy immediately.
  ASSERT_TRUE(table->Lookahead(ahead).ok());
  db.reset();
}

TEST(PendingReadTest, TrackedColdGetLeavesThePutNothingToRead) {
  // A training step: tracked MultiGet of cold rows, then MultiPut of the
  // same rows. The Get copies each cold record to the mutable tail with
  // its staleness increment, so the Put updates every row in place and
  // issues no device read (the store's own exposition shows both).
  constexpr uint32_t kDim = 8;
  constexpr size_t kLoad = 2000, kStep = 64;
  constexpr double kStepRows = kStep;
  TempDir dir;
  BackendConfig cfg;
  cfg.dir = dir.File("m");
  cfg.dim = kDim;
  cfg.buffer_bytes = 1u << 16;
  cfg.index_slots = 4096;
  cfg.mlkv.engine.io_threads = 2;
  std::unique_ptr<KvBackend> backend;
  ASSERT_TRUE(MakeBackend(BackendKind::kMlkv, cfg, &backend).ok());
  const auto sample = [&](const char* name) {
    obs::MetricsSink sink;
    backend->CollectMetrics(&sink);
    return MetricSum(sink, name);
  };

  std::vector<Key> keys(kLoad);
  std::vector<float> rows(kLoad * kDim);
  for (size_t i = 0; i < kLoad; ++i) {
    keys[i] = i;
    for (uint32_t d = 0; d < kDim; ++d) {
      rows[i * kDim + d] = static_cast<float>(i) + 0.5f * static_cast<float>(d);
    }
  }
  ASSERT_TRUE(backend->MultiPut(keys, rows.data()).AllOk());

  // The first rows written are the coldest.
  const std::vector<Key> step(keys.begin(), keys.begin() + kStep);
  const double reads_before_get = sample("mlkv_io_disk_record_reads_total");
  std::vector<float> got(kStep * kDim);
  ASSERT_TRUE(backend->MultiGet(step, got.data()).AllOk());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), rows.begin()));
  const double reads_before_put = sample("mlkv_io_disk_record_reads_total");
  EXPECT_GE(reads_before_put - reads_before_get, kStepRows) << "rows warm";
  EXPECT_EQ(sample("mlkv_store_read_copies_total"), kStepRows);

  const double inplace_before = sample("mlkv_store_inplace_updates_total");
  for (float& v : got) v += 1.0f;
  ASSERT_TRUE(backend->MultiPut(step, got.data()).AllOk());
  EXPECT_EQ(sample("mlkv_io_disk_record_reads_total"), reads_before_put);
  EXPECT_EQ(sample("mlkv_store_inplace_updates_total") - inplace_before,
            kStepRows);

  std::vector<float> again(kStep * kDim);
  ASSERT_TRUE(backend->MultiGet(step, again.data()).AllOk());
  EXPECT_EQ(again, got);
}

}  // namespace
}  // namespace mlkv
