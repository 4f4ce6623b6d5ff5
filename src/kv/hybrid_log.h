// HybridLog: FASTER's central data structure — a single logical log address
// space whose tail lives in an in-memory circular page buffer and whose cold
// prefix lives on disk.
//
//   0 ............ head ............ read_only ............ tail
//   |-- on disk --|-- in-memory, immutable (flushed) --|-- mutable --|
//
// * Records in the MUTABLE region [read_only, tail) are updated in place.
// * Records in the READ-ONLY region [head, read_only) are in memory but
//   frozen: updates go read-copy-update (append a new version at the tail).
//   Pages in this region have been written to the log file, so their frames
//   can be evicted when the buffer wraps.
// * Records below `head` are read from disk on demand.
//
// MLKV's look-ahead prefetching (paper Fig. 5(b)) promotes records from the
// DISK region back into the MUTABLE region ahead of use — and deliberately
// skips records already in the READ-ONLY in-memory region, because copying
// those would only re-dirty pages ("if the data is not on disk but in the
// immutable memory buffer, we will not copy it into the mutable memory").
//
// Concurrency design (deviations from FASTER; README, "Substitutions and
// deviations"):
// * Allocation takes a short spinlock; page roll-over (flush + eviction)
//   happens inside it on the rolling thread.
// * Readers of non-mutable frames validate with a per-frame page-id seqlock:
//   load frame_page, copy bytes, re-load frame_page; eviction invalidates
//   frame_page first, so torn copies are detected and retried via disk.
// * In-place writers register in a per-frame writer count and re-check the
//   read-only boundary after registering; the flusher advances the boundary
//   first and then waits for the count to drain, so a below-read-only page
//   is never flushed while a value write to it is in flight. For mutable
//   pages flushed by Persist(), the drain is best-effort — a writer that
//   registers after the drain check can tear the flushed value image, but
//   it marked the frame dirty before touching bytes, so the next Persist
//   rewrites the page; header and chain bytes are never torn because they
//   are written exactly once under the Allocate() registration.
// * Appenders hold the same per-frame registration from Allocate() until
//   EndAppend(): a page roll elsewhere cannot flush (let alone recycle) a
//   frame while a freshly allocated record in it is still being filled in —
//   otherwise a preempted appender's half-written header could reach disk
//   and sever the hash chain through it.
//
// Flush / device ownership:
// * The log owns its FileDevice, built through HybridLogOptions::
//   device_factory (tests inject fault decorators; see
//   io/faulty_file_device.h) and opened with Open's `truncate`.
// * All page flushes funnel through one prepare step (writer drain + dirty
//   clear + partial-tail length). With an AsyncIoEngine configured the
//   pages of one flush — page roll, FlushAll, Persist — go to the device
//   as a single coalesced write wave; without one they are sequential
//   blocking WriteAt calls, byte-identical on disk either way.
// * A flushed page is in the page cache, not durable. The durable
//   watermark (`durable_address()`) advances only after a successful
//   device Sync: FlushAll/Persist in kSync mode issue their own, kGroup
//   mode parks on the shared GroupCommitter so concurrent Persist callers
//   share one fsync.
// * Per-frame dirty bits (set by Allocate and BeginInPlaceWrite, cleared
//   when a flush snapshots the frame) let Persist skip pages whose disk
//   image is already current — the incremental-flush contract checkpoints
//   build on.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "io/async_io.h"
#include "io/file_device.h"
#include "io/group_committer.h"
#include "kv/record.h"

namespace mlkv {

struct HybridLogOptions {
  // Log page size, a power of two. FasterStore::Open treats it as an upper
  // bound and halves it (down to 4 KiB) until FasterStore::
  // kMinResidentFrames pages fit in mem_size, so small buffers get
  // fine-grained eviction; Recover takes the page from the checkpoint.
  uint64_t page_size = 1ull << 20;
  uint64_t mem_size = 64ull << 20;   // in-memory buffer (circular, pages)
  // Share of the buffer kept mutable. 90% is FASTER's own default
  // (Chandramouli et al., SIGMOD'18): only the oldest tenth of the buffer
  // is read-only, the window that absorbs page flushes.
  double mutable_fraction = 0.9;
  std::string path;                  // backing log file
  // Builds the backing device (before Open is called on it). Null uses a
  // plain FileDevice; tests inject decorators (io/faulty_file_device.h).
  std::function<std::unique_ptr<FileDevice>()> device_factory;
  // Shared engine for the log's coalesced flush waves (page roll,
  // FlushAll, Persist); null keeps every flush a sequential blocking
  // WriteAt loop (byte-identical on disk). A ShardedStore also sends its
  // batched reads through it. Not owned.
  AsyncIoEngine* io = nullptr;
  // Write durability (docs/DURABILITY.md). kGroup: Persist() commits
  // through a per-log GroupCommitter (concurrent callers share one fsync,
  // bounded by `group_commit`), and FasterStore::Recover replays
  // group-committed records past the checkpoint tail. kSync (default)
  // keeps each sync point its own fdatasync and checkpoint-only
  // durability, byte-identical on disk.
  DurabilityMode durability = DurabilityMode::kSync;
  GroupCommitter::Options group_commit;
};

struct HybridLogStats {
  std::atomic<uint64_t> pages_flushed{0};
  std::atomic<uint64_t> pages_evicted{0};
  std::atomic<uint64_t> disk_record_reads{0};
  // Write-pipeline counters: pages submitted to / completed by the async
  // write wave (zero when no engine is configured) and fdatasyncs issued
  // directly by this log (the GroupCommitter counts its own).
  std::atomic<uint64_t> async_writes_submitted{0};
  std::atomic<uint64_t> async_writes_completed{0};
  std::atomic<uint64_t> fsyncs{0};
};

class HybridLog {
 public:
  HybridLog() = default;
  ~HybridLog();

  HybridLog(const HybridLog&) = delete;
  HybridLog& operator=(const HybridLog&) = delete;

  // `truncate` false keeps the existing file (recovery).
  Status Open(const HybridLogOptions& options, bool truncate = true);

  // --- Address-space boundaries (monotonically non-decreasing) ---
  Address tail() const { return tail_.load(std::memory_order_acquire); }
  Address read_only_address() const {
    return read_only_.load(std::memory_order_acquire);
  }
  Address head_address() const {
    return head_.load(std::memory_order_acquire);
  }
  Address begin_address() const {
    return begin_.load(std::memory_order_acquire);
  }

  bool InMutableRegion(Address a) const { return a >= read_only_address(); }
  bool InMemory(Address a) const { return a >= head_address(); }

  // Allocates `size` bytes (8-aligned) at the tail; may synchronously flush
  // and evict pages when rolling to a new page. Returns the address, and a
  // raw pointer to the (mutable-region) bytes. On success the caller holds
  // an append registration on the frame and MUST call EndAppend(*address)
  // once the bytes are fully written; flushes of the page wait for it.
  Status Allocate(uint32_t size, Address* address, char** memory);

  // Releases the append registration taken by Allocate().
  void EndAppend(Address a) { EndInPlaceWrite(a); }

  // Raw pointer to an in-memory address. Only safe for the mutable region
  // (frames there are never evicted); callers in the read-only region must
  // use the validated copy API below.
  char* MutablePointer(Address a) { return FramePointer(a); }

  // Seqlock-validated copy of `n` bytes at `a` from the in-memory buffer.
  // Fails (returns false) if the frame was evicted or replaced mid-copy; the
  // caller falls back to ReadFromDisk.
  bool TryReadMemory(Address a, void* out, uint32_t n) const;

  // Reads a record (header + value) at `a` from the log file in one device
  // read of sizeof(Record) + value_cap bytes (the header alone when
  // `value_out` is null). `value_cap` is the size of `value_out`; values
  // longer than the cap are truncated (the full size is reported in
  // meta->value_size), so callers that know the size pass exactly it.
  Status ReadFromDisk(Address a, RecordMeta* meta, void* value_out,
                      uint32_t value_cap) const;

  // Bulk copy of `n` raw log bytes at `a` (must not cross a page boundary):
  // seqlock-validated frame copy when resident, one file read otherwise.
  // Page-granular scans (compaction) use this instead of per-record reads.
  Status ReadRaw(Address a, void* out, uint32_t n) const;

  // Registers an in-place writer for the frame holding `a`, re-checking that
  // `a` is still mutable. Returns false if the region became read-only (the
  // caller must fall back to RCU). Pair with EndInPlaceWrite.
  bool BeginInPlaceWrite(Address a);
  void EndInPlaceWrite(Address a);

  // Waits until no in-place writer is registered on the frame holding `a`.
  // For `a` below the read-only boundary this is the point after which its
  // in-memory bytes are final: writers that registered before the boundary
  // moved have finished, and later ones fail BeginInPlaceWrite's re-check.
  void AwaitInPlaceWriters(Address a) const;

  // Advances the read-only boundary to the current tail and drains writers
  // already registered on the frames, then returns that tail. Afterwards
  // every update to a pre-seal record must RCU-append a fresh log record
  // instead of rewriting bytes in place — the property the replication feed
  // needs: a cursor that passed address A would otherwise never see an
  // in-place rewrite at A. The mutable region regrows as pages roll.
  Address SealMutableRegion();

  // Flushes all pages in [head, tail) to the log file (checkpoint support)
  // and syncs the device.
  Status FlushAll();

  // Incremental durability point: flushes only resident pages that are
  // dirty or hold bytes in [durable, tail), then makes the whole file
  // durable (one fdatasync in kSync mode, a shared GroupCommitter ticket
  // in kGroup mode) and advances the durable watermark to the tail
  // observed at entry. Returns without syncing when nothing changed since
  // the last Persist. Safe under concurrent operations — see the
  // best-effort drain note in the header comment.
  Status Persist();

  // Highest address known durable on media: every record below it survives
  // a crash (modulo later in-place updates, which re-dirty their page and
  // become durable at the next Persist/FlushAll).
  Address durable_address() const {
    return durable_.load(std::memory_order_acquire);
  }

  // Non-null only in DurabilityMode::kGroup.
  GroupCommitter* committer() { return committer_.get(); }

  // Reads raw file bytes at `a` regardless of the log boundaries — the
  // recovery scan uses this to walk group-committed records beyond the
  // checkpoint tail before the boundaries are extended over them. Reads
  // past EOF zero-fill.
  Status ReadDisk(Address a, void* out, uint32_t n) const {
    return file_->ReadAt(a, out, n);
  }

  // Truncates the backing file at `a` (recovery: discard a torn tail so
  // stale bytes cannot resurface as valid records — past-EOF reads
  // zero-fill, which scans as a gap).
  Status DiscardDiskBeyond(Address a);

  // Advances the begin address (log garbage collection). Addresses below
  // `new_begin` become permanently unreachable; whole pages below it have
  // their file blocks released via hole punching. Monotonic; `new_begin`
  // must not exceed the read-only boundary. The caller (FasterStore::
  // Compact) guarantees no chain walk can reach the dead region afterwards.
  Status ShiftBeginAddress(Address new_begin);

  const HybridLogOptions& options() const { return options_; }
  const HybridLogStats& stats() const { return stats_; }
  FileDevice* device() { return file_.get(); }
  const FileDevice* device() const { return file_.get(); }
  // Accounts a record read served from disk by an external path (the
  // pending-read pipeline issues its I/O through the AsyncIoEngine, not
  // ReadFromDisk, but the operator-facing counter must still move).
  void NoteDiskRecordRead() const {
    stats_.disk_record_reads.fetch_add(1, std::memory_order_relaxed);
  }

  // Used by recovery to restore boundaries after reloading metadata. All
  // in-memory state is discarded; everything in [begin, tail) is
  // disk-resident.
  Status RestoreBoundaries(Address tail, Address begin = kLogBegin);

  // First usable address (0 is reserved as kInvalidAddress).
  static constexpr Address kLogBegin = 64;

 private:
  uint64_t PageOf(Address a) const { return a >> page_bits_; }
  uint64_t PageStart(uint64_t page) const { return page << page_bits_; }
  uint64_t FrameOf(uint64_t page) const { return page % mem_pages_; }

  char* FramePointer(Address a) {
    const uint64_t page = PageOf(a);
    return frames_[FrameOf(page)].get() + (a & (options_.page_size - 1));
  }
  const char* FramePointer(Address a) const {
    return const_cast<HybridLog*>(this)->FramePointer(a);
  }

  // Rolls the log forward so that `page` has a clean, resident frame.
  // Called with alloc_lock_ held.
  Status ProvisionPage(uint64_t page);
  // Clears the dirty bit, drains in-place writers, and returns the flush
  // length for `page` (0 when the page holds no bytes below the tail).
  uint32_t PreparePageFlush(uint64_t page, Address tail_now);
  Status FlushPage(uint64_t page);
  // Flushes every resident page in `pages` — one coalesced engine wave
  // when options_.io is set, sequential FlushPage calls otherwise. Called
  // with alloc_lock_ held.
  Status FlushPageSet(const std::vector<uint64_t>& pages);
  void MarkDirty(uint64_t page) {
    frame_dirty_[FrameOf(page)].store(1, std::memory_order_release);
  }

  static constexpr uint64_t kInvalidPage = ~0ull;

  HybridLogOptions options_;
  std::unique_ptr<FileDevice> file_;
  int page_bits_ = 0;
  uint64_t mem_pages_ = 0;
  uint64_t mutable_pages_ = 0;

  std::vector<std::unique_ptr<char[]>> frames_;
  // Logical page currently resident in each frame (kInvalidPage if none);
  // doubles as the seqlock generation for validated reads.
  std::vector<std::atomic<uint64_t>> frame_page_;
  // Count of in-flight in-place value writes per frame.
  std::vector<std::atomic<int>> frame_writers_;
  // Set when a frame's bytes diverged from its disk image (new record or
  // in-place update); cleared when a flush snapshots the frame.
  std::vector<std::atomic<uint8_t>> frame_dirty_;
  // Highest page already flushed to the file (exclusive).
  uint64_t flushed_until_page_ = 0;
  // Highest page with a claimed, zeroed frame (allocation may proceed into
  // it). Guarded by alloc_lock_.
  uint64_t highest_provisioned_page_ = 0;

  std::atomic<Address> tail_{kLogBegin};
  std::atomic<Address> read_only_{kLogBegin};
  std::atomic<Address> head_{kLogBegin};
  std::atomic<Address> begin_{kLogBegin};
  // Advances only after a successful device sync (see durable_address()).
  std::atomic<Address> durable_{kLogBegin};

  // Declared after file_ so the committer thread stops before the device
  // closes.
  std::unique_ptr<GroupCommitter> committer_;

  std::atomic_flag alloc_lock_ = ATOMIC_FLAG_INIT;
  mutable HybridLogStats stats_;
};

}  // namespace mlkv
