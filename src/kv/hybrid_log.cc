#include "kv/hybrid_log.h"

#include <cassert>
#include <cstring>
#include <thread>
#include <vector>

#include "common/spin_wait.h"

namespace mlkv {

namespace {

class SpinGuard {
 public:
  explicit SpinGuard(std::atomic_flag* f) : f_(f) {
    while (f_->test_and_set(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  ~SpinGuard() { f_->clear(std::memory_order_release); }

 private:
  std::atomic_flag* f_;
};

int Log2(uint64_t v) {
  int b = 0;
  while ((1ull << b) < v) ++b;
  return b;
}

}  // namespace

HybridLog::~HybridLog() = default;

Status HybridLog::Open(const HybridLogOptions& options, bool truncate) {
  options_ = options;
  if ((options_.page_size & (options_.page_size - 1)) != 0) {
    return Status::InvalidArgument("page_size must be a power of two");
  }
  page_bits_ = Log2(options_.page_size);
  mem_pages_ = options_.mem_size / options_.page_size;
  if (mem_pages_ < 4) {
    return Status::InvalidArgument("mem_size must hold at least 4 pages");
  }
  mutable_pages_ =
      static_cast<uint64_t>(static_cast<double>(mem_pages_) *
                            options_.mutable_fraction);
  if (mutable_pages_ < 1) mutable_pages_ = 1;
  // At least two non-mutable resident pages so eviction never outruns the
  // flush boundary (head <= read_only must always hold).
  if (mutable_pages_ > mem_pages_ - 2) mutable_pages_ = mem_pages_ - 2;

  file_ = options_.device_factory ? options_.device_factory()
                                  : std::make_unique<FileDevice>();
  MLKV_RETURN_NOT_OK(file_->Open(options_.path, truncate));

  frames_.resize(mem_pages_);
  frame_page_ = std::vector<std::atomic<uint64_t>>(mem_pages_);
  frame_writers_ = std::vector<std::atomic<int>>(mem_pages_);
  frame_dirty_ = std::vector<std::atomic<uint8_t>>(mem_pages_);
  for (uint64_t i = 0; i < mem_pages_; ++i) {
    frames_[i].reset(new char[options_.page_size]);
    frame_page_[i].store(kInvalidPage, std::memory_order_relaxed);
    frame_writers_[i].store(0, std::memory_order_relaxed);
    frame_dirty_[i].store(0, std::memory_order_relaxed);
  }

  if (options_.durability == DurabilityMode::kGroup) {
    committer_ =
        std::make_unique<GroupCommitter>(file_.get(), options_.group_commit);
  }

  // Provision page 0 directly (no flushing can be needed yet).
  std::memset(frames_[0].get(), 0, options_.page_size);
  frame_page_[0].store(0, std::memory_order_release);

  tail_.store(kLogBegin, std::memory_order_release);
  read_only_.store(kLogBegin, std::memory_order_release);
  head_.store(kLogBegin, std::memory_order_release);
  begin_.store(kLogBegin, std::memory_order_release);
  durable_.store(kLogBegin, std::memory_order_release);
  flushed_until_page_ = 0;
  highest_provisioned_page_ = 0;
  return Status::OK();
}

Status HybridLog::ShiftBeginAddress(Address new_begin) {
  for (;;) {
    Address cur = begin_.load(std::memory_order_acquire);
    if (new_begin <= cur) return Status::OK();  // monotonic, no regress
    if (new_begin > read_only_.load(std::memory_order_acquire)) {
      return Status::InvalidArgument(
          "begin address cannot pass the read-only boundary");
    }
    if (begin_.compare_exchange_weak(cur, new_begin,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      break;
    }
  }
  // Reclaim whole dead pages. The page containing new_begin may still hold
  // live bytes, so only pages strictly below it are punched.
  const uint64_t first_live_page = PageOf(new_begin);
  if (first_live_page > 0) {
    MLKV_RETURN_NOT_OK(
        file_->PunchHole(0, PageStart(first_live_page)));
  }
  return Status::OK();
}

uint32_t HybridLog::PreparePageFlush(uint64_t page, Address tail_now) {
  const uint64_t f = FrameOf(page);
  // Clear the dirty bit BEFORE draining writers and snapshotting bytes: a
  // writer that slips in mid-flush re-marks it, so a torn value image is
  // rewritten by the next flush instead of being treated as current.
  frame_dirty_[f].store(0, std::memory_order_release);
  // Wait for in-flight in-place value writes. For below-read-only pages
  // this is exact (the boundary advanced first, so no new writer can
  // register); for mutable pages flushed by Persist it is best-effort — see
  // the drain note in the header comment.
  while (frame_writers_[f].load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  const uint64_t start = PageStart(page);
  if (start >= tail_now) return 0;
  uint64_t len = options_.page_size;
  if (start + len > tail_now) len = tail_now - start;  // partial tail page
  return static_cast<uint32_t>(len);
}

Status HybridLog::FlushPage(uint64_t page) {
  const uint32_t len =
      PreparePageFlush(page, tail_.load(std::memory_order_acquire));
  if (len == 0) return Status::OK();
  MLKV_RETURN_NOT_OK(
      file_->WriteAt(PageStart(page), frames_[FrameOf(page)].get(), len));
  stats_.pages_flushed.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status HybridLog::FlushPageSet(const std::vector<uint64_t>& pages) {
  if (pages.empty()) return Status::OK();
  if (options_.io == nullptr || pages.size() == 1) {
    for (uint64_t p : pages) {
      MLKV_RETURN_NOT_OK(FlushPage(p));
    }
    return Status::OK();
  }
  // One coalesced wave: prepare every page up front, submit them all, then
  // drain completions. The alloc lock (held by the caller) keeps the tail
  // and frame assignments stable for the duration.
  const Address tail_now = tail_.load(std::memory_order_acquire);
  AsyncIoEngine::Batch batch(options_.io);
  uint64_t submitted = 0;
  Status first_error;
  for (uint64_t p : pages) {
    const uint32_t len = PreparePageFlush(p, tail_now);
    if (len == 0) continue;
    const Status s = batch.SubmitWrite(file_.get(), PageStart(p),
                                       frames_[FrameOf(p)].get(), len, p);
    if (!s.ok()) {
      if (first_error.ok()) first_error = s;
      break;
    }
    ++submitted;
  }
  stats_.async_writes_submitted.fetch_add(submitted,
                                          std::memory_order_relaxed);
  AsyncIoEngine::Completion c;
  while (batch.WaitOne(&c)) {
    stats_.async_writes_completed.fetch_add(1, std::memory_order_relaxed);
    if (c.status.ok()) {
      stats_.pages_flushed.fetch_add(1, std::memory_order_relaxed);
    } else if (first_error.ok()) {
      first_error = c.status;
    }
  }
  return first_error;
}

Status HybridLog::ProvisionPage(uint64_t page) {
  // 1. Advance the read-only boundary so page `page` keeps exactly
  //    `mutable_pages_` pages of mutable region behind it, then flush the
  //    pages that just became read-only.
  if (page + 1 > mutable_pages_) {
    const uint64_t ro_page = page + 1 - mutable_pages_;
    const Address ro_addr = PageStart(ro_page);
    if (ro_addr > read_only_.load(std::memory_order_relaxed)) {
      read_only_.store(ro_addr, std::memory_order_release);
    }
    if (flushed_until_page_ < ro_page) {
      std::vector<uint64_t> to_flush;
      to_flush.reserve(ro_page - flushed_until_page_);
      for (uint64_t p = flushed_until_page_; p < ro_page; ++p) {
        to_flush.push_back(p);
      }
      MLKV_RETURN_NOT_OK(FlushPageSet(to_flush));
      flushed_until_page_ = ro_page;
    }
  }

  // 2. Evict frames for pages that fall out of the residency window.
  if (page + 1 > mem_pages_) {
    const uint64_t head_page = page + 1 - mem_pages_;
    const Address head_addr = PageStart(head_page);
    const Address cur_head = head_.load(std::memory_order_relaxed);
    if (head_addr > cur_head) {
      assert(head_page <= flushed_until_page_);
      for (uint64_t p = PageOf(cur_head); p < head_page; ++p) {
        frame_page_[FrameOf(p)].store(kInvalidPage, std::memory_order_release);
        stats_.pages_evicted.fetch_add(1, std::memory_order_relaxed);
      }
      head_.store(head_addr, std::memory_order_release);
    }
  }

  // 3. Claim the frame for the new page.
  const uint64_t f = FrameOf(page);
  assert(frame_page_[f].load(std::memory_order_relaxed) == kInvalidPage ||
         page == 0);
  std::memset(frames_[f].get(), 0, options_.page_size);
  frame_page_[f].store(page, std::memory_order_release);
  return Status::OK();
}

Status HybridLog::Allocate(uint32_t size, Address* address, char** memory) {
  size = (size + 7u) & ~7u;
  if (size == 0 || size > options_.page_size) {
    return Status::InvalidArgument("allocation exceeds page size");
  }
  SpinGuard g(&alloc_lock_);
  Address t = tail_.load(std::memory_order_relaxed);
  const uint64_t page_end = PageStart(PageOf(t)) + options_.page_size;
  if (t + size > page_end) {
    // Skip the remainder of the current page (frames are zeroed, so the gap
    // scans as invalid records) and roll to the next page.
    t = page_end;
  }
  if (t + size > kAddressLimit) {
    return Status::IOError("log address space exhausted");
  }
  // Provision lazily by page number, not by boundary crossing: an
  // allocation that exactly fills a page leaves the tail on the next page
  // start without crossing anything.
  const uint64_t page = PageOf(t);
  if (page > highest_provisioned_page_) {
    MLKV_RETURN_NOT_OK(ProvisionPage(page));
    highest_provisioned_page_ = page;
  }
  tail_.store(t + size, std::memory_order_release);
  *address = t;
  *memory = FramePointer(t);
  // Register the caller as a writer on this frame while the lock still
  // excludes page rolls: until EndAppend(), no flush can snapshot (and no
  // eviction can recycle) the frame under the half-written record.
  frame_writers_[FrameOf(page)].fetch_add(1, std::memory_order_acq_rel);
  MarkDirty(page);
  return Status::OK();
}

bool HybridLog::TryReadMemory(Address a, void* out, uint32_t n) const {
  const uint64_t page = PageOf(a);
  const uint64_t f = page % mem_pages_;
  if (frame_page_[f].load(std::memory_order_acquire) != page) return false;
  std::memcpy(out, FramePointer(a), n);
  std::atomic_thread_fence(std::memory_order_acquire);
  return frame_page_[f].load(std::memory_order_relaxed) == page;
}

Status HybridLog::ReadFromDisk(Address a, RecordMeta* meta, void* value_out,
                               uint32_t value_cap) const {
  // One device read covers the header and up to `value_cap` value bytes:
  // every ReadAt pays the full device latency, so a second one for the
  // value would double a cold record's cost.
  const size_t len = sizeof(Record) + (value_out != nullptr ? value_cap : 0);
  char stack_buf[1024];
  std::vector<char> heap_buf;
  char* buf = stack_buf;
  if (len > sizeof(stack_buf)) {
    heap_buf.resize(len);
    buf = heap_buf.data();
  }
  MLKV_RETURN_NOT_OK(file_->ReadAt(a, buf, len));
  struct RawHeader {
    uint64_t control;
    Address prev;
    Key key;
    uint32_t value_size;
    uint32_t flags;
  } raw;
  static_assert(sizeof(RawHeader) == sizeof(Record));
  std::memcpy(&raw, buf, sizeof(raw));
  meta->control = ControlWord::Sanitize(raw.control);
  meta->prev = raw.prev;
  meta->key = raw.key;
  meta->value_size = raw.value_size;
  meta->flags = raw.flags;
  stats_.disk_record_reads.fetch_add(1, std::memory_order_relaxed);
  if (value_out != nullptr && raw.value_size > 0) {
    const uint32_t n = raw.value_size < value_cap ? raw.value_size : value_cap;
    std::memcpy(value_out, buf + sizeof(Record), n);
  }
  return Status::OK();
}

Status HybridLog::ReadRaw(Address a, void* out, uint32_t n) const {
  if (((a ^ (a + n - 1)) >> page_bits_) != 0) {
    return Status::InvalidArgument("raw read crosses a page boundary");
  }
  if (a >= head_.load(std::memory_order_acquire)) {
    if (TryReadMemory(a, out, n)) return Status::OK();
  }
  MLKV_RETURN_NOT_OK(file_->ReadAt(a, out, n));
  stats_.disk_record_reads.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

bool HybridLog::BeginInPlaceWrite(Address a) {
  const uint64_t f = FrameOf(PageOf(a));
  frame_writers_[f].fetch_add(1, std::memory_order_acq_rel);
  if (a < read_only_.load(std::memory_order_acquire)) {
    // Boundary moved while we registered; this page may be flushing.
    frame_writers_[f].fetch_sub(1, std::memory_order_acq_rel);
    return false;
  }
  // Dirty before the caller touches a byte: if a Persist flush snapshots
  // this frame concurrently, the re-marked bit forces a rewrite next time.
  MarkDirty(PageOf(a));
  return true;
}

void HybridLog::EndInPlaceWrite(Address a) {
  const uint64_t f = FrameOf(PageOf(a));
  frame_writers_[f].fetch_sub(1, std::memory_order_acq_rel);
}

void HybridLog::AwaitInPlaceWriters(Address a) const {
  const uint64_t f = FrameOf(PageOf(a));
  SpinWaitUntil([this, f]() {
    return frame_writers_[f].load(std::memory_order_acquire) == 0;
  });
}

Address HybridLog::SealMutableRegion() {
  const Address t = tail_.load(std::memory_order_acquire);
  Address cur = read_only_.load(std::memory_order_acquire);
  while (cur < t && !read_only_.compare_exchange_weak(
                        cur, t, std::memory_order_acq_rel,
                        std::memory_order_acquire)) {
  }
  // Drain writers that registered before the boundary moved. Once a frame's
  // count reaches zero, any later registration re-checks the boundary and
  // falls back to RCU, so record bytes below `t` are quiescent — a cursor
  // reading them sees each writer's bytes in full or not at all, never a
  // version it can no longer be told about.
  for (uint64_t f = 0; f < mem_pages_; ++f) {
    SpinWaitUntil([this, f]() {
      return frame_writers_[f].load(std::memory_order_acquire) == 0;
    });
  }
  return t;
}

Status HybridLog::FlushAll() {
  SpinGuard g(&alloc_lock_);
  const Address t = tail_.load(std::memory_order_acquire);
  if (t == kLogBegin) return Status::OK();
  const uint64_t last_page = PageOf(t - 1);
  std::vector<uint64_t> pages;
  for (uint64_t p = flushed_until_page_; p <= last_page; ++p) {
    if (frame_page_[FrameOf(p)].load(std::memory_order_acquire) != p) {
      continue;
    }
    pages.push_back(p);
  }
  MLKV_RETURN_NOT_OK(FlushPageSet(pages));
  MLKV_RETURN_NOT_OK(file_->Sync());
  stats_.fsyncs.fetch_add(1, std::memory_order_relaxed);
  // CAS-max: a concurrent Persist may already have published a later
  // watermark; never regress it.
  Address cur = durable_.load(std::memory_order_acquire);
  while (cur < t && !durable_.compare_exchange_weak(
                        cur, t, std::memory_order_acq_rel,
                        std::memory_order_acquire)) {
  }
  return Status::OK();
}

Status HybridLog::Persist() {
  std::vector<uint64_t> pages;
  Address t;
  {
    SpinGuard g(&alloc_lock_);
    t = tail_.load(std::memory_order_acquire);
    const Address durable = durable_.load(std::memory_order_acquire);
    if (t > kLogBegin) {
      const uint64_t last_page = PageOf(t - 1);
      const uint64_t first_page = PageOf(head_.load(std::memory_order_acquire));
      for (uint64_t p = first_page; p <= last_page; ++p) {
        const uint64_t f = FrameOf(p);
        if (frame_page_[f].load(std::memory_order_acquire) != p) continue;
        // A resident page needs rewriting when its bytes diverged from the
        // disk image (dirty) or when it holds never-synced bytes in
        // [durable, t). The second arm matters after recovery: frames are
        // fresh (dirty bits clean) but the file tail may postdate the
        // watermark.
        const bool holds_undurable =
            durable < t && PageStart(p) + options_.page_size > durable;
        if (frame_dirty_[f].load(std::memory_order_acquire) == 0 &&
            !holds_undurable) {
          continue;
        }
        pages.push_back(p);
      }
      MLKV_RETURN_NOT_OK(FlushPageSet(pages));
    }
    if (pages.empty() && durable >= t) {
      return Status::OK();  // nothing changed since the last sync point
    }
  }
  // Commit outside the alloc lock so concurrent Persist callers can stage
  // into the same window and share the fsync.
  if (committer_ != nullptr) {
    const uint64_t ticket =
        committer_->StageWrite(pages.size() * options_.page_size);
    MLKV_RETURN_NOT_OK(committer_->Wait(ticket));
  } else {
    MLKV_RETURN_NOT_OK(file_->Sync());
    stats_.fsyncs.fetch_add(1, std::memory_order_relaxed);
  }
  Address cur = durable_.load(std::memory_order_acquire);
  while (cur < t && !durable_.compare_exchange_weak(
                        cur, t, std::memory_order_acq_rel,
                        std::memory_order_acquire)) {
  }
  return Status::OK();
}

Status HybridLog::DiscardDiskBeyond(Address a) {
  // Truncate exactly at `a`: reads past EOF zero-fill (io/file_device.cc),
  // so the discarded suffix scans as a page-roll gap instead of stale
  // record bytes. Later flushes re-extend the file past the hole.
  return file_->Truncate(a);
}

Status HybridLog::RestoreBoundaries(Address tail, Address begin) {
  begin_.store(begin, std::memory_order_release);
  // Everything up to `tail` is disk-resident; start allocating on a fresh
  // page so recovered data is never overwritten in a partially filled page.
  const uint64_t next_page = PageOf(tail - 1) + 1;
  const Address a = PageStart(next_page);
  for (uint64_t i = 0; i < mem_pages_; ++i) {
    frame_page_[i].store(kInvalidPage, std::memory_order_relaxed);
    frame_dirty_[i].store(0, std::memory_order_relaxed);
  }
  tail_.store(a, std::memory_order_release);
  read_only_.store(a, std::memory_order_release);
  head_.store(a, std::memory_order_release);
  // Recovery only restores boundaries over bytes it has verified on disk,
  // so the restored tail is the durable watermark.
  durable_.store(a, std::memory_order_release);
  flushed_until_page_ = next_page;
  highest_provisioned_page_ = next_page;
  const uint64_t f = FrameOf(next_page);
  std::memset(frames_[f].get(), 0, options_.page_size);
  frame_page_[f].store(next_page, std::memory_order_release);
  return Status::OK();
}

}  // namespace mlkv
