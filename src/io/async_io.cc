#include "io/async_io.h"

#include <sys/uio.h>

#include <algorithm>
#include <climits>
#include <cstring>

#ifdef MLKV_HAVE_IO_URING
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace mlkv {

const char* DurabilityModeName(DurabilityMode mode) {
  return mode == DurabilityMode::kGroup ? "group" : "sync";
}

bool ParseDurabilityMode(const std::string& name, DurabilityMode* out) {
  if (name == "sync") {
    *out = DurabilityMode::kSync;
  } else if (name == "group") {
    *out = DurabilityMode::kGroup;
  } else {
    return false;
  }
  return true;
}

const char* CheckpointModeName(CheckpointMode mode) {
  return mode == CheckpointMode::kIncremental ? "incremental" : "full";
}

bool ParseCheckpointMode(const std::string& name, CheckpointMode* out) {
  if (name == "full") {
    *out = CheckpointMode::kFull;
  } else if (name == "incremental") {
    *out = CheckpointMode::kIncremental;
  } else {
    return false;
  }
  return true;
}

#ifdef MLKV_HAVE_IO_URING

namespace {

// Minimal raw-syscall io_uring wrapper (no liburing dependency): one ring
// per worker thread, single-threaded by construction, READV-only. Any
// setup failure makes Init() return false and the caller falls back to
// blocking preads — kernels or sandboxes that deny the syscalls cost
// nothing but the one probe.
class UringRing {
 public:
  ~UringRing() {
    if (sqe_mm_ != MAP_FAILED) ::munmap(sqe_mm_, sqe_sz_);
    if (cq_mm_ != MAP_FAILED && cq_mm_ != sq_mm_) ::munmap(cq_mm_, cq_sz_);
    if (sq_mm_ != MAP_FAILED) ::munmap(sq_mm_, sq_sz_);
    if (ring_fd_ >= 0) ::close(ring_fd_);
  }

  bool Init(unsigned entries) {
    struct io_uring_params p;
    std::memset(&p, 0, sizeof(p));
    ring_fd_ = static_cast<int>(::syscall(__NR_io_uring_setup, entries, &p));
    if (ring_fd_ < 0) return false;
    sq_entries_ = p.sq_entries;
    sq_sz_ = p.sq_off.array + p.sq_entries * sizeof(uint32_t);
    cq_sz_ = p.cq_off.cqes + p.cq_entries * sizeof(struct io_uring_cqe);
    if (p.features & IORING_FEAT_SINGLE_MMAP) {
      sq_sz_ = cq_sz_ = std::max(sq_sz_, cq_sz_);
    }
    sq_mm_ = ::mmap(nullptr, sq_sz_, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQ_RING);
    if (sq_mm_ == MAP_FAILED) return false;
    if (p.features & IORING_FEAT_SINGLE_MMAP) {
      cq_mm_ = sq_mm_;
    } else {
      cq_mm_ = ::mmap(nullptr, cq_sz_, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, ring_fd_,
                      IORING_OFF_CQ_RING);
      if (cq_mm_ == MAP_FAILED) return false;
    }
    sqe_sz_ = p.sq_entries * sizeof(struct io_uring_sqe);
    sqe_mm_ = ::mmap(nullptr, sqe_sz_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQES);
    if (sqe_mm_ == MAP_FAILED) return false;

    char* sq = static_cast<char*>(sq_mm_);
    sq_head_ = reinterpret_cast<unsigned*>(sq + p.sq_off.head);
    sq_tail_ = reinterpret_cast<unsigned*>(sq + p.sq_off.tail);
    sq_mask_ = reinterpret_cast<unsigned*>(sq + p.sq_off.ring_mask);
    sq_array_ = reinterpret_cast<unsigned*>(sq + p.sq_off.array);
    sqes_ = static_cast<struct io_uring_sqe*>(sqe_mm_);
    char* cq = static_cast<char*>(cq_mm_);
    cq_head_ = reinterpret_cast<unsigned*>(cq + p.cq_off.head);
    cq_tail_ = reinterpret_cast<unsigned*>(cq + p.cq_off.tail);
    cq_mask_ = reinterpret_cast<unsigned*>(cq + p.cq_off.ring_mask);
    cqes_ = reinterpret_cast<struct io_uring_cqe*>(cq + p.cq_off.cqes);
    return true;
  }

  // READV / WRITEV (both 5.1+, the most portable vectored ops) share one
  // prep path; only the opcode differs.
  bool Prep(bool is_write, int fd, struct iovec* iov, int iovcnt,
            uint64_t offset, uint64_t user_data) {
    const unsigned tail = *sq_tail_;
    const unsigned head = __atomic_load_n(sq_head_, __ATOMIC_ACQUIRE);
    if (tail - head >= sq_entries_) return false;
    const unsigned idx = tail & *sq_mask_;
    struct io_uring_sqe* sqe = &sqes_[idx];
    std::memset(sqe, 0, sizeof(*sqe));
    sqe->opcode = is_write ? IORING_OP_WRITEV : IORING_OP_READV;
    sqe->fd = fd;
    sqe->addr = reinterpret_cast<uint64_t>(iov);
    sqe->len = static_cast<uint32_t>(iovcnt);
    sqe->off = offset;
    sqe->user_data = user_data;
    sq_array_[idx] = idx;
    __atomic_store_n(sq_tail_, tail + 1, __ATOMIC_RELEASE);
    ++to_submit_;
    return true;
  }

  // Submits queued sqes and, when `wait_nr` > 0, blocks for that many
  // completions. False only on a hard io_uring_enter failure.
  bool Flush(unsigned wait_nr) {
    for (;;) {
      const long ret = ::syscall(__NR_io_uring_enter, ring_fd_, to_submit_,
                                 wait_nr, wait_nr ? IORING_ENTER_GETEVENTS : 0,
                                 nullptr, 0);
      if (ret >= 0) {
        to_submit_ -= static_cast<unsigned>(ret);
        return true;
      }
      if (errno != EINTR) return false;
    }
  }

  bool Pop(uint64_t* user_data, int32_t* res) {
    const unsigned head = *cq_head_;
    if (head == __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE)) return false;
    const struct io_uring_cqe* cqe = &cqes_[head & *cq_mask_];
    *user_data = cqe->user_data;
    *res = cqe->res;
    __atomic_store_n(cq_head_, head + 1, __ATOMIC_RELEASE);
    return true;
  }

 private:
  int ring_fd_ = -1;
  void* sq_mm_ = MAP_FAILED;
  void* cq_mm_ = MAP_FAILED;
  void* sqe_mm_ = MAP_FAILED;
  size_t sq_sz_ = 0, cq_sz_ = 0, sqe_sz_ = 0;
  unsigned sq_entries_ = 0;
  unsigned to_submit_ = 0;
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned* sq_mask_ = nullptr;
  unsigned* sq_array_ = nullptr;
  struct io_uring_sqe* sqes_ = nullptr;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned* cq_mask_ = nullptr;
  struct io_uring_cqe* cqes_ = nullptr;
};

bool ProbeIoUring() {
  UringRing ring;
  return ring.Init(2);
}

}  // namespace

#endif  // MLKV_HAVE_IO_URING

#ifdef IOV_MAX
static_assert(AsyncIoEngine::kMaxMergeIov <= IOV_MAX,
              "one merged read must be one preadv");
#endif

struct AsyncIoEngine::WorkerScratch {
  // A ring burst, or a blocking request with the reads merged into it.
  std::vector<Request> burst;
  // kMaxReadSegments iovecs per request this worker can hold in flight,
  // and at least a merged read's kMaxMergeIov.
  std::vector<struct iovec> iovs;
  // Where vectored reads' gap bytes land (and are dropped).
  std::vector<char> gap;
#ifdef MLKV_HAVE_IO_URING
  struct InFlight {
    Request req;
    struct iovec* iov;  // this request's slot in iovs
    int iovcnt;
  };
  std::vector<InFlight> flight;
  std::vector<uint8_t> seen;
#endif
};

AsyncIoEngine::AsyncIoEngine(const Options& options) : options_(options) {
  const size_t threads = std::max<size_t>(options.io_threads, 1);
  const size_t depth = std::max<size_t>(options.queue_depth, threads);
  per_worker_depth_ = std::max<size_t>(depth / threads, 1);
#ifdef MLKV_HAVE_IO_URING
  if (options.try_io_uring) using_io_uring_ = ProbeIoUring();
#endif
  queue_.resize(depth);
  // Every buffer a worker touches is sized here, on the constructing
  // thread: a ring burst holds at most per_worker_depth_ requests, a merged
  // read at most one per queue slot and per iovec, and only a ring keeps
  // more than one request in flight at a time.
  const size_t iov_slots = using_io_uring_ ? per_worker_depth_ : 1;
  const size_t burst_cap =
      std::max(per_worker_depth_, std::min(depth, kMaxMergeIov));
  scratch_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    auto s = std::make_unique<WorkerScratch>();
    s->burst.reserve(burst_cap);
    s->iovs.resize(std::max(iov_slots * kMaxReadSegments, kMaxMergeIov));
    s->gap.resize(kMaxGapBytes);
#ifdef MLKV_HAVE_IO_URING
    s->flight.reserve(per_worker_depth_);
    s->seen.reserve(per_worker_depth_);
#endif
    scratch_.push_back(std::move(s));
  }
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    WorkerScratch* s = scratch_[i].get();
    workers_.emplace_back([this, s] { WorkerLoop(s); });
  }
}

AsyncIoEngine::~AsyncIoEngine() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  // Workers drain the queue before exiting, so every accepted read still
  // completes and reaches its batch.
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

AsyncIoStats AsyncIoEngine::stats() const {
  AsyncIoStats s;
  s.reads_submitted = submitted_.load(std::memory_order_relaxed);
  s.reads_completed = completed_.load(std::memory_order_relaxed);
  s.read_failures = failed_.load(std::memory_order_relaxed);
  s.writes_submitted = writes_submitted_.load(std::memory_order_relaxed);
  s.writes_completed = writes_completed_.load(std::memory_order_relaxed);
  s.write_failures = write_failures_.load(std::memory_order_relaxed);
  return s;
}

Status AsyncIoEngine::Enqueue(const Request& req, Batch* batch) {
  {
    // Count the request against its batch before a worker can see it, so
    // outstanding_ never lags a delivery, and reserve its completion slot
    // here so the worker's Deliver never reallocates.
    std::lock_guard<std::mutex> lk(batch->mu_);
    ++batch->outstanding_;
    std::vector<Completion>& done = batch->done_;
    if (done.capacity() < batch->done_head_ + batch->outstanding_) {
      done.erase(done.begin(),
                 done.begin() + static_cast<long>(batch->done_head_));
      batch->done_head_ = 0;
      if (done.capacity() < batch->outstanding_) {
        done.reserve(std::max(batch->outstanding_, 2 * done.capacity()));
      }
    }
  }
  {
    std::unique_lock<std::mutex> lk(mu_);
    depth_cv_.wait(lk, [this] { return stop_ || inflight_ < queue_.size(); });
    if (stop_) {
      lk.unlock();
      std::lock_guard<std::mutex> blk(batch->mu_);
      --batch->outstanding_;
      return Status::Aborted("async io engine shut down");
    }
    ++inflight_;
    queue_[(queue_head_ + queued_) % queue_.size()] = req;
    ++queued_;
  }
  if (req.is_write) {
    writes_submitted_.fetch_add(1, std::memory_order_relaxed);
  } else {
    submitted_.fetch_add(1, std::memory_order_relaxed);
  }
  queue_cv_.notify_one();
  return Status::OK();
}

Status AsyncIoEngine::Batch::Submit(const FileDevice* dev, uint64_t offset,
                                    void* buf, uint32_t len, uint64_t tag) {
  return engine_->Enqueue(
      Request{dev, offset, buf, len, tag, this, /*is_write=*/false}, this);
}

Status AsyncIoEngine::Batch::Submit(const FileDevice* dev, uint64_t offset,
                                    const ReadSegment* segments, size_t count,
                                    uint64_t tag) {
  if (count == 0 || count > kMaxReadSegments) {
    return Status::InvalidArgument("vectored read segment count");
  }
  uint64_t len = 0;
  for (size_t i = 0; i < count; ++i) {
    if (segments[i].buf == nullptr && segments[i].len > kMaxGapBytes) {
      return Status::InvalidArgument("vectored read gap exceeds scratch");
    }
    len += segments[i].len;
  }
  if (len > UINT32_MAX) {
    return Status::InvalidArgument("vectored read range exceeds 4 GiB");
  }
  Request req{dev,  offset, nullptr, static_cast<uint32_t>(len), tag,
              this, /*is_write=*/false};
  req.segments = segments;
  req.segment_count = static_cast<uint32_t>(count);
  return engine_->Enqueue(req, this);
}

Status AsyncIoEngine::Batch::SubmitWrite(FileDevice* dev, uint64_t offset,
                                         const void* buf, uint32_t len,
                                         uint64_t tag) {
  // The buffer is only read on the write path; the cast parks it in the
  // Request's single buf field.
  return engine_->Enqueue(Request{dev, offset, const_cast<void*>(buf), len,
                                  tag, this, /*is_write=*/true},
                          this);
}

bool AsyncIoEngine::Batch::WaitOne(Completion* out) {
  std::unique_lock<std::mutex> lk(mu_);
  if (outstanding_ == 0) return false;
  cv_.wait(lk, [this] { return done_head_ < done_.size(); });
  *out = std::move(done_[done_head_++]);
  --outstanding_;
  if (done_head_ == done_.size()) {
    done_.clear();  // keeps the capacity: the reserved slots stay reserved
    done_head_ = 0;
  }
  return true;
}

size_t AsyncIoEngine::Batch::outstanding() const {
  std::lock_guard<std::mutex> lk(mu_);
  return outstanding_;
}

AsyncIoEngine::Batch::~Batch() {
  // Collect (and discard) anything the owner abandoned, so in-flight
  // worker deliveries never target a dead batch.
  Completion c;
  while (WaitOne(&c)) {
  }
}

int AsyncIoEngine::FillIov(const Request& req, struct iovec* iov,
                           char* gap) {
  if (req.segments == nullptr) {
    iov[0] = {req.buf, req.len};
    return 1;
  }
  for (uint32_t i = 0; i < req.segment_count; ++i) {
    const ReadSegment& seg = req.segments[i];
    iov[i] = {seg.buf != nullptr ? seg.buf : gap, seg.len};
  }
  return static_cast<int>(req.segment_count);
}

Status AsyncIoEngine::RunBlocking(const Request& req, struct iovec* iov,
                                  char* gap) {
  if (req.is_write) {
    return const_cast<FileDevice*>(req.dev)->WriteAt(req.offset, req.buf,
                                                     req.len);
  }
  if (req.segments != nullptr) {
    return req.dev->ReadAt(req.offset, iov, FillIov(req, iov, gap));
  }
  return req.dev->ReadAt(req.offset, req.buf, req.len);
}

void AsyncIoEngine::Deliver(const Request& req, const Status& status) {
  if (req.is_write) {
    writes_completed_.fetch_add(1, std::memory_order_relaxed);
    if (!status.ok()) {
      write_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (!status.ok()) failed_.fetch_add(1, std::memory_order_relaxed);
  }
  {
    // Notify under the lock: the instant the push is visible the owner may
    // collect it and destroy the batch, so the cv must not be touched
    // outside the critical section.
    std::lock_guard<std::mutex> lk(req.batch->mu_);
    req.batch->done_.push_back(Completion{req.tag, status});
    req.batch->cv_.notify_all();
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    --inflight_;
  }
  depth_cv_.notify_one();
}

bool AsyncIoEngine::NextBurst(std::vector<Request>* out, size_t max,
                              bool ring) {
  std::unique_lock<std::mutex> lk(mu_);
  if (!out->empty()) --busy_;  // the previous burst is done
  out->clear();
  queue_cv_.wait(lk, [this] { return stop_ || queued_ > 0; });
  if (queued_ == 0) return false;  // stop with a drained queue
  ++busy_;
  // A ring burst is a run of raw-eligible requests for one submission. A
  // request that runs blocking (through the device's virtual call on the
  // ring path, or on the thread pool) never shares a burst with others, so
  // blocking requests spread across the workers instead of running one
  // after another on whichever worker dequeued them; it only carries the
  // reads merged into it.
  while (queued_ > 0 && out->size() < max) {
    const Request& r = queue_[queue_head_];
    const bool raw =
        ring && (r.is_write ? r.dev->AllowsRawWrites()
                            : r.dev->AllowsRawReads());
    if (!raw && !out->empty()) break;
    out->push_back(r);
    queue_head_ = (queue_head_ + 1) % queue_.size();
    --queued_;
    if (raw) continue;
    // Merge only when every other worker is executing a request: an idle
    // one could serve the queued reads now, in parallel.
    if (!r.is_write && busy_ == scratch_.size()) TakeMergeableReads(out);
    break;
  }
  // Hand what is left to another idle worker.
  if (queued_ > 0) queue_cv_.notify_one();
  return true;
}

void AsyncIoEngine::TakeMergeableReads(std::vector<Request>* out) {
  const Request head = out->front();
  const auto iov_count = [](const Request& r) -> size_t {
    return r.segments != nullptr ? r.segment_count : 1;
  };
  const uint64_t max_gap = head.dev->MergeGapBytes(kMaxGapBytes);
  uint64_t lo = head.offset;
  uint64_t hi = head.offset + head.len;
  size_t iovs = iov_count(head);
  // Hull of the same-device writes queued ahead of the read being looked
  // at: a read behind one of them must not run before it.
  uint64_t write_lo = UINT64_MAX;
  uint64_t write_hi = 0;
  size_t kept = 0;
  for (size_t i = 0; i < queued_; ++i) {
    const Request& q = queue_[(queue_head_ + i) % queue_.size()];
    bool take = false;
    if (q.dev == head.dev && q.is_write) {
      write_lo = std::min(write_lo, q.offset);
      write_hi = std::max(write_hi, q.offset + q.len);
    } else if (q.dev == head.dev && out->size() < out->capacity()) {
      const uint64_t q_lo = q.offset;
      const uint64_t q_hi = q.offset + q.len;
      const bool near = q_hi <= lo ? lo - q_hi <= max_gap
                        : q_lo >= hi ? q_lo - hi <= max_gap
                                     : false;  // overlaps the range
      const uint64_t new_lo = std::min(lo, q_lo);
      const uint64_t new_hi = std::max(hi, q_hi);
      const size_t new_iovs =
          iovs + iov_count(q) + (q_hi == lo || q_lo == hi ? 0 : 1);
      take = near && new_hi - new_lo <= kMaxQueueMergeBytes &&
             new_iovs <= kMaxMergeIov &&
             (new_hi <= write_lo || new_lo >= write_hi);
      if (take) {
        out->push_back(q);
        lo = new_lo;
        hi = new_hi;
        iovs = new_iovs;
      }
    }
    if (!take) queue_[(queue_head_ + kept++) % queue_.size()] = q;
  }
  queued_ = kept;
}

void AsyncIoEngine::RunGroup(std::vector<Request>* group, struct iovec* iov,
                             char* gap) {
  if (group->size() == 1) {
    const Request& r = group->front();
    Deliver(r, RunBlocking(r, iov, gap));
    return;
  }
  // Constituents are disjoint, so in file order they tile the union with
  // a gap (at most kMaxGapBytes) before each one that does not abut.
  std::sort(group->begin(), group->end(),
            [](const Request& a, const Request& b) {
              return a.offset < b.offset;
            });
  const uint64_t lo = group->front().offset;
  uint64_t end = lo;
  int n = 0;
  for (const Request& r : *group) {
    if (r.offset > end) {
      iov[n++] = {gap, static_cast<size_t>(r.offset - end)};
    }
    n += FillIov(r, iov + n, gap);
    end = r.offset + r.len;
  }
  const Status status = group->front().dev->ReadAt(lo, iov, n);
  for (const Request& r : *group) Deliver(r, status);
}

void AsyncIoEngine::WorkerLoop(WorkerScratch* scratch) {
  std::vector<Request>& burst = scratch->burst;
  struct iovec* const iovs = scratch->iovs.data();
  char* const gap = scratch->gap.data();
#ifdef MLKV_HAVE_IO_URING
  UringRing ring;
  bool ring_ok = false;
  if (using_io_uring_) {
    unsigned entries = 2;
    while (entries < per_worker_depth_) entries <<= 1;
    ring_ok = ring.Init(entries);
  }
  using InFlight = WorkerScratch::InFlight;
  std::vector<InFlight>& flight = scratch->flight;
  std::vector<uint8_t>& seen = scratch->seen;
#endif
  for (;;) {
#ifdef MLKV_HAVE_IO_URING
    if (ring_ok) {
      if (!NextBurst(&burst, per_worker_depth_, /*ring=*/true)) return;
      // A burst is one ring submission wave of raw-fd-eligible requests,
      // or a request on a decorated device (fault injection, simulated
      // costs) that executes its virtual ReadAt/WriteAt here instead.
      const Request& head = burst.front();
      if (!(head.is_write ? head.dev->AllowsRawWrites()
                          : head.dev->AllowsRawReads())) {
        RunGroup(&burst, iovs, gap);
        continue;
      }
      flight.clear();
      for (const Request& r : burst) {
        struct iovec* slot = iovs + flight.size() * kMaxReadSegments;
        flight.push_back(InFlight{r, slot, FillIov(r, slot, gap)});
      }
      size_t prepped = 0;
      for (InFlight& f : flight) {
        // `entries` >= per_worker_depth_, so Prep cannot run out of sqes.
        if (!ring.Prep(f.req.is_write, f.req.dev->fd(), f.iov, f.iovcnt,
                       f.req.offset, prepped)) {
          break;
        }
        ++prepped;
      }
      // Anything that could not be prepped (never expected) goes blocking.
      for (size_t i = prepped; i < flight.size(); ++i) {
        Deliver(flight[i].req, RunBlocking(flight[i].req, flight[i].iov, gap));
      }
      size_t reaped = 0;
      bool enter_failed = false;
      seen.assign(prepped, 0);
      while (reaped < prepped && !enter_failed) {
        if (!ring.Flush(/*wait_nr=*/1)) {
          enter_failed = true;
          break;
        }
        uint64_t ud = 0;
        int32_t res = 0;
        while (ring.Pop(&ud, &res)) {
          InFlight& f = flight[ud];
          seen[ud] = 1;
          ++reaped;
          const Request& r = f.req;
          if (res >= 0) {
            if (r.is_write) {
              r.dev->NoteRawWrite(static_cast<size_t>(res));
            } else {
              r.dev->NoteRawRead(static_cast<size_t>(res));
            }
            const uint32_t done = static_cast<uint32_t>(res);
            if (done < r.len && !r.is_write) {
              // Short read (EOF or split): drop the landed bytes from the
              // front of its iovecs and finish through the virtual call,
              // which loops (and zero-fills past EOF) like the blocking
              // path.
              int k = 0;
              size_t skip = done;
              while (skip >= f.iov[k].iov_len) skip -= f.iov[k++].iov_len;
              f.iov[k].iov_base = static_cast<char*>(f.iov[k].iov_base) + skip;
              f.iov[k].iov_len -= skip;
              Deliver(r, r.dev->ReadAt(r.offset + done, f.iov + k,
                                       f.iovcnt - k));
            } else if (done < r.len) {
              // Short write: the rest goes through the virtual call.
              Request rest = r;
              rest.offset += done;
              rest.buf = static_cast<char*>(r.buf) + done;
              rest.len = r.len - done;
              Deliver(r, RunBlocking(rest, f.iov, gap));
            } else {
              Deliver(r, Status::OK());
            }
          } else {
            // Ring-level failure (e.g. EOPNOTSUPP): one blocking retry
            // decides the final status.
            Deliver(r, RunBlocking(r, f.iov, gap));
          }
        }
      }
      if (enter_failed) {
        // io_uring_enter failed hard after a successful setup — should not
        // happen; fall back to blocking I/O for the unreaped remainder
        // (read ranges are immutable and a write sqe that already landed
        // rewrote identical bytes, so a duplicate completion is benign)
        // and stop using the ring.
        for (size_t i = 0; i < prepped; ++i) {
          if (seen[i]) continue;
          Deliver(flight[i].req,
                  RunBlocking(flight[i].req, flight[i].iov, gap));
        }
        ring_ok = false;
      }
      continue;
    }
#endif
    if (!NextBurst(&burst, 1, /*ring=*/false)) return;
    RunGroup(&burst, iovs, gap);
  }
}

}  // namespace mlkv
