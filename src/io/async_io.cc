#include "io/async_io.h"

#include <sys/uio.h>

#include <algorithm>
#include <climits>

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

#ifdef IOV_MAX
static_assert(AsyncIoEngine::kMaxMergeIov <= IOV_MAX,
              "one merged read must be one preadv");
#endif
static_assert(AsyncIoEngine::kMaxReadSegments <= AsyncIoEngine::kMaxMergeIov,
              "a vectored read fits a worker's merged-read iovecs");

struct AsyncIoEngine::WorkerScratch {
  // The request being served, with the reads merged into it.
  std::vector<Request> group;
  // A merged read's iovecs (kMaxMergeIov, which covers kMaxReadSegments).
  std::vector<struct iovec> iovs;
  // Where vectored reads' gap bytes land (and are dropped).
  std::vector<char> gap;
};

AsyncIoEngine::AsyncIoEngine(const Options& options) {
  const size_t threads = std::max<size_t>(options.io_threads, 1);
  const size_t depth = std::max<size_t>(options.queue_depth, threads);
  queue_.resize(depth);
  // Every buffer a worker touches is sized here, on the constructing
  // thread: a merged read holds at most one request per queue slot and
  // per iovec.
  scratch_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    auto s = std::make_unique<WorkerScratch>();
    s->group.reserve(std::min(depth, kMaxMergeIov));
    s->iovs.resize(kMaxMergeIov);
    s->gap.resize(kMaxGapBytes);
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

bool AsyncIoEngine::NextGroup(std::vector<Request>* out) {
  std::unique_lock<std::mutex> lk(mu_);
  if (!out->empty()) --busy_;  // the previous group is done
  out->clear();
  queue_cv_.wait(lk, [this] { return stop_ || queued_ > 0; });
  if (queued_ == 0) return false;  // stop with a drained queue
  ++busy_;
  // One request per group, so requests spread across the workers instead
  // of running one after another on whichever worker dequeued them; it
  // only carries the reads merged into it.
  const Request& r = queue_[queue_head_];
  out->push_back(r);
  queue_head_ = (queue_head_ + 1) % queue_.size();
  --queued_;
  // Merge only when every other worker is executing a request: an idle
  // one could serve the queued reads now, in parallel.
  if (!r.is_write && busy_ == scratch_.size()) TakeMergeableReads(out);
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
  std::vector<Request>& group = scratch->group;
  struct iovec* const iovs = scratch->iovs.data();
  char* const gap = scratch->gap.data();
  while (NextGroup(&group)) RunGroup(&group, iovs, gap);
}

}  // namespace mlkv
