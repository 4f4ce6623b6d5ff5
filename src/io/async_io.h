// AsyncIoEngine: the shared submit/complete disk-I/O engine behind the
// two-phase pending-read pipeline (kv/pending_read.h) and the hybrid log's
// coalesced flush waves (kv/hybrid_log.h).
//
// Callers enqueue positional reads and writes against FileDevices and
// collect completions per Batch (a submission queue in, a completion queue
// out). `io_threads` workers serve the queue, each running one request (or
// a queue-merged union of reads, below) at a time through the device's
// virtual ReadAt/WriteAt, so `io_threads` transfers overlap and decorated
// devices (fault injection, the simulated-NVMe cost model) keep their
// semantics.
//
// A vectored read (segmented Submit) is one device read of a contiguous
// range: member segments land in the caller's buffers and gap segments in
// the worker's scratch, where they are dropped. The pending-read wave uses
// it to fetch the records of one log span (kv/pending_read.h) at once.
//
// Queue-merged reads. One worker serves one read at a time, so a saturated
// engine queues reads that a block layer would merge. When a worker takes
// a read while every other worker is executing a request, it also takes
// each queued read of the same device that lies outside the range taken so
// far, within the device's L·B (at most kMaxGapBytes,
// FileDevice::MergeGapBytes) of it, and keeps the union within
// kMaxQueueMergeBytes, in one scan of the queue. It issues one vectored
// ReadAt over the union (constituents in their own buffers, gaps in its
// scratch) and completes every constituent with the union's status.
// Writes are never merged, and no read is pulled ahead of a queued write
// of the same device that overlaps the union. With an idle worker nothing
// merges: that worker can serve the read now, in parallel.
//
// Backpressure and lifetime rules:
//  * `queue_depth` bounds requests in flight across the whole engine;
//    Submit blocks (never the I/O itself) once the limit is reached.
//  * A Batch must outlive its submissions; its destructor blocks until
//    every outstanding completion has been delivered.
//  * The engine destructor drains: every accepted request completes (and
//    is delivered to its batch) before the workers exit.
//  * Workers never allocate: Submit reserves the batch's completion slot
//    and each worker's group (a request with the reads merged into it),
//    iovec and gap scratch is sized at construction, so the worker
//    threads never touch the heap (and never get a malloc arena).
//
// Writes carry no durability by themselves: a completed write is in the
// page cache, not on media. Durability is the caller's fsync — see
// io/group_committer.h for the batched-fsync protocol layered on top.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "io/file_device.h"

namespace mlkv {

// Write-durability selector plumbed from BackendConfig / MlkvOptions down
// to the store. kSync keeps the classic behavior byte-identical on disk:
// durability is the checkpoint, and each sync point is its own fdatasync.
// kGroup makes batched writes durable per call: the log flushes only dirty/undurable pages (as one async wave when
// an engine is configured) and concurrent committers share one fsync
// through a GroupCommitter (io/group_committer.h).
enum class DurabilityMode { kSync, kGroup };

const char* DurabilityModeName(DurabilityMode mode);
bool ParseDurabilityMode(const std::string& name, DurabilityMode* out);

// Checkpoint shape selector. kFull rewrites every log page above the
// flushed boundary plus the entire index (the classic full-table copy);
// kIncremental writes only [durable, tail) log pages plus an index delta
// record against the previous checkpoint, chained from the last full base
// (kv/faster_store.h).
enum class CheckpointMode { kFull, kIncremental };

class AsyncIoEngine {
 public:
  struct Options {
    // Workers serving the queue.
    size_t io_threads = 4;
    // Max reads in flight across the engine; Submit applies backpressure
    // beyond it.
    size_t queue_depth = 128;
  };

  struct Completion {
    uint64_t tag = 0;
    Status status;
  };

  // One piece of a vectored read, in file order. A null `buf` is a gap:
  // its bytes land in the worker's scratch and are dropped.
  struct ReadSegment {
    void* buf = nullptr;
    uint32_t len = 0;
  };
  // Bounds of one vectored read, which size the workers' scratch. A gap
  // never exceeds the pending-read wave's merge span (kMaxMergedReadBytes).
  static constexpr size_t kMaxReadSegments = 32;
  static constexpr uint32_t kMaxGapBytes = 128u << 10;
  // Longest union of queue-merged reads: four wave windows (kMaxGapBytes
  // each). At 1 GB/s that is ~0.5 ms of transfer, about 2.5 effective read
  // latencies of a saturated simulated device, so a merge that reads a gap
  // still costs less than queueing behind separate reads.
  static constexpr uint32_t kMaxQueueMergeBytes = 512u << 10;
  // iovecs of one queue-merged read (IOV_MAX on Linux): every constituent's
  // segments plus a gap before each one. Also bounds its constituents.
  static constexpr size_t kMaxMergeIov = 1024;

  // Per-caller completion context: a submission is tagged to one batch and
  // its completion is delivered only there, so concurrent batches (one per
  // MultiGet wave) never see each other's I/O.
  class Batch {
   public:
    explicit Batch(AsyncIoEngine* engine) : engine_(engine) {}
    ~Batch();  // blocks until every outstanding read was delivered

    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

    // Enqueues a read of [offset, offset + len) on `dev` into `buf`. `buf`
    // (and `dev`) must stay valid until the completion is collected. May
    // block on the engine depth limit, never on the I/O.
    Status Submit(const FileDevice* dev, uint64_t offset, void* buf,
                  uint32_t len, uint64_t tag);
    // Enqueues one vectored read of the contiguous range at `offset` that
    // `segments`[0, count) cover in order: a single device read whose one
    // completion carries every segment's outcome. The segment array and
    // every member buffer must stay valid until the completion is
    // collected. More than kMaxReadSegments segments, or a gap longer
    // than kMaxGapBytes, is InvalidArgument.
    Status Submit(const FileDevice* dev, uint64_t offset,
                  const ReadSegment* segments, size_t count, uint64_t tag);
    // Enqueues a write of `buf`[0, len) to [offset, offset + len) on
    // `dev`; same lifetime and backpressure contract as Submit. The
    // completion means the bytes reached the file (page cache), not media
    // — durability needs a subsequent Sync/GroupCommitter commit.
    Status SubmitWrite(FileDevice* dev, uint64_t offset, const void* buf,
                       uint32_t len, uint64_t tag);
    // Blocks until the next completion for this batch lands; returns false
    // when nothing is outstanding.
    bool WaitOne(Completion* out);
    size_t outstanding() const;

   private:
    friend class AsyncIoEngine;
    AsyncIoEngine* engine_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    // Delivered completions, collected from done_head_ on. Enqueue keeps
    // the capacity at done_head_ + outstanding_, so a worker's push never
    // reallocates.
    std::vector<Completion> done_;
    size_t done_head_ = 0;
    size_t outstanding_ = 0;  // submitted and not yet collected
  };

  AsyncIoEngine() : AsyncIoEngine(Options()) {}
  explicit AsyncIoEngine(const Options& options);
  ~AsyncIoEngine();

  AsyncIoEngine(const AsyncIoEngine&) = delete;
  AsyncIoEngine& operator=(const AsyncIoEngine&) = delete;

  size_t io_threads() const { return workers_.size(); }

 private:
  struct Request {
    // Reads keep their const view; writes const_cast back to call the
    // non-const WriteAt (SubmitWrite takes a mutable device, so the cast
    // never strips a caller's constness).
    const FileDevice* dev = nullptr;
    uint64_t offset = 0;
    void* buf = nullptr;  // destination for reads, source for writes
    uint32_t len = 0;     // a vectored read's: the whole range
    uint64_t tag = 0;
    Batch* batch = nullptr;
    bool is_write = false;
    // A vectored read's segments (null otherwise); `buf` is unused then.
    const ReadSegment* segments = nullptr;
    uint32_t segment_count = 0;
  };

  // Per-worker group, iovec and gap buffers, sized on the constructing
  // thread (io/async_io.cc).
  struct WorkerScratch;

  Status Enqueue(const Request& req, Batch* batch);
  // Points `iov` (kMaxReadSegments slots) at a read's destination: its one
  // buffer, or its segments with gaps on `gap`. Returns the iovec count.
  static int FillIov(const Request& req, struct iovec* iov, char* gap);
  // Executes one request on the calling worker thread via the device's
  // virtual ReadAt/WriteAt; a vectored read builds its iovecs in `iov`
  // with gaps on `gap`.
  static Status RunBlocking(const Request& req, struct iovec* iov, char* gap);
  // Serves `group` (one request, or queue-merged reads of one device) on
  // the calling worker and delivers each member: a group of several is one
  // vectored ReadAt over their union, in `iov` (kMaxMergeIov slots) with
  // gaps on `gap`.
  void RunGroup(std::vector<Request>* group, struct iovec* iov, char* gap);
  void WorkerLoop(WorkerScratch* scratch);
  // Takes the next request into `out`, with the queued reads it merges
  // (see the header comment), blocking for one unless stopping; `out`'s
  // capacity bounds the merge, and it holds the calling worker's previous
  // group, which it has finished. Returns false when the worker should
  // exit.
  bool NextGroup(std::vector<Request>* out);
  // Moves into `out` (holding the read just taken) every queued
  // read that merges with it, in one scan of the queue. Caller holds mu_.
  void TakeMergeableReads(std::vector<Request>* out);
  void Deliver(const Request& req, const Status& status);

  std::mutex mu_;
  std::condition_variable queue_cv_;   // workers: work available / stop
  std::condition_variable depth_cv_;   // submitters: depth slot available
  // Ring of accepted, not yet started requests. inflight_ never exceeds
  // the ring's size (the depth limit), so Enqueue cannot overrun it and a
  // worker's dequeue frees nothing.
  std::vector<Request> queue_;
  size_t queue_head_ = 0;
  size_t queued_ = 0;
  size_t inflight_ = 0;  // accepted but not yet delivered
  // Workers executing a request: counted when one takes a group, released
  // when it comes back for the next. Idle waiters do not count, so a
  // worker still starting up never makes the others look saturated.
  size_t busy_ = 0;
  bool stop_ = false;

  std::vector<std::unique_ptr<WorkerScratch>> scratch_;
  std::vector<std::thread> workers_;
};

}  // namespace mlkv
