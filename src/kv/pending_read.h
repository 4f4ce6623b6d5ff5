// The pending-read half of the two-phase batched read pipeline.
//
// Phase 1 (FasterStore::StartRead) resolves a key against the in-memory
// log: memory-resident records complete inline with the exact synchronous
// semantics, and disk-resident ones prime a PendingRead — the key's
// continuation state (target address, landing buffer, output slot, and the
// staleness-tracking inputs of the read).
//
// Phase 2 collects every PendingRead a batch produced — across shard
// sub-batches — into one PendingReadWave, submits all of their record
// fetches to a shared AsyncIoEngine together, and completes them as I/Os
// land — on the calling thread for a demand read, on the lookahead pool
// for a Lookahead, whose caller only submits. Two merges shrink the wave's
// device reads:
//
//  * duplicate cold keys (and chains meeting at one record) share one
//    fetch per distinct (store, address);
//  * fetches of one store whose records lie within a kMaxMergedReadBytes
//    span go to the device as one vectored read, across log pages: a log
//    address is its file offset and every parked record is below the head
//    address, so the bytes between two of them are flushed log. Each
//    record lands in its own buffer, the bytes between them in the
//    engine's scratch. The read's outcome is every carried record's
//    outcome, exactly as for coalesced duplicates.
//
// The wave merges once, at submission: a chain hop's resubmission is a
// read of its own. Merging then happens at a second level, across waves:
// when every engine worker is busy, the one that frees up takes the queued
// requests of other waves (or other batches) that lie near the read it
// takes, up to AsyncIoEngine::kMaxQueueMergeBytes, into the same device
// read (io/async_io.h). Each request still completes on its own, with the
// device read's status, so nothing here changes.
//
// A completion that finds the record moved — evicted, compacted, hash
// chain continuing at another cold address past the hop budget, or a
// staleness bound the frozen record fails — falls back to the synchronous
// read path, so per-key results are always exactly what the blocking path
// would have produced. A read that lands the whole record publishes its
// tail copy from the landed image (a tracked read's carries its staleness
// increment, and a lost publish falls back the same way); a buffer-less
// read is a Lookahead promotion and does only that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "io/async_io.h"
#include "kv/record.h"

namespace mlkv {

// Longest file range one merged read spans. Reading a gap instead of
// skipping it never costs more device time than a separate read while the
// gap's transfer time stays below one read's fixed latency: span <= L * B.
// For the simulated device (L = 150 us, B = 1 GB/s) that is ~146 KiB, and
// the largest power of two below it is 128 KiB.
constexpr uint32_t kMaxMergedReadBytes = 128u << 10;
static_assert(kMaxMergedReadBytes <= AsyncIoEngine::kMaxGapBytes,
              "a merged read's gaps must fit the engine's scratch");

class FasterStore;

// Continuation state for one key whose newest candidate record is being
// fetched from disk. Primed by FasterStore::StartRead, advanced by
// FasterStore::CompletePendingRead.
struct PendingRead {
  Key key = 0;
  Address address = kInvalidAddress;  // record image in flight
  Address chain_head = kInvalidAddress;
  void* out = nullptr;  // caller's value buffer (null: a promotion)
  uint32_t cap = 0;
  uint32_t* size = nullptr;
  uint32_t bound = UINT32_MAX;  // effective staleness bound
  bool tracked = false;
  uint32_t hops = 0;  // disk chain hops taken so far
  // Header + value landing area: buf_len bytes (sizeof(Record) + cap), set
  // in phase 1; `buf` points into the wave's one landing buffer, carved
  // out when the wave submits.
  uint32_t buf_len = 0;
  char* buf = nullptr;

  Status status;  // final once the wave completes the key
};

// Per-sub-batch collector the phase-1 read ops park into. Single-threaded
// (one sink per scatter task); merged into the wave after the fan-in.
class PendingSink {
 public:
  // Takes a primed pending read. `finish` runs on the wave owner's thread
  // once `read->status` (and the output buffer) are final.
  void Park(FasterStore* store, PendingRead&& read,
            std::function<void(PendingRead*)> finish);

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

 private:
  friend class PendingReadWave;
  struct Entry {
    FasterStore* store = nullptr;
    PendingRead read;
    std::function<void(PendingRead*)> finish;
  };
  std::vector<Entry> entries_;
};

// One submission wave: everything parked across a batch's sub-batches goes
// to the engine in flight together, landing in one buffer the wave owns.
// Submit() puts the fetches in flight; Complete() drives their completions
// (and continuations, including chain-hop resubmissions and synchronous
// fallbacks) on the thread that calls it. The two may run on different
// threads, provided Submit() happens-before Complete() (Lookahead submits
// on the caller and completes on the lookahead pool).
class PendingReadWave {
 public:
  explicit PendingReadWave(AsyncIoEngine* engine) : batch_(engine) {}

  void Adopt(PendingSink* sink);
  bool empty() const { return entries_.empty(); }

  // Submits every parked read (one fetch per distinct (store, address),
  // span-merged into device reads) and returns: may block on the engine's
  // depth limit, never on a read. An engine-level submit failure
  // (shutdown) completes the affected keys here, with the submit error as
  // their status.
  void Submit();
  // Blocks until each submitted read's finish callback has run.
  void Complete();
  // Submit() then Complete() on the calling thread: the demand-read wave.
  void CompleteAll() {
    Submit();
    Complete();
  }

 private:
  using Target = std::pair<const FasterStore*, Address>;
  static constexpr size_t kNoGroup = SIZE_MAX;
  // Reads coalesced onto one fetch; the leader's buffer receives the
  // record. A device read carries a chain of groups, linked by `next`,
  // and is tagged with its first.
  struct Group {
    Target target;
    std::vector<size_t> members;
    size_t leader = 0;
    size_t next = kNoGroup;
  };

  // Submits the device read whose chain starts at group `g`: one record,
  // or (with `segments`) a span-merged range.
  void SubmitRead(size_t g, const AsyncIoEngine::ReadSegment* segments,
                  size_t count);
  void FailRead(size_t g, const Status& s);
  void CompleteGroup(size_t g, const Status& io_status);
  void Step(size_t i, const Status& io_status);

  uint32_t LeaderLen(size_t g) const {
    return entries_[groups_[g].leader].read.buf_len;
  }

  std::vector<PendingSink::Entry> entries_;
  std::vector<char> landing_;  // every entry's buf, back to back
  std::vector<Group> groups_;
  // Every merged read's segments, back to back. Sized before the first
  // submission, so the engine's pointers into it stay valid.
  std::vector<AsyncIoEngine::ReadSegment> segments_;
  // Target -> its in-flight group, so chain-hop resubmissions piggyback on
  // an I/O already on its way.
  std::map<Target, size_t> by_target_;
  // Last member: its destructor waits out any I/O still landing in
  // landing_, so it must run first.
  AsyncIoEngine::Batch batch_;
};

}  // namespace mlkv
