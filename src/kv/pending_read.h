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
// fetches to a shared AsyncIoEngine together (duplicate cold keys coalesce
// into one I/O per distinct log address), and completes them as I/Os land
// — on the calling thread for a demand read, on the lookahead pool for a
// Lookahead, whose caller only submits. A completion that finds the
// record moved — evicted, compacted, hash chain continuing at another cold
// address past the hop budget, or a staleness bound the frozen record
// fails — falls back to the synchronous read path, so per-key results are
// always exactly what the blocking path would have produced. A read that
// lands the whole record publishes its tail copy from the landed image (a
// tracked read's carries its staleness increment, and a lost publish falls
// back the same way); a buffer-less read is a Lookahead promotion and does
// only that.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "io/async_io.h"
#include "kv/record.h"

namespace mlkv {

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

  // Submits every parked read (one I/O per distinct (store, address)) and
  // returns: may block on the engine's depth limit, never on a read. An
  // engine-level submit failure (shutdown) completes the affected keys
  // here, with the submit error as their status.
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
  // Reads coalesced onto one fetch; the leader's buffer receives the I/O.
  struct Group {
    Target target;
    std::vector<size_t> members;
    size_t leader = 0;
  };

  void SubmitGroup(size_t g);
  void FailGroup(size_t g, const Status& s);
  void Step(size_t i, const Status& io_status);

  std::vector<PendingSink::Entry> entries_;
  std::vector<char> landing_;  // every entry's buf, back to back
  std::vector<Group> groups_;
  // Target -> its in-flight group, so chain-hop resubmissions piggyback on
  // an I/O already on its way.
  std::map<Target, size_t> by_target_;
  // Last member: its destructor waits out any I/O still landing in
  // landing_, so it must run first.
  AsyncIoEngine::Batch batch_;
};

}  // namespace mlkv
