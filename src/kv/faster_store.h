// FasterStore: a from-scratch, FASTER-style embedded key-value store over a
// HybridLog + latch-free HashIndex, extended with MLKV's two optimizations:
//
//  * Bounded staleness consistency (paper §III-C1). When
//    `track_staleness` is on, every record carries a 32-bit staleness
//    counter in its control word. Get spins until `staleness <= bound`,
//    then lock-CASes the word with staleness+1; Put never waits and
//    releases with staleness-1 and generation+1. Bound 0 = BSP, huge bound
//    = ASP, anything between = SSP.
//
//  * Promotion (the storage half of look-ahead prefetching, §III-C2).
//    Promote(key) copies a disk-resident record — with its original
//    staleness and value — to the mutable tail region so later Get/Put hit
//    memory.
//
// Both rest on FASTER's copy-to-tail, one rule for every cold read (a
// record below the read-only boundary), written once in CopyToTail and
// published by the same index CAS as every write:
//
//  * A tracked read copies any cold record (read-only memory or disk) to
//    the tail with staleness+1: a frozen record has no lockable word to
//    bump, so the copy is how every admitted Get counts, and the Put that
//    follows updates in place.
//  * Any other read — Peek, serving, evaluation, lookahead, and every read
//    of the FASTER baseline — copies a record it fetched from disk to the
//    tail with its control word unchanged, so hot records stop costing a
//    device read each time.
//  * Records in read-only memory are left in place for untracked reads:
//    copying them would only re-dirty pages (the paper's §III-C2
//    page-write rule).
//
// With `track_staleness == false` the store behaves as plain FASTER: every
// read, tracked or not, is untracked. The FASTER baseline backend is an
// EmbeddingTable over such a store (backend/backends.cc).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "kv/hash_index.h"
#include "kv/hybrid_log.h"
#include "kv/pending_read.h"
#include "kv/record.h"

namespace mlkv {

struct FasterOptions {
  std::string path;                    // backing log file
  // Hash index entries (rounded to pow2; 8 per 64-byte bucket).
  uint64_t index_slots = 1ull << 20;
  // Log page size. Open() halves it (down to 4 KiB) until at least four
  // pages fit in mem_size, so tiny buffer budgets work out of the box.
  uint64_t page_size = 1ull << 20;
  uint64_t mem_size = 64ull << 20;     // in-memory log buffer
  double mutable_fraction = 0.5;

  // MLKV mode. When false, staleness fields are carried but never checked
  // and Get never waits (plain FASTER behaviour).
  bool track_staleness = false;
  uint32_t staleness_bound = UINT32_MAX;
  // Get retries (index re-lookups) while waiting out the staleness bound
  // before giving up with Status::Busy. Each retry yields the CPU. The
  // default is shared across layers (kv/record.h).
  uint64_t busy_spin_limit = kDefaultBusySpinLimit;

  // Builds the log's backing device; null uses a plain FileDevice. Tests
  // inject fault decorators here (io/faulty_file_device.h).
  std::function<std::unique_ptr<FileDevice>()> device_factory;

  // Shared engine for the log's coalesced flush waves (page roll, FlushAll,
  // Persist); null keeps flushes sequential blocking writes. Not owned.
  AsyncIoEngine* io = nullptr;
  // kGroup: Persist() commits through a per-log GroupCommitter (concurrent
  // callers share one fsync) and Recover() replays group-committed records
  // past the checkpoint tail. kSync keeps the classic checkpoint-only
  // durability, byte-identical on disk.
  DurabilityMode durability_mode = DurabilityMode::kSync;
  uint64_t group_commit_window_us = 200;
  uint64_t group_commit_max_bytes = 1ull << 20;
  // kIncremental: Checkpoint() persists only dirty/undurable log pages and
  // an index delta chained onto the previous checkpoint under the same
  // prefix; kFull keeps the classic full-flush + full-index-dump layout.
  CheckpointMode checkpoint_mode = CheckpointMode::kFull;
};

struct FasterStatsSnapshot {
  uint64_t reads = 0, upserts = 0, rmws = 0, deletes = 0;
  uint64_t inplace_updates = 0, rcu_appends = 0, inserts = 0;
  uint64_t promotions = 0, promotions_skipped = 0;
  // The part of promotions_skipped whose record moved while its fetch was
  // in flight: a read or write published the key first (lost publish
  // CAS), or the record was compacted or evicted away (buffer-less
  // refetch). A prefetch that arrived after the access it was for.
  uint64_t promotions_late = 0;
  // Cold records a read copied to the tail, tracked (staleness+1) or not
  // (control word kept). Lookahead promotions are counted separately,
  // above.
  uint64_t read_copies = 0;
  uint64_t staleness_waits = 0, busy_aborts = 0;
  uint64_t disk_record_reads = 0, pages_flushed = 0, pages_evicted = 0;
  uint64_t compactions = 0, compaction_live_copied = 0;
  // Pending-read pipeline: record fetches handed to the AsyncIoEngine,
  // fetches that landed, and keys that fell back to a synchronous re-read
  // (record moved mid-flight / staleness wait).
  uint64_t async_reads_submitted = 0, async_reads_completed = 0;
  uint64_t async_reads_refetched = 0;
  // Device record reads (blocking walk or pending fetch) that landed
  // another key's record sharing the hash chain, read only to follow its
  // prev pointer.
  uint64_t chain_hops = 0;
  // Write pipeline: pages submitted to / completed by async flush waves,
  // fdatasyncs issued (log's own plus the GroupCommitter's), and fsyncs
  // that covered more than one committer (the group-commit win).
  uint64_t async_writes_submitted = 0, async_writes_completed = 0;
  uint64_t fsyncs = 0, group_commits = 0;
};

// Outcome of one Compact() pass.
struct CompactionResult {
  uint64_t scanned = 0;            // records visited in the dead-candidate
                                   // region (valid headers only)
  uint64_t live_copied = 0;        // still-newest records re-appended at tail
  uint64_t dead_skipped = 0;       // superseded versions dropped
  uint64_t tombstones_dropped = 0; // newest-version tombstones retired
  Address new_begin = kInvalidAddress;
};

class FasterStore {
 public:
  FasterStore() = default;
  ~FasterStore() = default;

  FasterStore(const FasterStore&) = delete;
  FasterStore& operator=(const FasterStore&) = delete;

  Status Open(const FasterOptions& options);

  // Reads the value for `key` into `out` (at most `cap` bytes); the full
  // value size is returned via `size` when non-null. Under staleness
  // tracking, waits until the record's staleness is within `bound` and
  // increments it — in place for a mutable record, by a tail copy of the
  // whole record for a cold one. `bound == UINT32_MAX` uses the
  // store-level bound.
  Status Read(Key key, void* out, uint32_t cap, uint32_t* size = nullptr,
              uint32_t bound = UINT32_MAX);
  Status Read(Key key, std::string* out, uint32_t bound = UINT32_MAX);

  // Reads without participating in the staleness protocol (no wait, no
  // increment). Used by evaluation passes, which must not perturb the
  // training pipeline's vector clocks.
  Status Peek(Key key, void* out, uint32_t cap, uint32_t* size = nullptr);

  // Inserts or updates. In-place when the record lives in the mutable
  // region with an equal value size; RCU (append new version) otherwise.
  // Under staleness tracking, decrements staleness and bumps generation.
  Status Upsert(Key key, const void* value, uint32_t size);

  // Read-modify-write. `modifier(value, size, exists)` mutates the value
  // in place; when the key is absent it receives a zeroed buffer of
  // `value_size` bytes and `exists == false`. Atomic per record.
  Status Rmw(Key key, uint32_t value_size,
             const std::function<void(char* value, uint32_t size,
                                      bool exists)>& modifier);

  // Rmw's insert half for a caller that already walked the chain: creates
  // `key` (zeroed `value_size` bytes shaped by modifier(value, size,
  // false)) by publishing against `chain_head`, the chain head a lookup
  // observed when it found no live version of `key` (absent or
  // tombstoned). If the head moved since, falls back to Rmw, so the
  // outcome always equals Rmw's; `modifier` may then run a second time.
  // kInvalidAddress (no observation) succeeds only while the key's tag
  // has no index entry.
  Status InsertIfAbsent(Key key, Address chain_head, uint32_t value_size,
                        const std::function<void(char* value, uint32_t size,
                                                 bool exists)>& modifier);

  Status Delete(Key key);

  // Copies a disk-resident record to the mutable tail (look-ahead prefetch
  // target); a memory-resident one is skipped. Returns OK whether promoted
  // or skipped; inspect stats for which.
  Status Promote(Key key);

  // Header of the newest version of `key` (tombstones included), read
  // outside the staleness protocol: no wait, no increment. For tests and
  // diagnostics that inspect a record's control word; `address`, when
  // non-null, receives the version's log address (which region holds it).
  Status PeekMeta(Key key, RecordMeta* meta, Address* address = nullptr);

  // --- Two-phase pending-read pipeline (kv/pending_read.h) ---

  // Phase 1 of a batched read: resolves `key` against the in-memory log
  // only. Returns true when the read completed (pending->status and the
  // output buffer are final — including NotFound and Busy, with the exact
  // synchronous semantics); returns false when the newest candidate record
  // is disk-resident, in which case *pending is primed (target address +
  // landing size) for submission through a PendingReadWave. Never issues
  // disk I/O itself. Either way pending->chain_head is the chain head the
  // walk observed — what InsertIfAbsent needs after a NotFound.
  // `bound == UINT32_MAX` uses the store-level bound. `fetch` is the value
  // bytes a parked read lands (at least `cap`; 0 means `cap`): a read copies
  // the whole record to the tail, so it passes the full stored value size.
  // A record larger than its landing buffer is never copied truncated: a
  // tracked read falls back to the blocking path, an untracked one skips
  // the copy. `tracked` is ignored (the read is untracked) when the store
  // has track_staleness off, exactly as in Read.
  bool StartRead(Key key, void* out, uint32_t cap, uint32_t* size,
                 uint32_t bound, bool tracked, PendingRead* pending,
                 uint32_t fetch = 0);

  // Phase 1 of a Lookahead promotion: a memory-resident key counts a skip
  // and an absent one returns NotFound (*parked stays false either way); a
  // disk-resident key primes a buffer-less *pending for wave submission
  // (`cap` must cover the full record value), which CompletePendingRead
  // then copies to the tail like Promote. Each present key counts once in
  // promotions or promotions_skipped. Unlike StartRead this never counts as
  // a read: a prefetch is not a training access.
  Status StartPromote(Key key, uint32_t cap, PendingRead* pending,
                      bool* parked);

  enum class PendingStep { kDone, kResubmit };
  // Phase 2: consumes the landed bytes in pending->buf. kDone means the
  // key's outcome is final; kResubmit means the hash chain continues at
  // another disk address (pending re-primed — submit again). A record the
  // I/O caught mid-move (compaction invalidated the address, eviction beat
  // the classification) or whose frozen staleness fails the bound falls
  // back to a synchronous re-read internally, preserving exact blocking-
  // path semantics; a failed I/O becomes the key's status as-is. Every
  // read publishes its tail copy from the landed image (the class comment's
  // rule); a tracked read's lost publish CAS also falls back, so the
  // increment lands on the live version, while an untracked copy is
  // best-effort. A buffer-less read (StartPromote) is a promotion: it
  // counts promoted, or skipped — and late — when a concurrent read or
  // write published the key, or the record moved, while it was in flight.
  PendingStep CompletePendingRead(PendingRead* pending,
                                  const Status& io_status);

  // Pending-pipeline accounting (called by PendingReadWave per I/O, so the
  // two balance even when several waiters coalesce onto one fetch).
  void CountAsyncSubmitted() {
    stats_.async_reads_submitted.fetch_add(1, std::memory_order_relaxed);
  }
  void CountAsyncCompleted() {
    stats_.async_reads_completed.fetch_add(1, std::memory_order_relaxed);
  }

  // Reads the full record image at a log address: sanitized header plus
  // value bytes. Works for memory- and disk-resident addresses; the basis
  // for log scans, compaction, and table export.
  Status ReadRecordAt(Address address, RecordMeta* meta,
                      std::vector<char>* value);

  // Log garbage collection. Scans [begin, until), re-appends records that
  // are still the newest version of their key at the tail (preserving
  // control word and flags — a compaction copy is not an update), then
  // advances the begin address and punches the dead file range. `until` is
  // clamped to the read-only boundary; the mutable region is never
  // compacted. Safe under concurrent reads and writes: liveness is decided
  // by an index CAS, so a record updated mid-compaction simply loses the
  // race and is dropped as superseded.
  Status Compact(Address until, CompactionResult* result = nullptr);

  // Convenience policy: compacts up to the read-only boundary when the live
  // log span (tail - begin) exceeds `max_log_bytes`. Returns OK without
  // compacting when under the threshold.
  Status MaybeCompact(uint64_t max_log_bytes,
                      CompactionResult* result = nullptr);

  // Doubles the hash index `factor_log2` times. Existing chains stay
  // reachable immediately; they thin out as subsequent publishes use the
  // refined buckets. Quiesced operation: callers must ensure no concurrent
  // store operations (same contract as Checkpoint).
  Status GrowIndex(uint32_t factor_log2 = 1);

  // Quiesced maintenance policy: grows the index (doubling as many times as
  // needed) whenever live keys exceed `max_load` keys per index entry.
  Status MaybeGrowIndex(double max_load = 1.5);

  // Durability point: makes every operation that completed before this call
  // crash-durable (incremental log flush + fsync; see HybridLog::Persist).
  // Unlike Checkpoint this is safe under concurrent operations and does not
  // write index files — recovery re-derives post-checkpoint publishes by
  // replaying the log tail (durability_mode == kGroup only).
  Status Persist() { return log_.Persist(); }
  // Highest log address known durable on media.
  Address durable_address() const { return log_.durable_address(); }

  // Quiesced checkpoint under `prefix`; callers must ensure no concurrent
  // operations. checkpoint_mode == kFull writes a full log flush and a
  // full index dump (<prefix>.idx3). kIncremental persists only
  // dirty/undurable pages and appends an index delta (<prefix>.idx3.d<N>:
  // entries whose head moved since the previous checkpoint) onto the chain
  // under the same prefix; a fresh base (full .idx3) is forced on a new
  // prefix, after index growth, or past the delta cap. Either mode commits
  // by atomically renaming <prefix>.meta into place.
  Status Checkpoint(const std::string& prefix);
  // Reopens the store from a checkpoint taken with the same options: base
  // index plus deltas in order, then — in durability_mode == kGroup — a
  // replay of valid group-committed records found past the checkpoint tail
  // (stopping at the first torn record and truncating the log there).
  // A legacy checkpoint (untagged v1/v2 index in <prefix>.idx) is rebuilt
  // into tagged entries by one walk of each slot's chain and checkpointed
  // as v3 under the same prefix; the legacy files are left untouched, so a
  // crash before the new meta commits recovers from them again
  // (docs/DURABILITY.md).
  Status Recover(const FasterOptions& options, const std::string& prefix);

  // True if `key` currently resolves to an in-memory record.
  bool IsInMemory(Key key);

  // True if `address` holds the newest version of `key` (scan liveness).
  bool IsLiveVersion(Key key, Address address);

  FasterStatsSnapshot stats() const;
  void ResetStats();
  uint64_t index_slots() const { return index_->num_slots(); }
  const HybridLog& log() const { return log_; }
  HybridLog* mutable_log() { return &log_; }
  const FasterOptions& options() const { return options_; }

  // Effective number of live keys (approximate: counts inserts - deletes).
  uint64_t approximate_size() const {
    return stats_.inserts.load(std::memory_order_relaxed);
  }

 private:
  struct FindResult {
    Address address = kInvalidAddress;  // the matching record (if found)
    // Chain head observed in the key's index entry at lookup time. All
    // publishes CAS the entry from this value and link the new record's
    // prev to it, so keys sharing an entry keep a single consistent chain.
    Address chain_head = kInvalidAddress;
    RecordMeta meta;
    bool in_memory = false;
    bool found = false;
  };

  // Shared implementation for Read/Peek; `tracked` selects whether the
  // bounded-staleness protocol applies. Does not bump the reads stat (the
  // public entry points and StartRead own that, so a pending read that
  // falls back to this path is still counted once).
  Status ReadInternal(Key key, void* out, uint32_t cap, uint32_t* size,
                      uint32_t bound, bool tracked);
  // Synchronous fallback for an in-flight pending read whose record moved
  // (or whose staleness needs the blocking wait); finalizes *pending.
  void RefetchPending(PendingRead* pending);
  // Memory-only chain walk shared by StartRead / StartPromote.
  enum class WalkOutcome { kMemory, kDisk, kNotFound };
  WalkOutcome WalkForPending(Key key, Address* address, Address* chain_head);

  // Loads the record header at `address`, transparently falling back to the
  // disk image if the frame is evicted mid-read.
  Status LoadMeta(Address address, RecordMeta* meta, bool* in_memory);
  // Copies the value bytes of the record at `address`.
  Status LoadValue(Address address, const RecordMeta& meta, void* out,
                   uint32_t cap);
  // Walks the hash chain from the key's index entry looking for `key`;
  // every disk-resident record of another key on the way is a chain hop.
  Status Find(Key key, FindResult* out);

  // Appends a record and publishes it via index CAS against `expected`.
  // On publish failure the appended record is abandoned (log garbage) and
  // kBusy is returned so the caller retries.
  Status AppendAndPublish(Key key, const void* value, uint32_t value_size,
                          uint64_t control, uint32_t flags, Address expected);

  // Marks the in-memory record at `address` replaced (no-op if evicted).
  // Only writers call it: a copy's source is below the read-only boundary,
  // where no in-place operation can pin it.
  void MarkReplaced(Address address);

  // What a tail copy does to the source's (sanitized) control word: keep it
  // (promotion, untracked reads, compaction — a copy is not an update), or
  // add the tracked read's staleness increment.
  enum class CopyWord { kKeep, kCountRead };
  // The one copy-to-tail: appends the whole stored `value`
  // (meta.value_size bytes) with meta's flags and word, published against
  // `expected_head`. Busy means the head moved since the caller's walk.
  Status CopyToTail(Key key, const void* value, const RecordMeta& meta,
                    Address expected_head, CopyWord word);

  Record* MutableRecord(Address address) {
    return reinterpret_cast<Record*>(log_.MutablePointer(address));
  }

  struct Stats {
    std::atomic<uint64_t> reads{0}, upserts{0}, rmws{0}, deletes{0};
    std::atomic<uint64_t> inplace_updates{0}, rcu_appends{0}, inserts{0};
    std::atomic<uint64_t> promotions{0}, promotions_skipped{0};
    std::atomic<uint64_t> promotions_late{0};
    std::atomic<uint64_t> read_copies{0};
    std::atomic<uint64_t> staleness_waits{0}, busy_aborts{0};
    std::atomic<uint64_t> compactions{0}, compaction_live_copied{0};
    std::atomic<uint64_t> async_reads_submitted{0}, async_reads_completed{0};
    std::atomic<uint64_t> async_reads_refetched{0};
    std::atomic<uint64_t> chain_hops{0};
  };

  // Maps the (page-size-adjusted) store options onto the log's.
  HybridLogOptions LogOptions(bool truncate) const;

  // Incremental checkpoint helpers (kv/faster_store.cc).
  Status CheckpointFull(const std::string& prefix);
  Status CheckpointIncremental(const std::string& prefix);
  // Scans [from, end-of-file) for valid records the last checkpoint missed
  // and republishes each through `publish(key, prev, address)` — true when
  // the key's head was still `prev` and now is `address` — in address-
  // ordered passes to a fixpoint; *recovered is the end of the last valid
  // record.
  Status ReplayTail(Address from,
                    const std::function<bool(Key, Address, Address)>& publish,
                    Address* recovered);
  // Builds tagged entries from a legacy checkpoint's untagged slot heads
  // (one chain per slot, hash & (slots - 1)); needs the recovered log.
  Status AdoptLegacyIndex(const std::vector<Address>& heads);

  // Chain state for incremental checkpoints: what the last checkpoint
  // under `prefix` covered. Reset on Open; restored by Recover.
  struct CheckpointChain {
    std::string prefix;       // empty: no chain, next checkpoint is a base
    Address tail = 0;         // log tail the last checkpoint covered
    uint64_t deltas = 0;      // delta files written under this prefix
    uint64_t index_slots = 0; // entry count the chain's files assume
  };
  // Replaying an ever-longer delta chain on recovery caps here; the next
  // checkpoint then rolls a fresh base.
  static constexpr uint64_t kMaxCheckpointDeltas = 64;
  CheckpointChain ckpt_;

  // At most one Compact() runs at a time; concurrent calls return early.
  std::atomic_flag compact_lock_ = ATOMIC_FLAG_INIT;

  FasterOptions options_;
  HashIndex* index() { return index_.get(); }
  std::unique_ptr<HashIndex> index_;
  HybridLog log_;
  Stats stats_;
};

}  // namespace mlkv
