#include "kv/faster_store.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace mlkv {

namespace {

// Checkpoint metadata block. v3 ("MLKV5CHK") is the only layout written:
// its index files hold raw tagged entries (kv/hash_index.h). The legacy
// layouts name untagged slot arrays and are still recovered: v1
// ("MLKV3CHK", full checkpoints; no delta_count field) and v2 ("MLKV4CHK",
// incremental). docs/DURABILITY.md describes the formats.
struct CheckpointMeta {
  uint64_t magic = 0x4D4C4B563543484Bull;  // "MLKV5CHK"
  uint64_t tail = 0;
  uint64_t index_slots = 0;
  uint64_t num_inserts = 0;
  uint64_t begin = HybridLog::kLogBegin;   // GC boundary at checkpoint time
  // Effective page size (Open may shrink the configured one for small
  // buffers); recovery must parse the log with the same geometry.
  uint64_t page_size = 0;
  // --- v2 and v3 ---
  // Number of delta files (IndexPath + ".d<k>", k = 1..delta_count) to
  // apply, in order, on top of the base index file.
  uint64_t delta_count = 0;
};

constexpr uint64_t kMetaMagicV1 = 0x4D4C4B563343484Bull;  // "MLKV3CHK"
constexpr uint64_t kMetaMagicV2 = 0x4D4C4B563443484Bull;  // "MLKV4CHK"
constexpr uint64_t kMetaMagicV3 = 0x4D4C4B563543484Bull;  // "MLKV5CHK"

// A v3 checkpoint keeps its index in <prefix>.idx3 (+ .idx3.d<k> deltas), a
// legacy one in <prefix>.idx (+ .idx.d<k>). Writing a v3 checkpoint thus
// never touches a file a legacy meta names: upgrading one in place is
// committed by the meta rename alone.
std::string IndexPath(const std::string& prefix, bool legacy) {
  return prefix + (legacy ? ".idx" : ".idx3");
}

std::string DeltaPath(const std::string& index_path, uint64_t k) {
  return index_path + ".d" + std::to_string(k);
}

// Commit point of every checkpoint: the meta names the index files, and it
// appears atomically via rename. A crash before the rename keeps the
// previous meta; after it, the files it names are complete.
Status CommitMeta(const std::string& prefix, const CheckpointMeta& meta) {
  const std::string tmp = prefix + ".meta.tmp";
  {
    FileDevice meta_dev;
    MLKV_RETURN_NOT_OK(meta_dev.Open(tmp));
    MLKV_RETURN_NOT_OK(meta_dev.WriteAt(0, &meta, sizeof(meta)));
    MLKV_RETURN_NOT_OK(meta_dev.Sync());
  }
  std::error_code ec;
  std::filesystem::rename(tmp, prefix + ".meta", ec);
  if (ec) {
    return Status::IOError("commit checkpoint meta: " + ec.message());
  }
  return Status::OK();
}

// Applies `transform` to the control word with a CAS loop. Only the lock
// holder changes generation/staleness, but another thread may concurrently
// set the replaced bit, so a blind store is not safe.
template <typename Fn>
uint64_t TransformControl(std::atomic<uint64_t>* control, Fn transform) {
  uint64_t c = control->load(std::memory_order_acquire);
  for (;;) {
    const uint64_t desired = transform(c);
    if (control->compare_exchange_weak(c, desired, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      return desired;
    }
  }
}

}  // namespace

Status FasterStore::Open(const FasterOptions& options) {
  options_ = options;
  // The 4 KiB floor wins for budgets below 256 KiB; HybridLog::Open still
  // rejects fewer than 4 pages, which the 16 KiB shard floor
  // (ShardedStore::kMinShardMemBytes) always admits.
  while (options_.page_size > 4096 &&
         options_.mem_size / options_.page_size < kMinResidentFrames) {
    options_.page_size >>= 1;
  }
  index_.reset(new HashIndex(options.index_slots));
  ckpt_ = CheckpointChain();
  return log_.Open(options_);
}

Status FasterStore::LoadMeta(Address address, RecordMeta* meta,
                             bool* in_memory) {
  for (;;) {
    if (address >= log_.head_address()) {
      char buf[sizeof(Record)];
      if (log_.TryReadMemory(address, buf, sizeof(buf))) {
        std::memcpy(&meta->control, buf + 0, 8);
        std::memcpy(&meta->prev, buf + 8, 8);
        std::memcpy(&meta->key, buf + 16, 8);
        std::memcpy(&meta->value_size, buf + 24, 4);
        std::memcpy(&meta->flags, buf + 28, 4);
        *in_memory = true;
        return Status::OK();
      }
      if (address >= log_.head_address()) {
        // Frame replaced mid-read but the address is still resident —
        // transient (page being claimed); retry.
        std::this_thread::yield();
        continue;
      }
    }
    *in_memory = false;
    return log_.ReadFromDisk(address, meta, nullptr, 0);
  }
}

Status FasterStore::LoadValue(Address address, const RecordMeta& meta,
                              void* out, uint32_t cap) {
  const uint32_t n = meta.value_size < cap ? meta.value_size : cap;
  for (;;) {
    if (address >= log_.head_address()) {
      if (log_.TryReadMemory(address + sizeof(Record), out, n)) {
        return Status::OK();
      }
      if (address >= log_.head_address()) {
        std::this_thread::yield();
        continue;
      }
    }
    RecordMeta disk_meta;
    return log_.ReadFromDisk(address, &disk_meta, out, n);
  }
}

Status FasterStore::Find(Key key, FindResult* out) {
restart:
  Address a = index()->Load(key);
  out->chain_head = a;
  // Addresses below the begin boundary are log garbage: every record that
  // was live when the boundary moved has a newer copy above it, so the walk
  // treats them as end-of-chain.
  while (a != kInvalidAddress && a >= log_.begin_address()) {
    RecordMeta meta;
    bool in_memory = false;
    MLKV_RETURN_NOT_OK(LoadMeta(a, &meta, &in_memory));
    if (a < log_.begin_address()) {
      // Compaction advanced past `a` between the boundary check and the
      // load; the bytes read may already be punched. The live version (if
      // any) was republished first, so a restart observes it.
      goto restart;
    }
    if (meta.key == key) {
      out->address = a;
      out->meta = meta;
      out->in_memory = in_memory;
      out->found = true;
      return Status::OK();
    }
    if (!in_memory) stats_.chain_hops.fetch_add(1, std::memory_order_relaxed);
    a = meta.prev;
  }
  out->found = false;
  return Status::OK();
}

Status FasterStore::AppendAndPublish(Key key, const void* value,
                                     uint32_t value_size, uint64_t control,
                                     uint32_t flags, Address expected) {
  const uint32_t size = Record::SizeFor(value_size);
  Address addr = kInvalidAddress;
  char* mem = nullptr;
  MLKV_RETURN_NOT_OK(log_.Allocate(size, &addr, &mem));
  Record* r = reinterpret_cast<Record*>(mem);
  r->control.store(control, std::memory_order_relaxed);
  r->prev = expected;
  r->key = key;
  r->value_size = value_size;
  r->flags = flags | kRecordValid;
  if (value_size > 0 && value != nullptr) {
    std::memcpy(r->value(), value, value_size);
  }
  // Publish: release-CAS makes all fields above visible to chain walkers.
  // The append pin from Allocate() is held across the CAS so a lost race
  // can retract the valid bit before any flush snapshots the frame: on
  // disk, abandoned records are never valid, which is what lets crash
  // recovery replay the group-committed tail without ambiguity (a record
  // whose valid bit is set was genuinely published; docs/DURABILITY.md).
  Address e = expected;
  if (!index()->CompareExchange(key, e, addr)) {
    // Lost the race; the appended record becomes unreachable log garbage.
    r->flags &= ~kRecordValid;
    log_.EndAppend(addr);
    return Status::Busy("index CAS lost");
  }
  log_.EndAppend(addr);
  return Status::OK();
}

Status FasterStore::CopyToTail(Key key, const void* value,
                               const RecordMeta& meta, Address expected_head,
                               CopyWord word) {
  uint64_t control = ControlWord::Sanitize(meta.control);
  if (word == CopyWord::kCountRead) {
    control = ControlWord::IncrStaleness(control);
  }
  return AppendAndPublish(key, value, meta.value_size, control, meta.flags,
                          expected_head);
}

void FasterStore::MarkReplaced(Address address) {
  // Pin the frame so the pointer stays valid; if the record went cold this
  // is a no-op — read-only / disk images are superseded via the index, and
  // their replaced bit is advisory only.
  if (!log_.BeginInPlaceWrite(address)) return;
  MutableRecord(address)->control.fetch_or(ControlWord::kReplacedBit,
                                           std::memory_order_acq_rel);
  log_.EndInPlaceWrite(address);
}

Status FasterStore::Read(Key key, std::string* out, uint32_t bound) {
  // Two-step: size probe then fixed read; fine for the string convenience
  // path (hot paths use the fixed-buffer overload).
  FindResult f;
  MLKV_RETURN_NOT_OK(Find(key, &f));
  if (!f.found || (f.meta.flags & kRecordTombstone)) {
    return Status::NotFound();
  }
  out->resize(f.meta.value_size);
  uint32_t size = 0;
  return Read(key, out->data(), f.meta.value_size, &size, bound);
}

Status FasterStore::Read(Key key, void* out, uint32_t cap, uint32_t* size,
                         uint32_t bound) {
  stats_.reads.fetch_add(1, std::memory_order_relaxed);
  return ReadInternal(key, out, cap, size, bound, options_.track_staleness);
}

Status FasterStore::Peek(Key key, void* out, uint32_t cap, uint32_t* size) {
  stats_.reads.fetch_add(1, std::memory_order_relaxed);
  return ReadInternal(key, out, cap, size, UINT32_MAX, /*tracked=*/false);
}

Status FasterStore::ReadInternal(Key key, void* out, uint32_t cap,
                                 uint32_t* size, uint32_t bound,
                                 bool tracked) {
  const uint32_t effective_bound =
      bound != UINT32_MAX ? bound : options_.staleness_bound;
  uint64_t spins = 0;
  for (;;) {
    FindResult f;
    MLKV_RETURN_NOT_OK(Find(key, &f));
    if (!f.found || (f.meta.flags & kRecordTombstone)) {
      return Status::NotFound();
    }
    if (size != nullptr) *size = f.meta.value_size;

    if (f.address < log_.read_only_address()) {
      // Cold record (read-only region or disk): its control word is frozen.
      // Check the frozen staleness value against the bound, then copy by the
      // class comment's rule: a tracked read counts through a staleness+1
      // copy, an untracked one copies only what it fetched from disk.
      if (tracked && ControlWord::Staleness(f.meta.control) > effective_bound) {
        // The counter can only drop via a Put, which will supersede this
        // version through the index; re-find until it does.
        stats_.staleness_waits.fetch_add(1, std::memory_order_relaxed);
        if (++spins > options_.busy_spin_limit) {
          stats_.busy_aborts.fetch_add(1, std::memory_order_relaxed);
          return Status::Busy("staleness bound");
        }
        std::this_thread::yield();
        continue;
      }
      const bool count = tracked && options_.track_staleness;
      if (f.in_memory && !count) {
        return LoadValue(f.address, f.meta, out, cap);
      }
      if (f.in_memory) {
        // An in-place writer that registered before the boundary moved may
        // still be updating this record; once it finishes the bytes are
        // final, and a changed word means the copy would drop its update.
        log_.AwaitInPlaceWriters(f.address);
        RecordMeta now;
        bool in_memory = false;
        MLKV_RETURN_NOT_OK(LoadMeta(f.address, &now, &in_memory));
        if (now.control != f.meta.control) continue;
      }
      // The copy carries the whole stored value (fused optimizer state
      // included), never just the caller's `cap` bytes.
      std::vector<char> scratch;
      char* value = static_cast<char*>(out);
      if (cap < f.meta.value_size) {
        scratch.resize(f.meta.value_size);
        value = scratch.data();
      }
      MLKV_RETURN_NOT_OK(
          LoadValue(f.address, f.meta, value, f.meta.value_size));
      if (value != out) std::memcpy(out, value, cap);
      const Status s =
          CopyToTail(key, value, f.meta, f.chain_head,
                     count ? CopyWord::kCountRead : CopyWord::kKeep);
      if (s.ok()) {
        stats_.read_copies.fetch_add(1, std::memory_order_relaxed);
      } else if (count) {
        if (s.IsBusy()) continue;  // head moved: count on the live version
        return s;
      }
      // An untracked copy is best-effort: a racing writer supersedes it.
      return Status::OK();
    }

    // Mutable region: the paper's latch-free protocol. Pin the frame first
    // (BeginInPlaceWrite re-validates mutability and blocks flush/eviction
    // of the page while held) so the record pointer stays valid, then
    // acquire the record lock and bump staleness in one CAS. The pin is
    // never held across a staleness wait — that would stall the flusher.
    if (!log_.BeginInPlaceWrite(f.address)) continue;  // went cold: re-find
    Record* r = MutableRecord(f.address);
    uint64_t c = r->control.load(std::memory_order_acquire);
    if (ControlWord::Replaced(c)) {                  // superseded: re-find
      log_.EndInPlaceWrite(f.address);
      continue;
    }
    if (ControlWord::Locked(c)) {
      log_.EndInPlaceWrite(f.address);
      std::this_thread::yield();
      continue;
    }
    if (tracked && ControlWord::Staleness(c) > effective_bound) {
      log_.EndInPlaceWrite(f.address);
      stats_.staleness_waits.fetch_add(1, std::memory_order_relaxed);
      if (++spins > options_.busy_spin_limit) {
        stats_.busy_aborts.fetch_add(1, std::memory_order_relaxed);
        return Status::Busy("staleness bound");
      }
      std::this_thread::yield();
      continue;
    }
    uint64_t desired = ControlWord::SetLocked(c);
    if (tracked) desired = ControlWord::IncrStaleness(desired);
    if (!r->control.compare_exchange_strong(c, desired,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      log_.EndInPlaceWrite(f.address);
      continue;
    }
    const uint32_t n = f.meta.value_size < cap ? f.meta.value_size : cap;
    std::memcpy(out, r->value(), n);
    TransformControl(&r->control,
                     [](uint64_t w) { return ControlWord::ClearLocked(w); });
    log_.EndInPlaceWrite(f.address);
    return Status::OK();
  }
}

namespace {
// Disk chain hops a pending read follows before giving up on the async
// path and falling back to the blocking walk. Chains this deep mean the
// index is drastically undersized; the fallback keeps semantics exact.
constexpr uint32_t kMaxPendingHops = 4;

void ParseRecordHeader(const char* hdr, RecordMeta* meta) {
  std::memcpy(&meta->control, hdr + 0, 8);
  std::memcpy(&meta->prev, hdr + 8, 8);
  std::memcpy(&meta->key, hdr + 16, 8);
  std::memcpy(&meta->value_size, hdr + 24, 4);
  std::memcpy(&meta->flags, hdr + 28, 4);
}
}  // namespace

// Memory-only chain walk for phase 1 of the pending pipeline: classifies
// `key` without issuing any disk I/O. kMemory means the matching record is
// (still) memory-resident; kDisk stops at the first disk-resident chain
// address (*address), where the async fetch picks up.
FasterStore::WalkOutcome FasterStore::WalkForPending(Key key,
                                                     Address* address,
                                                     Address* chain_head) {
restart:
  Address a = index()->Load(key);
  *chain_head = a;
  while (a != kInvalidAddress && a >= log_.begin_address()) {
    if (!log_.InMemory(a)) break;  // disk-resident: park
    char hdr[sizeof(Record)];
    if (!log_.TryReadMemory(a, hdr, sizeof(hdr))) {
      if (log_.InMemory(a)) {
        // Frame replaced mid-read but still resident — transient (page
        // being claimed); retry.
        std::this_thread::yield();
        continue;
      }
      break;  // evicted mid-walk: now disk-resident
    }
    RecordMeta meta;
    ParseRecordHeader(hdr, &meta);
    if (a < log_.begin_address()) goto restart;  // compaction passed us
    if (meta.key == key) return WalkOutcome::kMemory;
    a = meta.prev;
  }
  if (a == kInvalidAddress || a < log_.begin_address()) {
    return WalkOutcome::kNotFound;
  }
  *address = a;
  return WalkOutcome::kDisk;
}

Status FasterStore::PeekMeta(Key key, RecordMeta* meta, Address* address) {
  FindResult f;
  MLKV_RETURN_NOT_OK(Find(key, &f));
  if (!f.found) return Status::NotFound();
  *meta = f.meta;
  if (address != nullptr) *address = f.address;
  return Status::OK();
}

bool FasterStore::StartRead(Key key, void* out, uint32_t cap, uint32_t* size,
                            uint32_t bound, bool tracked,
                            PendingRead* pending, uint32_t fetch) {
  stats_.reads.fetch_add(1, std::memory_order_relaxed);
  PendingRead* p = pending;
  p->key = key;
  p->out = out;
  p->cap = cap;
  p->size = size;
  p->bound = bound != UINT32_MAX ? bound : options_.staleness_bound;
  // A store without staleness tracking has no Put that would ever lower a
  // count a tracked read raised, so every read on it is untracked.
  p->tracked = tracked && options_.track_staleness;
  p->hops = 0;

  switch (WalkForPending(key, &p->address, &p->chain_head)) {
    case WalkOutcome::kMemory:
      // Memory-resident: the blocking path resolves it with no disk I/O
      // (should an eviction demote it this instant, that path's disk
      // fallback is exactly the old behavior).
      p->status = ReadInternal(key, out, cap, size, p->bound, p->tracked);
      return true;
    case WalkOutcome::kNotFound:
      p->status = Status::NotFound();
      return true;
    case WalkOutcome::kDisk:
      break;
  }
  p->buf_len = static_cast<uint32_t>(sizeof(Record)) + std::max(cap, fetch);
  return false;
}

Status FasterStore::StartPromote(Key key, uint32_t cap, PendingRead* pending,
                                 bool* parked) {
  PendingRead* p = pending;
  *parked = false;
  p->key = key;
  p->out = nullptr;  // buffer-less: CompletePendingRead copies the record
  p->cap = cap;
  p->size = nullptr;
  p->bound = UINT32_MAX;
  p->tracked = false;  // a prefetch never touches the vector clocks
  p->hops = 0;

  switch (WalkForPending(key, &p->address, &p->chain_head)) {
    case WalkOutcome::kMemory:
      // Resident (mutable or read-only): nothing to promote. Copying a
      // read-only record would only re-dirty pages (paper §III-C2).
      stats_.promotions_skipped.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    case WalkOutcome::kNotFound:
      return Status::NotFound();
    case WalkOutcome::kDisk:
      break;
  }
  p->buf_len = static_cast<uint32_t>(sizeof(Record)) + cap;
  *parked = true;
  return Status::OK();
}

void FasterStore::RefetchPending(PendingRead* pending) {
  stats_.async_reads_refetched.fetch_add(1, std::memory_order_relaxed);
  if (pending->out == nullptr) {
    // Buffer-less read (a StartPromote fetch): the record moved while in
    // flight, so the prefetch is moot — skipped, and late.
    stats_.promotions_skipped.fetch_add(1, std::memory_order_relaxed);
    stats_.promotions_late.fetch_add(1, std::memory_order_relaxed);
    pending->status = Status::OK();
    return;
  }
  pending->status = ReadInternal(pending->key, pending->out, pending->cap,
                                 pending->size, pending->bound,
                                 pending->tracked);
}

FasterStore::PendingStep FasterStore::CompletePendingRead(
    PendingRead* pending, const Status& io_status) {
  PendingRead* p = pending;
  if (!io_status.ok()) {
    // The device itself failed; that is the key's outcome (a retry storm
    // against a failing disk helps nobody). Siblings are unaffected.
    p->status = io_status;
    return PendingStep::kDone;
  }
  RecordMeta meta;
  ParseRecordHeader(p->buf, &meta);
  meta.control = ControlWord::Sanitize(meta.control);
  if ((meta.flags & kRecordValid) == 0 ||
      p->address < log_.begin_address()) {
    // Compaction reclaimed (or hole-punched) the fetched range while the
    // I/O was in flight; any live version was republished above it first.
    RefetchPending(p);
    return PendingStep::kDone;
  }
  if (meta.key != p->key) {
    // Collision: the chain continues below the fetched record.
    stats_.chain_hops.fetch_add(1, std::memory_order_relaxed);
    const Address prev = meta.prev;
    if (prev == kInvalidAddress || prev < log_.begin_address()) {
      p->status = Status::NotFound();
      return PendingStep::kDone;
    }
    if (prev >= p->address || ++p->hops >= kMaxPendingHops) {
      // A chain must strictly descend; anything else (or a degenerate
      // collision chain) goes to the blocking walk.
      RefetchPending(p);
      return PendingStep::kDone;
    }
    p->address = prev;
    return PendingStep::kResubmit;
  }
  if (meta.flags & kRecordTombstone) {
    p->status = Status::NotFound();
    return PendingStep::kDone;
  }
  if (p->tracked && ControlWord::Staleness(meta.control) > p->bound) {
    // The blocking path owns the staleness wait/abort protocol.
    RefetchPending(p);
    return PendingStep::kDone;
  }
  // Every read copies the whole record it fetched to the tail, never a
  // value the landing buffer truncated.
  const char* value = p->buf + sizeof(Record);
  const bool landed_whole =
      meta.value_size <= p->buf_len - static_cast<uint32_t>(sizeof(Record));
  const bool promotion = p->out == nullptr;
  if (p->tracked && options_.track_staleness) {
    // The read counts through its copy. A truncated value, or a lost
    // publish CAS, goes to the blocking path, which copies the whole value
    // and counts on the live version.
    const Status s =
        landed_whole ? CopyToTail(p->key, value, meta, p->chain_head,
                                  CopyWord::kCountRead)
                     : Status::Busy("landing buffer truncated the value");
    if (s.IsBusy()) {
      RefetchPending(p);
      return PendingStep::kDone;
    }
    if (!s.ok()) {
      p->status = s;
      return PendingStep::kDone;
    }
    stats_.read_copies.fetch_add(1, std::memory_order_relaxed);
  } else {
    const Status s = landed_whole
                         ? CopyToTail(p->key, value, meta, p->chain_head,
                                      CopyWord::kKeep)
                         : Status::Busy("landing buffer truncated the value");
    if (s.ok()) {
      (promotion ? stats_.promotions : stats_.read_copies)
          .fetch_add(1, std::memory_order_relaxed);
    } else if (promotion) {
      // Truncated, or a concurrent read or write published the key in
      // flight (theirs is at least as new): best-effort, skipped. A
      // lost publish means the prefetch arrived late.
      stats_.promotions_skipped.fetch_add(1, std::memory_order_relaxed);
      if (landed_whole && s.IsBusy()) {
        stats_.promotions_late.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  const uint32_t n = meta.value_size < p->cap ? meta.value_size : p->cap;
  if (!promotion && n > 0) std::memcpy(p->out, value, n);
  if (p->size != nullptr) *p->size = meta.value_size;
  p->status = Status::OK();
  return PendingStep::kDone;
}

Status FasterStore::Upsert(Key key, const void* value, uint32_t size) {
  stats_.upserts.fetch_add(1, std::memory_order_relaxed);
  const bool tracked = options_.track_staleness;
  for (;;) {
    FindResult f;
    MLKV_RETURN_NOT_OK(Find(key, &f));
    if (!f.found) {
      // Fresh insert: generation 0, staleness 0.
      Status s = AppendAndPublish(key, value, size, ControlWord::Make(0, 0),
                                  0, f.chain_head);
      if (s.IsBusy()) continue;
      MLKV_RETURN_NOT_OK(s);
      stats_.inserts.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }

    if (f.address < log_.read_only_address() ||
        f.meta.value_size != size || (f.meta.flags & kRecordTombstone)) {
      // RCU: append a new version. A Put only lowers staleness (§III-C1),
      // so it never waits; the new version carries staleness-1, gen+1.
      uint64_t control = ControlWord::Sanitize(f.meta.control);
      control = ControlWord::IncrGeneration(
          tracked ? ControlWord::DecrStaleness(control) : control);
      Status s = AppendAndPublish(key, value, size, control, 0, f.chain_head);
      if (s.IsBusy()) continue;
      MLKV_RETURN_NOT_OK(s);
      MarkReplaced(f.address);
      stats_.rcu_appends.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }

    // Mutable region, same size: in-place update under the record lock.
    // Pin first so the record pointer stays valid (see Read).
    if (!log_.BeginInPlaceWrite(f.address)) continue;  // went cold: RCU
    Record* r = MutableRecord(f.address);
    uint64_t c = r->control.load(std::memory_order_acquire);
    if (ControlWord::Replaced(c)) {
      log_.EndInPlaceWrite(f.address);
      continue;
    }
    if (ControlWord::Locked(c)) {
      log_.EndInPlaceWrite(f.address);
      std::this_thread::yield();
      continue;
    }
    const uint64_t locked = ControlWord::SetLocked(c);
    if (!r->control.compare_exchange_strong(c, locked,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      log_.EndInPlaceWrite(f.address);
      continue;
    }
    std::memcpy(r->value(), value, size);
    TransformControl(&r->control, [tracked](uint64_t w) {
      uint64_t n = ControlWord::IncrGeneration(w);
      if (tracked) n = ControlWord::DecrStaleness(n);
      return ControlWord::ClearLocked(n);
    });
    log_.EndInPlaceWrite(f.address);
    stats_.inplace_updates.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
}

Status FasterStore::Rmw(Key key, uint32_t value_size,
                        const std::function<void(char*, uint32_t, bool)>&
                            modifier) {
  stats_.rmws.fetch_add(1, std::memory_order_relaxed);
  const bool tracked = options_.track_staleness;
  std::vector<char> scratch;
  for (;;) {
    FindResult f;
    MLKV_RETURN_NOT_OK(Find(key, &f));
    if (!f.found || (f.meta.flags & kRecordTombstone)) {
      scratch.assign(value_size, 0);
      modifier(scratch.data(), value_size, /*exists=*/false);
      Status s = AppendAndPublish(key, scratch.data(), value_size,
                                  ControlWord::Make(0, 0), 0, f.chain_head);
      if (s.IsBusy()) continue;
      MLKV_RETURN_NOT_OK(s);
      stats_.inserts.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }

    if (f.address >= log_.read_only_address() &&
        f.meta.value_size == value_size) {
      // In-place modify under the record lock; pin first (see Read).
      if (!log_.BeginInPlaceWrite(f.address)) continue;
      Record* r = MutableRecord(f.address);
      uint64_t c = r->control.load(std::memory_order_acquire);
      if (ControlWord::Replaced(c)) {
        log_.EndInPlaceWrite(f.address);
        continue;
      }
      if (ControlWord::Locked(c)) {
        log_.EndInPlaceWrite(f.address);
        std::this_thread::yield();
        continue;
      }
      const uint64_t locked = ControlWord::SetLocked(c);
      if (!r->control.compare_exchange_strong(c, locked,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
        log_.EndInPlaceWrite(f.address);
        continue;
      }
      modifier(r->value(), value_size, /*exists=*/true);
      TransformControl(&r->control, [tracked](uint64_t w) {
        uint64_t n = ControlWord::IncrGeneration(w);
        if (tracked) n = ControlWord::DecrStaleness(n);
        return ControlWord::ClearLocked(n);
      });
      log_.EndInPlaceWrite(f.address);
      stats_.inplace_updates.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }

    // Cold record: copy, modify, append (RCU).
    scratch.assign(value_size, 0);
    const uint32_t copy_n =
        f.meta.value_size < value_size ? f.meta.value_size : value_size;
    MLKV_RETURN_NOT_OK(LoadValue(f.address, f.meta, scratch.data(), copy_n));
    modifier(scratch.data(), value_size, /*exists=*/true);
    // Sanitized like Upsert's RCU: a lock bit observed on the old version
    // (a concurrent reader holding it) must not be born into the new one,
    // which nothing would ever unlock.
    uint64_t control = ControlWord::Sanitize(f.meta.control);
    control = ControlWord::IncrGeneration(
        tracked ? ControlWord::DecrStaleness(control) : control);
    Status s = AppendAndPublish(key, scratch.data(), value_size, control, 0,
                                f.chain_head);
    if (s.IsBusy()) continue;
    MLKV_RETURN_NOT_OK(s);
    MarkReplaced(f.address);
    stats_.rcu_appends.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
}

Status FasterStore::InsertIfAbsent(
    Key key, Address chain_head, uint32_t value_size,
    const std::function<void(char*, uint32_t, bool)>& modifier) {
  // The entry still holding `chain_head` means the chain the caller's walk
  // saw is the whole chain: no live version of `key` exists, so the insert
  // needs no Find. A moved head (or a failed CAS) means a writer got in
  // between; Rmw then decides against the current chain.
  if (index()->Load(key) == chain_head) {
    std::vector<char> scratch(value_size, 0);
    modifier(scratch.data(), value_size, /*exists=*/false);
    const Status s =
        AppendAndPublish(key, scratch.data(), value_size,
                         ControlWord::Make(0, 0), 0, chain_head);
    if (s.ok()) {
      stats_.inserts.fetch_add(1, std::memory_order_relaxed);
      return s;
    }
    if (!s.IsBusy()) return s;
  }
  return Rmw(key, value_size, modifier);
}

Status FasterStore::Delete(Key key) {
  stats_.deletes.fetch_add(1, std::memory_order_relaxed);
  for (;;) {
    FindResult f;
    MLKV_RETURN_NOT_OK(Find(key, &f));
    if (!f.found || (f.meta.flags & kRecordTombstone)) {
      return Status::NotFound();
    }
    Status s = AppendAndPublish(
        key, nullptr, 0,
        ControlWord::IncrGeneration(ControlWord::Sanitize(f.meta.control)),
        kRecordTombstone, f.chain_head);
    if (s.IsBusy()) continue;
    MLKV_RETURN_NOT_OK(s);
    MarkReplaced(f.address);
    return Status::OK();
  }
}

Status FasterStore::ReadRecordAt(Address address, RecordMeta* meta,
                                 std::vector<char>* value) {
  if (address < log_.begin_address() || address >= log_.tail()) {
    return Status::InvalidArgument("address outside the live log");
  }
  bool in_memory = false;
  MLKV_RETURN_NOT_OK(LoadMeta(address, meta, &in_memory));
  meta->control = ControlWord::Sanitize(meta->control);
  if (value != nullptr) {
    value->resize(meta->value_size);
    if (meta->value_size > 0) {
      MLKV_RETURN_NOT_OK(
          LoadValue(address, *meta, value->data(), meta->value_size));
    }
  }
  return Status::OK();
}

Status FasterStore::Compact(Address until, CompactionResult* result) {
  CompactionResult local;
  CompactionResult* r = result != nullptr ? result : &local;
  if (compact_lock_.test_and_set(std::memory_order_acquire)) {
    return Status::Busy("compaction already running");
  }
  struct Release {
    std::atomic_flag* f;
    ~Release() { f->clear(std::memory_order_release); }
  } release{&compact_lock_};

  const Address begin = log_.begin_address();
  if (until > log_.read_only_address()) until = log_.read_only_address();
  if (until <= begin) {
    r->new_begin = begin;
    return Status::OK();  // nothing cold to compact
  }

  // Page-granular scan: records below the read-only boundary are immutable,
  // so each page is snapshotted with one bulk read (seqlock-validated copy
  // when resident, one pread otherwise) and parsed in memory — compaction
  // I/O is then proportional to pages, not records.
  const uint64_t page_size = log_.options().page_size;
  std::vector<char> page(page_size);
  Address a = begin;
  while (a < until) {
    const Address page_start = a & ~(page_size - 1);
    const Address page_end = page_start + page_size;
    // Snapshot the full page remainder: a record may start below `until`
    // but extend past it. Reads past EOF zero-fill, which scans as a gap.
    MLKV_RETURN_NOT_OK(
        log_.ReadRaw(a, page.data() + (a - page_start),
                     static_cast<uint32_t>(page_end - a)));
    while (a < until) {
      // A page remainder too small for a header is always gap fill.
      if (page_end - a < sizeof(Record)) break;
      RecordMeta meta;
      const char* rec = page.data() + (a - page_start);
      std::memcpy(&meta.control, rec + 0, 8);
      std::memcpy(&meta.prev, rec + 8, 8);
      std::memcpy(&meta.key, rec + 16, 8);
      std::memcpy(&meta.value_size, rec + 24, 4);
      std::memcpy(&meta.flags, rec + 28, 4);
      if ((meta.flags & kRecordValid) == 0) {
        // Invalid header: either page-roll gap fill (all zero — skip the
        // rest of the page) or a record retracted after a lost index CAS
        // (header intact, valid bit cleared — skip it in place).
        if (meta.control == 0 && meta.prev == 0 && meta.key == 0 &&
            meta.value_size == 0 && meta.flags == 0) {
          break;
        }
        const Address skip = a + Record::SizeFor(meta.value_size);
        if (skip > page_end) break;  // corrupt remnant: treat as gap
        a = skip;
        continue;
      }
      const Address next = a + Record::SizeFor(meta.value_size);
      if (next > page_end) {
        return Status::Corruption("record overruns its page");
      }
      ++r->scanned;

      // Liveness: the record is live iff the index still resolves its key
      // to exactly this address. Fast path: the chain head IS this address
      // (no chain walk, no I/O) — true for most live records.
      for (;;) {
        Address expected = index()->Load(meta.key);
        if (expected != a) {
          FindResult f;
          MLKV_RETURN_NOT_OK(Find(meta.key, &f));
          if (!f.found || f.address != a) {
            ++r->dead_skipped;
            break;
          }
          expected = f.chain_head;
        }
        if (meta.flags & kRecordTombstone) {
          // Newest version is a tombstone: once begin passes it the key
          // walks off the chain end and reads NotFound, so the tombstone
          // itself need not survive.
          ++r->tombstones_dropped;
          break;
        }
        // A compaction copy is not an update: control word (generation AND
        // staleness) and flags carry over unchanged, like a promotion.
        Status s = CopyToTail(meta.key, rec + sizeof(Record), meta, expected,
                              CopyWord::kKeep);
        if (s.IsBusy()) continue;  // superseded mid-copy; re-check
        MLKV_RETURN_NOT_OK(s);
        ++r->live_copied;
        break;
      }
      a = next;
    }
    a = page_end;
  }

  MLKV_RETURN_NOT_OK(log_.ShiftBeginAddress(until));
  r->new_begin = until;
  stats_.compactions.fetch_add(1, std::memory_order_relaxed);
  stats_.compaction_live_copied.fetch_add(r->live_copied,
                                          std::memory_order_relaxed);
  return Status::OK();
}

Status FasterStore::GrowIndex(uint32_t factor_log2) {
  return index()->Grow(factor_log2);
}

Status FasterStore::MaybeGrowIndex(double max_load) {
  if (max_load <= 0) return Status::InvalidArgument("max_load must be > 0");
  const double live = static_cast<double>(approximate_size());
  uint32_t doublings = 0;
  uint64_t slots = index()->num_slots();
  while (live / static_cast<double>(slots) > max_load && doublings < 16) {
    slots <<= 1;
    ++doublings;
  }
  if (doublings == 0) return Status::OK();
  return index()->Grow(doublings);
}

Status FasterStore::MaybeCompact(uint64_t max_log_bytes,
                                 CompactionResult* result) {
  const Address begin = log_.begin_address();
  const Address tail = log_.tail();
  if (tail - begin <= max_log_bytes) return Status::OK();
  return Compact(log_.read_only_address(), result);
}

bool FasterStore::IsInMemory(Key key) {
  FindResult f;
  if (!Find(key, &f).ok() || !f.found) return false;
  return f.address >= log_.head_address();
}

bool FasterStore::IsLiveVersion(Key key, Address address) {
  FindResult f;
  if (!Find(key, &f).ok() || !f.found) return false;
  return f.address == address;
}

Status FasterStore::Checkpoint(const std::string& prefix) {
  if (options_.checkpoint_mode == CheckpointMode::kIncremental) {
    return CheckpointIncremental(prefix);
  }
  return CheckpointFull(prefix);
}

Status FasterStore::CheckpointFull(const std::string& prefix) {
  MLKV_RETURN_NOT_OK(log_.FlushAll());
  CheckpointMeta meta;
  meta.tail = log_.tail();
  meta.index_slots = index()->num_slots();
  meta.num_inserts = stats_.inserts.load(std::memory_order_relaxed);
  meta.begin = log_.begin_address();
  meta.page_size = options_.page_size;
  FileDevice idx_dev;
  MLKV_RETURN_NOT_OK(idx_dev.Open(IndexPath(prefix, /*legacy=*/false)));
  MLKV_RETURN_NOT_OK(index()->WriteTo(&idx_dev, 0));
  MLKV_RETURN_NOT_OK(idx_dev.Sync());
  MLKV_RETURN_NOT_OK(CommitMeta(prefix, meta));
  // A full dump supersedes any incremental chain under this prefix.
  ckpt_.prefix = prefix;
  ckpt_.tail = meta.tail;
  ckpt_.deltas = 0;
  ckpt_.index_slots = meta.index_slots;
  return Status::OK();
}

Status FasterStore::CheckpointIncremental(const std::string& prefix) {
  // Incremental flush: only dirty/undurable pages are rewritten (the bytes
  // saving measured by bench_checkpoint), but after Persist the WHOLE log
  // below `tail` is durable, so base and delta checkpoints alike cover it.
  MLKV_RETURN_NOT_OK(log_.Persist());
  const Address tail = log_.tail();
  const bool chained = ckpt_.prefix == prefix &&
                       ckpt_.index_slots == index()->num_slots() &&
                       ckpt_.deltas < kMaxCheckpointDeltas;

  CheckpointMeta meta;
  meta.tail = tail;
  meta.index_slots = index()->num_slots();
  meta.num_inserts = stats_.inserts.load(std::memory_order_relaxed);
  meta.begin = log_.begin_address();
  meta.page_size = options_.page_size;

  if (!chained) {
    // Fresh base: full index dump, zero deltas.
    FileDevice idx_dev;
    MLKV_RETURN_NOT_OK(idx_dev.Open(IndexPath(prefix, /*legacy=*/false)));
    MLKV_RETURN_NOT_OK(index()->WriteTo(&idx_dev, 0));
    MLKV_RETURN_NOT_OK(idx_dev.Sync());
    meta.delta_count = 0;
  } else {
    // Delta: (slot, entry) pairs for entries whose head moved at or past
    // the previous checkpoint's tail. Publishes only ever install addresses
    // at the then-current tail, so every head changed since that
    // checkpoint — and no head captured by it — satisfies the predicate
    // (a claim is a head change too; tags never change on their own).
    std::vector<uint64_t> pairs;
    const uint64_t n = index()->num_slots();
    for (uint64_t s = 0; s < n; ++s) {
      const uint64_t entry = index()->LoadSlot(s);
      const Address a = HashIndex::EntryAddress(entry);
      if (a == kInvalidAddress || a < ckpt_.tail) continue;
      pairs.push_back(s);
      pairs.push_back(entry);
    }
    meta.delta_count = ckpt_.deltas + 1;
    FileDevice delta_dev;
    MLKV_RETURN_NOT_OK(delta_dev.Open(
        DeltaPath(IndexPath(prefix, /*legacy=*/false), meta.delta_count)));
    const uint64_t count = pairs.size() / 2;
    MLKV_RETURN_NOT_OK(delta_dev.WriteAt(0, &count, sizeof(count)));
    if (!pairs.empty()) {
      MLKV_RETURN_NOT_OK(delta_dev.WriteAt(sizeof(count), pairs.data(),
                                           pairs.size() * sizeof(uint64_t)));
    }
    MLKV_RETURN_NOT_OK(delta_dev.Sync());
  }

  // A new delta keeps the previous checkpoint intact until the commit.
  MLKV_RETURN_NOT_OK(CommitMeta(prefix, meta));
  ckpt_.prefix = prefix;
  ckpt_.tail = tail;
  ckpt_.deltas = meta.delta_count;
  ckpt_.index_slots = meta.index_slots;
  return Status::OK();
}

Status FasterStore::Recover(const FasterOptions& options,
                            const std::string& prefix) {
  options_ = options;
  FileDevice meta_dev;
  MLKV_RETURN_NOT_OK(meta_dev.Open(prefix + ".meta", /*truncate=*/false));
  CheckpointMeta meta;
  // One read serves every version: a v1 file is sizeof(uint64_t) shorter
  // and the past-EOF zero-fill leaves delta_count == 0.
  MLKV_RETURN_NOT_OK(meta_dev.ReadAt(0, &meta, sizeof(meta)));
  const bool legacy =
      meta.magic == kMetaMagicV1 || meta.magic == kMetaMagicV2;
  if (!legacy && meta.magic != kMetaMagicV3) {
    return Status::Corruption("bad checkpoint magic");
  }
  if (meta.page_size != 0) options_.page_size = meta.page_size;
  index_.reset(new HashIndex(meta.index_slots));
  const uint64_t n = index()->num_slots();
  // A legacy checkpoint names untagged chain heads, one per slot (hash &
  // (n - 1)); they are loaded aside and turned into tagged entries below.
  std::vector<Address> legacy_heads(legacy ? n : 0);
  const std::string index_path = IndexPath(prefix, legacy);
  FileDevice idx_dev;
  MLKV_RETURN_NOT_OK(idx_dev.Open(index_path, /*truncate=*/false));
  if (legacy) {
    MLKV_RETURN_NOT_OK(
        idx_dev.ReadAt(0, legacy_heads.data(), n * sizeof(Address)));
  } else {
    MLKV_RETURN_NOT_OK(index()->ReadFrom(idx_dev, 0));
  }
  for (uint64_t k = 1; k <= meta.delta_count; ++k) {
    FileDevice delta_dev;
    MLKV_RETURN_NOT_OK(delta_dev.Open(DeltaPath(index_path, k),
                                      /*truncate=*/false));
    uint64_t count = 0;
    MLKV_RETURN_NOT_OK(delta_dev.ReadAt(0, &count, sizeof(count)));
    std::vector<uint64_t> pairs(count * 2);
    if (count > 0) {
      MLKV_RETURN_NOT_OK(delta_dev.ReadAt(sizeof(count), pairs.data(),
                                          pairs.size() * sizeof(uint64_t)));
    }
    for (uint64_t i = 0; i < count; ++i) {
      const uint64_t slot = pairs[2 * i];
      if (slot >= n) {
        return Status::Corruption("checkpoint delta slot out of range");
      }
      if (legacy) {
        legacy_heads[slot] = pairs[2 * i + 1];
      } else {
        index()->StoreSlot(slot, pairs[2 * i + 1]);
      }
    }
  }

  MLKV_RETURN_NOT_OK(log_.Open(options_, /*truncate=*/false));
  stats_.inserts.store(meta.num_inserts, std::memory_order_relaxed);
  Address recovered = meta.tail;
  if (options_.durability == DurabilityMode::kGroup) {
    // Group-committed records past the checkpoint tail are durable without
    // being in any checkpoint; replay them against the heads they were
    // published on, then cut the file at the last valid record so torn
    // bytes cannot resurface.
    auto publish = [&](Key key, Address prev, Address addr) {
      if (legacy) {
        Address& head = legacy_heads[Hash64(key) & (n - 1)];
        if (head != prev) return false;
        head = addr;
        return true;
      }
      return index()->CompareExchange(key, prev, addr);
    };
    MLKV_RETURN_NOT_OK(ReplayTail(meta.tail, publish, &recovered));
    MLKV_RETURN_NOT_OK(log_.DiscardDiskBeyond(recovered));
  }
  MLKV_RETURN_NOT_OK(log_.RestoreBoundaries(recovered, meta.begin));
  if (legacy) {
    // Upgrade: rebuild tagged entries, then checkpoint them as v3 under the
    // same prefix, so later recoveries — and the group-commit replay of
    // records published against the tagged heads — start from them. The
    // v3 files sit beside the legacy ones and the meta rename commits the
    // upgrade: a crash before it leaves the legacy checkpoint intact.
    MLKV_RETURN_NOT_OK(AdoptLegacyIndex(legacy_heads));
    ckpt_ = CheckpointChain();
    return Checkpoint(prefix);
  }
  ckpt_.prefix = prefix;
  ckpt_.tail = meta.tail;
  ckpt_.deltas = meta.delta_count;
  ckpt_.index_slots = meta.index_slots;
  return Status::OK();
}

Status FasterStore::AdoptLegacyIndex(const std::vector<Address>& heads) {
  // Each slot's chain is walked once, newest first, visiting only the keys
  // that hash to that slot (after a legacy Grow a chain also holds stale
  // versions of keys whose live chain is a refined slot's). A key's first
  // record in its walk is its newest version; it becomes its tag's head
  // when the tag has no entry yet. Later keys of the same walk whose entry
  // was claimed earlier in this walk are reachable from that head (the
  // walk only moves to older records); every other key is an orphan —
  // its entry heads a different chain — and gets its newest version
  // copied to the tail on top of that entry, control word and flags
  // unchanged, like a compaction copy. Tombstoned orphans are simply
  // dropped: unreachable reads as NotFound.
  const uint64_t mask = heads.size() - 1;
  std::vector<std::pair<Key, Address>> orphans;
  std::unordered_set<Key> seen;
  std::unordered_set<Address> claimed;
  for (uint64_t slot = 0; slot < heads.size(); ++slot) {
    seen.clear();
    claimed.clear();
    Address a = heads[slot];
    while (a != kInvalidAddress && a >= log_.begin_address()) {
      RecordMeta meta;
      bool in_memory = false;
      MLKV_RETURN_NOT_OK(LoadMeta(a, &meta, &in_memory));
      if ((Hash64(meta.key) & mask) == slot && seen.insert(meta.key).second) {
        Address head = index()->Load(meta.key);
        if (head == kInvalidAddress &&
            index()->CompareExchange(meta.key, head, a)) {
          claimed.insert(a);
        } else if (claimed.count(head) == 0) {
          orphans.emplace_back(meta.key, a);
        }
      }
      a = meta.prev;
    }
  }
  std::vector<char> value;
  for (const auto& [key, address] : orphans) {
    RecordMeta meta;
    MLKV_RETURN_NOT_OK(ReadRecordAt(address, &meta, &value));
    if (meta.flags & kRecordTombstone) continue;
    MLKV_RETURN_NOT_OK(CopyToTail(key, value.data(), meta,
                                  index()->Load(key), CopyWord::kKeep));
  }
  return Status::OK();
}

Status FasterStore::ReplayTail(
    Address from,
    const std::function<bool(Key, Address, Address)>& publish,
    Address* recovered) {
  struct TailRecord {
    Address addr = kInvalidAddress;
    Address prev = kInvalidAddress;
    Key key = 0;
    uint32_t flags = 0;
    bool published = false;
  };
  std::vector<TailRecord> records;
  const uint64_t page_size = options_.page_size;
  const uint64_t fsize = log_.device()->FileSize();
  Address a = from;
  Address end = from;
  // Forward scan. The header fields parsed here (prev/key/value_size/flags)
  // are written exactly once under the append pin, so any record whose
  // bytes reached disk at all carries them intact; only the frontier where
  // a crash interrupted a page write can be torn, and the scan stops there.
  while (a + sizeof(Record) <= fsize) {
    const uint64_t page_end = (a / page_size + 1) * page_size;
    if (a + sizeof(Record) > page_end) {
      a = page_end;  // record headers never straddle pages
      continue;
    }
    char buf[sizeof(Record)];
    MLKV_RETURN_NOT_OK(log_.ReadDisk(a, buf, sizeof(buf)));
    TailRecord r;
    uint64_t control = 0;
    uint32_t value_size = 0;
    std::memcpy(&control, buf + 0, 8);
    std::memcpy(&r.prev, buf + 8, 8);
    std::memcpy(&r.key, buf + 16, 8);
    std::memcpy(&value_size, buf + 24, 4);
    std::memcpy(&r.flags, buf + 28, 4);
    if (control == 0 && r.prev == 0 && r.key == 0 && value_size == 0 &&
        r.flags == 0) {
      a = page_end;  // page-roll gap: zeroes run to the end of the page
      continue;
    }
    if (value_size > page_size) break;  // torn frontier
    const uint64_t rec_size = Record::SizeFor(value_size);
    if (a + rec_size > page_end) break;  // torn frontier
    if ((r.flags & kRecordValid) != 0) {
      r.addr = a;
      records.push_back(r);
      end = a + rec_size;
    }
    // Records without the valid bit were retracted after a lost index CAS
    // (AppendAndPublish); their sizes are sound, so skip them in place.
    a += rec_size;
  }

  // Republish in passes to a fixpoint: a record goes live only when its
  // prev equals the key's current chain head — exactly the CAS it won in
  // the original run, so replay reconstructs the same publish order even
  // though allocation order (address order) can differ from it. New tags
  // may claim different entries than they did originally; a full bucket's
  // routes depend only on its set of tags (kv/hash_index.h), so every
  // key still meets the chain head it was published on.
  bool progress = true;
  while (progress) {
    progress = false;
    for (TailRecord& r : records) {
      if (r.published || !publish(r.key, r.prev, r.addr)) continue;
      r.published = true;
      progress = true;
      if ((r.flags & kRecordTombstone) == 0 && r.prev == kInvalidAddress) {
        stats_.inserts.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  *recovered = end;
  return Status::OK();
}

void FasterStore::CollectMetrics(obs::MetricsSink* sink,
                                 std::string_view shard) const {
  const auto get = [](const std::atomic<uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  const obs::MetricsSink::Label at{"shard", shard};
  for (const auto& [op, count] :
       {std::pair{"read", &Stats::reads}, std::pair{"upsert", &Stats::upserts},
        std::pair{"rmw", &Stats::rmws}, std::pair{"delete", &Stats::deletes}}) {
    sink->AddCounter("mlkv_shard_ops_total",
                     "Operations executed per store shard",
                     get(stats_.*count), {at, {"op", op}});
  }
  struct Family {
    const char* name;
    const char* help;
    std::atomic<uint64_t> Stats::*count;
  };
  static constexpr Family kCounters[] = {
      {"mlkv_store_inplace_updates_total",
       "Writes absorbed in place in the mutable region",
       &Stats::inplace_updates},
      {"mlkv_store_rcu_appends_total",
       "Writes that appended a new record version", &Stats::rcu_appends},
      {"mlkv_store_inserts_total", "First-time key insertions",
       &Stats::inserts},
      {"mlkv_store_promotions_total",
       "Cold records copied to the log tail by lookahead",
       &Stats::promotions},
      {"mlkv_store_promotions_skipped_total",
       "Promotions skipped (already in memory or superseded)",
       &Stats::promotions_skipped},
      {"mlkv_store_promotions_late_total",
       "Skipped promotions whose record moved while in flight",
       &Stats::promotions_late},
      {"mlkv_store_read_copies_total",
       "Cold records copied to the tail by reads", &Stats::read_copies},
      {"mlkv_store_staleness_waits_total",
       "Reads that waited out the staleness bound", &Stats::staleness_waits},
      {"mlkv_store_busy_aborts_total", "Reads that gave up waiting with Busy",
       &Stats::busy_aborts},
      {"mlkv_store_chain_hops_total",
       "Device record reads of another key sharing the chain",
       &Stats::chain_hops},
      {"mlkv_store_compactions_total", "Log compaction passes",
       &Stats::compactions},
      {"mlkv_store_compaction_live_copied_total",
       "Live records re-appended by compaction",
       &Stats::compaction_live_copied},
      {"mlkv_io_async_reads_submitted_total",
       "Pending-read requests handed to the AsyncIoEngine (a span-merged "
       "request carries several records; the engine may merge requests "
       "into one device read)",
       &Stats::async_reads_submitted},
      {"mlkv_io_async_reads_completed_total",
       "Pending-read requests that completed", &Stats::async_reads_completed},
      {"mlkv_io_async_reads_refetched_total",
       "Pending reads that fell back to a synchronous re-read",
       &Stats::async_reads_refetched},
  };
  for (const Family& f : kCounters) {
    sink->AddCounter(f.name, f.help, get(stats_.*f.count), {at});
  }
  sink->AddGauge("mlkv_store_live_keys", "Approximate number of live keys",
                 static_cast<double>(approximate_size()), {at});
  sink->AddGauge("mlkv_store_log_span_bytes",
                 "Bytes spanned by the hybrid log (begin to tail)",
                 static_cast<double>(log_.tail() - log_.begin_address()),
                 {at});
  sink->AddGauge("mlkv_store_index_slots", "Hash index slot count",
                 static_cast<double>(index_slots()), {at});

  const HybridLogStats& ls = log_.stats();
  sink->AddCounter("mlkv_io_device_reads_total",
                   "Reads the log device served, one per device call however "
                   "many records or requests it carried",
                   log_.device()->reads(), {at});
  sink->AddCounter("mlkv_io_disk_record_reads_total",
                   "Records landed from disk, one per record however many "
                   "share a device read",
                   get(ls.disk_record_reads), {at});
  sink->AddCounter("mlkv_io_pages_flushed_total", "Log pages flushed to disk",
                   get(ls.pages_flushed), {at});
  sink->AddCounter("mlkv_io_pages_evicted_total",
                   "Log pages evicted from memory", get(ls.pages_evicted),
                   {at});
  sink->AddCounter("mlkv_io_async_writes_submitted_total",
                   "Flush-wave pages submitted to the AsyncIoEngine",
                   get(ls.async_writes_submitted), {at});
  sink->AddCounter("mlkv_io_async_writes_completed_total",
                   "Flush-wave pages completed",
                   get(ls.async_writes_completed), {at});
  // The log's own fdatasyncs plus its GroupCommitter's, if any.
  GroupCommitter::Stats commits;
  if (const GroupCommitter* gc = const_cast<HybridLog&>(log_).committer()) {
    commits = gc->stats();
  }
  sink->AddCounter("mlkv_io_fsyncs_total", "fsyncs issued (flush + commit)",
                   get(ls.fsyncs) + commits.fsyncs, {at});
  sink->AddCounter("mlkv_io_group_commits_total",
                   "Group commits batching more than one committer",
                   commits.group_commits, {at});
}

}  // namespace mlkv
