// Record layout and control-word encoding for the hybrid-log store.
//
// The control word follows MLKV's record format (paper Fig. 5(a)):
//
//   | locked: 1 bit | replaced: 1 bit | generation: 30 bits | staleness: 32 bits |
//    bit 63           bit 62            bits 32..61            bits 0..31
//
// FASTER uses the locked/replaced/generation fields as a latch-free record
// lock; MLKV "steals" the remaining 32 bits for a per-record vector clock
// (staleness counter) to implement bounded staleness consistency. All state
// transitions are single compare-and-swap operations on this word.
//
// The contract (SSP; Ho et al., NIPS'13): a tracked Get is admitted while
// the newest version's counter is <= the bound b and then increments it; a
// Put decrements it (saturating at 0) and never waits. So at most b+1 Gets
// of a key are outstanding ahead of its Puts, and every admitted Get
// counts: on a mutable record the increment is a CAS on this word, on a
// cold (read-only or disk) record it is a tail copy of the record whose
// word carries counter+1, published by an index CAS against the chain head
// the read observed.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>

#include "common/hash.h"

namespace mlkv {

using Key = uint64_t;
using Address = uint64_t;

inline constexpr Address kInvalidAddress = 0;
// Log addresses stay below 2^48: a hash index entry keeps 48 address bits
// next to its tag (kv/hash_index.h), and HybridLog refuses to grow past it.
inline constexpr Address kAddressLimit = Address{1} << 48;

// Default number of bounded-Get retries — index re-lookups, each yielding
// the CPU — before a staleness wait gives up with Status::Busy. Multi-worker
// BSP can deadlock on crossed key waits; the cap converts that into a
// counted, recoverable abort (~65k yields, i.e. milliseconds of wall time).
// FasterOptions::busy_spin_limit's default.
inline constexpr uint64_t kDefaultBusySpinLimit = 1ull << 16;

// Control-word bit manipulation. Plain functions over uint64_t so the same
// helpers serve atomic CAS loops and offline record inspection.
struct ControlWord {
  static constexpr uint64_t kLockedBit = 1ull << 63;
  static constexpr uint64_t kReplacedBit = 1ull << 62;
  static constexpr int kGenerationShift = 32;
  static constexpr uint64_t kGenerationMask = ((1ull << 30) - 1)
                                              << kGenerationShift;
  static constexpr uint64_t kStalenessMask = (1ull << 32) - 1;

  static bool Locked(uint64_t c) { return (c & kLockedBit) != 0; }
  static bool Replaced(uint64_t c) { return (c & kReplacedBit) != 0; }
  static uint32_t Generation(uint64_t c) {
    return static_cast<uint32_t>((c & kGenerationMask) >> kGenerationShift);
  }
  static uint32_t Staleness(uint64_t c) {
    return static_cast<uint32_t>(c & kStalenessMask);
  }

  static uint64_t SetLocked(uint64_t c) { return c | kLockedBit; }
  static uint64_t ClearLocked(uint64_t c) { return c & ~kLockedBit; }
  static uint64_t SetReplaced(uint64_t c) { return c | kReplacedBit; }

  static uint64_t WithStaleness(uint64_t c, uint32_t s) {
    return (c & ~kStalenessMask) | s;
  }
  static uint64_t IncrStaleness(uint64_t c) {
    const uint32_t s = Staleness(c);
    return WithStaleness(c, s == UINT32_MAX ? s : s + 1);
  }
  static uint64_t DecrStaleness(uint64_t c) {
    const uint32_t s = Staleness(c);
    return WithStaleness(c, s == 0 ? 0 : s - 1);
  }
  static uint64_t IncrGeneration(uint64_t c) {
    const uint32_t g = (Generation(c) + 1) & ((1u << 30) - 1);
    return (c & ~kGenerationMask)
           | (static_cast<uint64_t>(g) << kGenerationShift);
  }

  // Disk images may carry transient in-memory bits (a lock held over the
  // flush, a replaced mark applied after the page was written); reads from
  // disk sanitize them.
  static uint64_t Sanitize(uint64_t c) {
    return c & ~(kLockedBit | kReplacedBit);
  }

  static uint64_t Make(uint32_t generation, uint32_t staleness) {
    return (static_cast<uint64_t>(generation & ((1u << 30) - 1))
            << kGenerationShift)
           | staleness;
  }
};

// Record flags (stored next to value_size).
inline constexpr uint32_t kRecordTombstone = 1u << 0;
// Set on every record the store appends. Pages are zero-filled before use,
// so a log scan distinguishes real records from page-roll gap bytes by this
// bit alone (every other header field can legitimately be zero).
inline constexpr uint32_t kRecordValid = 1u << 1;

// In-log record. `control` is mutated concurrently; `prev`, `key`,
// `value_size`, and `flags` are immutable once the record is published via
// the index (release CAS), so readers may access them without the lock.
struct Record {
  std::atomic<uint64_t> control;
  Address prev;        // next-older record in this hash chain
  Key key;
  uint32_t value_size;
  uint32_t flags;
  // value bytes follow, padded so records stay 8-byte aligned.

  char* value() { return reinterpret_cast<char*>(this) + sizeof(Record); }
  const char* value() const {
    return reinterpret_cast<const char*>(this) + sizeof(Record);
  }

  bool tombstone() const { return (flags & kRecordTombstone) != 0; }
  bool valid() const { return (flags & kRecordValid) != 0; }

  static uint32_t SizeFor(uint32_t value_size) {
    const uint32_t raw = static_cast<uint32_t>(sizeof(Record)) + value_size;
    return (raw + 7u) & ~7u;
  }
};

static_assert(sizeof(Record) == 32, "record header must be 32 bytes");
static_assert(alignof(Record) == 8, "records are 8-byte aligned in the log");

// Plain (non-atomic) snapshot of a record header, used for disk reads and
// seqlock-validated memory copies.
struct RecordMeta {
  uint64_t control = 0;
  Address prev = kInvalidAddress;
  Key key = 0;
  uint32_t value_size = 0;
  uint32_t flags = 0;
};

}  // namespace mlkv
