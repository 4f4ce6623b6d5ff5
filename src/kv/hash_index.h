// Latch-free hash index in FASTER's layout (Chandramouli et al., "FASTER:
// A Concurrent Key-Value Store with In-Place Updates", SIGMOD'18, §4): an
// array of 64-byte buckets, each holding eight 64-bit entries
//
//   | reserved: 1 bit | tag: 15 bits | address: 48 bits |
//    bit 63            bits 48..62    bits 0..47
//
// A key's bucket comes from the low hash bits and its tag from hash bits
// 32..46 (common/hash.h). An entry is the head of the hash chain of the keys
// in its bucket that carry its tag, linked newest-first through
// Record::prev; lookups walk that chain comparing full keys. Tags make
// chains short: keys only share a chain when they share a bucket AND a tag.
//
// Entry lifecycle, which keeps every transition a single CAS on one entry:
//  * A tag with no entry in its bucket claims the bucket's first empty
//    entry by CAS from 0. Entries are never freed, so the non-empty entries
//    are always a prefix of the bucket and a tag appears at most once per
//    bucket — no tentative bit (FASTER's two-phase insert) is needed.
//  * A full bucket routes a missing tag to the entry holding the smallest
//    claimed tag above it, wrapping around to the smallest claimed tag. The
//    missing tag then shares that entry's chain (full-key compare keeps the
//    keys apart, as in a chained index without tags). The route depends
//    only on which tags the bucket holds, never on where each one sits, so
//    group-commit recovery (FasterStore::ReplayTail), which re-claims
//    entries in address order rather than in the order the original CASes
//    won, rebuilds the same chains.
//  * Publishing a new chain head swaps only the address bits; the tag of a
//    claimed entry never changes.
// Because entries are never freed, delete-heavy churn leaves dead tags
// holding entries until the bucket fills. Grow (FasterStore's
// MaybeGrowIndex) copies a bucket into each of its refinements, so it
// thins chains of claimed tags but does not empty a full bucket: its
// missing tags keep sharing their routed chains.
//
// The entry count (`num_slots`) is the sizing knob: eight entries per
// bucket, so an index of N slots uses the same N * 8 bytes as an untagged
// slot array would.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/hash.h"
#include "common/status.h"
#include "kv/record.h"

namespace mlkv {

class FileDevice;

class HashIndex {
 public:
  static constexpr uint64_t kAddressMask = kAddressLimit - 1;

  // `num_slots` (entries) is rounded up to a power of two, at least two
  // buckets' worth.
  explicit HashIndex(uint64_t num_slots);

  HashIndex(const HashIndex&) = delete;
  HashIndex& operator=(const HashIndex&) = delete;

  // Head of the chain `key` belongs to (kInvalidAddress: its tag has no
  // entry and the bucket has room to claim one).
  Address Load(Key key) const;

  // Publishes `desired` as the chain head if the head is still `expected`;
  // otherwise returns false with `expected` set to the current head. An
  // absent tag (expected kInvalidAddress) claims an entry here.
  bool CompareExchange(Key key, Address& expected, Address desired);

  uint64_t num_slots() const { return (bucket_mask_ + 1) * kBucketEntries; }

  // Raw-entry access for incremental checkpoints: a delta record stores
  // (slot, entry) pairs for entries whose address moved since the base,
  // and recovery reapplies them positionally.
  uint64_t LoadSlot(uint64_t slot) const {
    return buckets_[slot / kBucketEntries]
        .entry[slot % kBucketEntries]
        .load(std::memory_order_acquire);
  }
  void StoreSlot(uint64_t slot, uint64_t entry) {
    buckets_[slot / kBucketEntries].entry[slot % kBucketEntries].store(
        entry, std::memory_order_release);
  }
  static Address EntryAddress(uint64_t entry) { return entry & kAddressMask; }

  // Number of claimed entries (diagnostics / checkpoint metadata).
  uint64_t CountUsed() const;

  // Doubles the bucket array `factor_log2` times. A key in bucket b can
  // only rehash to buckets {b, b + n, b + 2n, ...} (n = old bucket count),
  // so each of those receives a copy of bucket b: every chain stays
  // reachable and later publishes go to the refined buckets. NOT
  // thread-safe: the caller must guarantee no concurrent index operations,
  // same as the checkpoint contract (see FasterStore::GrowIndex).
  Status Grow(uint32_t factor_log2 = 1);

  // Serializes / restores the raw entry array for checkpointing.
  Status WriteTo(FileDevice* dev, uint64_t offset) const;
  Status ReadFrom(const FileDevice& dev, uint64_t offset);

 private:
  static constexpr uint64_t kBucketEntries = 8;
  static constexpr int kTagShift = 48;

  struct alignas(64) Bucket {
    std::atomic<uint64_t> entry[kBucketEntries];
  };

  static constexpr uint64_t kTagMask = 0x7FFF;

  static uint64_t TagOf(uint64_t hash) { return (hash >> 32) & kTagMask; }

  // Index of the entry a full bucket routes the missing `tag` to, given
  // the bucket's eight claimed entries.
  static uint64_t OverflowEntry(const uint64_t (&entries)[kBucketEntries],
                                uint64_t tag);

  uint64_t bucket_mask_;
  std::unique_ptr<Bucket[]> buckets_;
};

}  // namespace mlkv
