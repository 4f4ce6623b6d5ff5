#include "kv/hash_index.h"

#include <vector>

#include "io/file_device.h"

namespace mlkv {

namespace {

// Swaps the address bits of a claimed entry from `expected` to `desired`.
// `seen` is any value the entry held: its tag bits never change once
// claimed, so comparing whole entries compares addresses.
bool SwapAddress(std::atomic<uint64_t>* entry, uint64_t seen,
                 Address& expected, Address desired) {
  const uint64_t tag_bits = seen & ~HashIndex::kAddressMask;
  uint64_t want = tag_bits | expected;
  if (entry->compare_exchange_strong(want, tag_bits | desired,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
    return true;
  }
  expected = HashIndex::EntryAddress(want);
  return false;
}

}  // namespace

HashIndex::HashIndex(uint64_t num_slots) {
  const uint64_t min_slots = 2 * kBucketEntries;
  const uint64_t n = RoundUpPow2(num_slots < min_slots ? min_slots : num_slots);
  const uint64_t buckets = n / kBucketEntries;
  bucket_mask_ = buckets - 1;
  buckets_.reset(new Bucket[buckets]);
  for (uint64_t b = 0; b < buckets; ++b) {
    for (auto& e : buckets_[b].entry) e.store(0, std::memory_order_relaxed);
  }
}

uint64_t HashIndex::OverflowEntry(const uint64_t (&entries)[kBucketEntries],
                                  uint64_t tag) {
  // Distance from `tag` up to each claimed tag, mod 2^15; `tag` itself is
  // missing, so every distance is at least 1 and the minimum is unique.
  auto distance = [tag](uint64_t e) {
    return ((e >> kTagShift) - tag) & kTagMask;
  };
  uint64_t best = 0;
  for (uint64_t i = 1; i < kBucketEntries; ++i) {
    if (distance(entries[i]) < distance(entries[best])) best = i;
  }
  return best;
}

Address HashIndex::Load(Key key) const {
  const uint64_t h = Hash64(key);
  const Bucket& b = buckets_[h & bucket_mask_];
  const uint64_t tag = TagOf(h);
  uint64_t entries[kBucketEntries];
  for (uint64_t i = 0; i < kBucketEntries; ++i) {
    entries[i] = b.entry[i].load(std::memory_order_acquire);
    if (entries[i] == 0) return kInvalidAddress;  // claimed entries: a prefix
    if ((entries[i] >> kTagShift) == tag) return EntryAddress(entries[i]);
  }
  return EntryAddress(b.entry[OverflowEntry(entries, tag)].load(
      std::memory_order_acquire));
}

bool HashIndex::CompareExchange(Key key, Address& expected, Address desired) {
  const uint64_t h = Hash64(key);
  Bucket& b = buckets_[h & bucket_mask_];
  const uint64_t tag = TagOf(h);
  uint64_t entries[kBucketEntries];
  for (uint64_t i = 0; i < kBucketEntries; ++i) {
    auto& slot = b.entry[i];
    uint64_t e = slot.load(std::memory_order_acquire);
    if (e == 0) {
      // The tag has no entry: the head is empty.
      if (expected != kInvalidAddress) {
        expected = kInvalidAddress;
        return false;
      }
      if (slot.compare_exchange_strong(e, (tag << kTagShift) | desired,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        return true;
      }
      // Another tag won the claim: e is its entry; maybe it is ours.
    }
    if ((e >> kTagShift) == tag) return SwapAddress(&slot, e, expected, desired);
    entries[i] = e;
  }
  auto& shared = b.entry[OverflowEntry(entries, tag)];
  return SwapAddress(&shared, shared.load(std::memory_order_acquire),
                     expected, desired);
}

Status HashIndex::Grow(uint32_t factor_log2) {
  if (factor_log2 == 0) return Status::OK();
  if (factor_log2 > 16) {
    return Status::InvalidArgument("index growth factor too large");
  }
  const uint64_t old_n = bucket_mask_ + 1;
  const uint64_t new_n = old_n << factor_log2;
  std::unique_ptr<Bucket[]> grown(new Bucket[new_n]);
  // hash & new_mask == (hash & old_mask) + k * old_n for some k, so bucket
  // i's keys can only rehash to buckets {i, i+old_n, i+2*old_n, ...}; seed
  // each with a copy of bucket i.
  for (uint64_t i = 0; i < old_n; ++i) {
    for (uint64_t k = 0; k < (1ull << factor_log2); ++k) {
      for (uint64_t s = 0; s < kBucketEntries; ++s) {
        grown[i + k * old_n].entry[s].store(
            buckets_[i].entry[s].load(std::memory_order_relaxed),
            std::memory_order_relaxed);
      }
    }
  }
  buckets_ = std::move(grown);
  bucket_mask_ = new_n - 1;
  return Status::OK();
}

uint64_t HashIndex::CountUsed() const {
  uint64_t used = 0;
  for (uint64_t s = 0; s < num_slots(); ++s) {
    if (LoadSlot(s) != 0) ++used;
  }
  return used;
}

Status HashIndex::WriteTo(FileDevice* dev, uint64_t offset) const {
  // Snapshot into a plain buffer; checkpoints are taken quiesced, so a
  // relaxed copy of each entry is a consistent image.
  const uint64_t n = num_slots();
  std::vector<uint64_t> buf(n);
  for (uint64_t s = 0; s < n; ++s) buf[s] = LoadSlot(s);
  return dev->WriteAt(offset, buf.data(), n * sizeof(uint64_t));
}

Status HashIndex::ReadFrom(const FileDevice& dev, uint64_t offset) {
  const uint64_t n = num_slots();
  std::vector<uint64_t> buf(n);
  MLKV_RETURN_NOT_OK(dev.ReadAt(offset, buf.data(), n * sizeof(uint64_t)));
  for (uint64_t s = 0; s < n; ++s) StoreSlot(s, buf[s]);
  return Status::OK();
}

}  // namespace mlkv
