// 64-bit hashing for keys. Embedding keys are 64-bit sparse-feature ids, so
// the hot path is a fixed-width integer mix (a finalizer with full avalanche,
// same construction as xxhash/murmur3 finalizers). A bytes variant covers
// variable-length keys in the LSM/B+tree baselines.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mlkv {

// SplitMix64 finalizer: bijective, full avalanche. Its bits are split three
// ways so no two consumers correlate: HashIndex takes its bucket from the
// low bits and its 15-bit tag from bits 32..46 (kv/hash_index.h, after
// FASTER's tagged buckets), and ShardOf takes the top 16 bits.
inline uint64_t Hash64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Smallest power of two >= v (and >= 1). Shard counts and hash-index sizes
// are rounded up with this so routing can always be a mask instead of a mod.
inline uint64_t RoundUpPow2(uint64_t v) {
  uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

// Shard routing shared by every sharded structure (ShardedStore, the
// embedding/block caches): `mask` is (power-of-two shard count) - 1 and
// must fit in 16 bits (at most 65536 shards — callers clamp). Takes the
// TOP hash bits on purpose: HashIndex consumes the low bits for bucket
// selection, so a shard choice made from the same low bits would leave
// each shard's index using only 1/num_shards of its buckets.
inline uint64_t ShardOf(uint64_t hash, uint64_t mask) {
  return (hash >> 48) & mask;
}

// Routing mask for a requested shard count: rounds up to a power of two
// and clamps to ShardOf's 65536-shard ceiling (one place defines it).
inline uint64_t ShardMask(uint64_t shards) {
  if (shards == 0) shards = 1;
  const uint64_t capped = RoundUpPow2(shards);
  return (capped > (uint64_t{1} << 16) ? (uint64_t{1} << 16) : capped) - 1;
}

// FNV-1a 64-bit over bytes; used by baselines for string keys and by the
// SSTable bloom filter (two independent probes derived from one hash).
inline uint64_t HashBytes(const void* data, size_t n,
                          uint64_t seed = 0xCBF29CE484222325ull) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  // Final mix so nearby inputs spread across buckets.
  return Hash64(h);
}

}  // namespace mlkv
