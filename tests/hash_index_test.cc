#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "io/file_device.h"
#include "io/temp_dir.h"
#include "kv/hash_index.h"

namespace mlkv {
namespace {

// The index layout (kv/hash_index.h): bucket from the low hash bits, tag
// from bits 32..46.
uint64_t Bucket(Key k, uint64_t buckets) { return Hash64(k) & (buckets - 1); }
uint64_t TagOf(Key k) { return (Hash64(k) >> 32) & 0x7FFF; }

Key FindKey(Key from, const std::function<bool(Key)>& pred) {
  for (Key k = from;; ++k) {
    if (pred(k)) return k;
  }
}

// `count` keys of one bucket (of `buckets`) with pairwise distinct tags.
std::vector<Key> DistinctTagKeys(uint64_t buckets, uint64_t bucket,
                                 size_t count) {
  std::vector<Key> keys;
  std::set<uint64_t> tags;
  for (Key k = 0; keys.size() < count; ++k) {
    if (Bucket(k, buckets) == bucket && tags.insert(TagOf(k)).second) {
      keys.push_back(k);
    }
  }
  return keys;
}

// The key whose chain a full bucket of `claimed` keys routes `extra`'s
// missing tag to: the smallest claimed tag above extra's, wrapping around.
Key RouteOwner(const std::vector<Key>& claimed, Key extra) {
  auto distance = [&](Key k) { return (TagOf(k) - TagOf(extra)) & 0x7FFF; };
  return *std::min_element(claimed.begin(), claimed.end(), [&](Key a, Key b) {
    return distance(a) < distance(b);
  });
}

// A stand-in for the hybrid log: each publish appends a (key, prev) record
// at a fresh address and links it on top of the head the index reported,
// exactly as FasterStore::AppendAndPublish does; Find walks prev links
// comparing full keys.
class FakeLog {
 public:
  Address Publish(HashIndex* idx, Key key) {
    const Address addr = next_;
    next_ += 8;
    Address e = idx->Load(key);
    while (!idx->CompareExchange(key, e, addr)) {
    }
    records_[addr] = {key, e};
    newest_[key] = addr;
    return addr;
  }
  Address Find(const HashIndex& idx, Key key) const {
    for (Address a = idx.Load(key); a != kInvalidAddress;
         a = records_.at(a).second) {
      if (records_.at(a).first == key) return a;
    }
    return kInvalidAddress;
  }
  Address newest(Key key) const { return newest_.at(key); }

 private:
  Address next_ = 0x40;
  std::map<Address, std::pair<Key, Address>> records_;
  std::map<Key, Address> newest_;
};

TEST(HashIndexTest, RoundsSlotsToPowerOfTwo) {
  HashIndex idx(1000);
  EXPECT_EQ(idx.num_slots(), 1024u);
  HashIndex tiny(1);
  EXPECT_EQ(tiny.num_slots(), 16u);
}

TEST(HashIndexTest, EmptySlotsReadInvalid) {
  HashIndex idx(64);
  for (Key k = 0; k < 100; ++k) EXPECT_EQ(idx.Load(k), kInvalidAddress);
  EXPECT_EQ(idx.CountUsed(), 0u);
}

TEST(HashIndexTest, CompareExchangePublishes) {
  HashIndex idx(64);
  Address expected = kInvalidAddress;
  EXPECT_TRUE(idx.CompareExchange(7, expected, 0x100));
  EXPECT_EQ(idx.Load(7), 0x100u);
  // Second CAS with stale expected fails and reports current value.
  expected = kInvalidAddress;
  EXPECT_FALSE(idx.CompareExchange(7, expected, 0x200));
  EXPECT_EQ(expected, 0x100u);
}

TEST(HashIndexTest, ConcurrentCasOneWinnerPerSlot) {
  HashIndex idx(16);
  constexpr int kThreads = 8;
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Address expected = kInvalidAddress;
      if (idx.CompareExchange(42, expected,
                              static_cast<Address>(0x1000 + t))) {
        winners.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(winners.load(), 1);
}

TEST(HashIndexTest, CheckpointRoundTrip) {
  TempDir dir;
  HashIndex idx(256);
  for (Key k = 0; k < 100; ++k) {
    Address e = kInvalidAddress;
    idx.CompareExchange(k, e, 0x40 + k * 8);
  }
  const uint64_t used = idx.CountUsed();
  EXPECT_GT(used, 0u);

  FileDevice dev;
  ASSERT_TRUE(dev.Open(dir.File("idx")).ok());
  ASSERT_TRUE(idx.WriteTo(&dev, 0).ok());

  HashIndex restored(256);
  ASSERT_TRUE(restored.ReadFrom(dev, 0).ok());
  EXPECT_EQ(restored.CountUsed(), used);
  for (Key k = 0; k < 100; ++k) EXPECT_EQ(restored.Load(k), idx.Load(k));
}


TEST(HashIndexGrowTest, GrowDoublesSlotCount) {
  HashIndex idx(64);
  ASSERT_TRUE(idx.Grow().ok());
  EXPECT_EQ(idx.num_slots(), 128u);
  ASSERT_TRUE(idx.Grow(2).ok());
  EXPECT_EQ(idx.num_slots(), 512u);
}

TEST(HashIndexGrowTest, GrowZeroIsANoOp) {
  HashIndex idx(64);
  ASSERT_TRUE(idx.Grow(0).ok());
  EXPECT_EQ(idx.num_slots(), 64u);
}

TEST(HashIndexGrowTest, RejectsAbsurdFactor) {
  HashIndex idx(64);
  EXPECT_TRUE(idx.Grow(40).IsInvalidArgument());
}

TEST(HashIndexGrowTest, ChainsRemainReachableAfterGrowth) {
  HashIndex idx(16);
  // Publish a head for many keys; most slots carry multi-key chains.
  for (Key k = 0; k < 200; ++k) {
    Address e = idx.Load(k);
    idx.CompareExchange(k, e, 0x40 + k * 8);
  }
  std::vector<Address> before(200);
  for (Key k = 0; k < 200; ++k) before[k] = idx.Load(k);
  ASSERT_TRUE(idx.Grow(3).ok());  // 16 -> 128 slots
  for (Key k = 0; k < 200; ++k) {
    // The head a key observes after growth must be the head its old slot
    // held (all candidate new slots were seeded with it).
    EXPECT_EQ(idx.Load(k), before[k]) << "key " << k;
  }
}

TEST(HashIndexGrowTest, NewPublishesUseRefinedBuckets) {
  HashIndex idx(16);  // two buckets
  // Two keys that share bucket and tag at two buckets but split at four.
  const Key a = 0;
  const Key b = FindKey(a + 1, [&](Key k) {
    return Bucket(k, 2) == Bucket(a, 2) && Bucket(k, 4) != Bucket(a, 4) &&
           TagOf(k) == TagOf(a);
  });
  Address e = idx.Load(a);
  ASSERT_TRUE(idx.CompareExchange(a, e, 0x100));
  EXPECT_EQ(idx.Load(b), Address{0x100});  // one shared entry pre-growth
  ASSERT_TRUE(idx.Grow().ok());
  // b's publish swaps the entry in its refined bucket only; a's bucket
  // keeps the head it was copied with.
  e = idx.Load(b);
  ASSERT_TRUE(idx.CompareExchange(b, e, 0x200));
  EXPECT_EQ(idx.Load(b), Address{0x200});
  EXPECT_EQ(idx.Load(a), Address{0x100});
  EXPECT_EQ(idx.CountUsed(), 2u);  // the entry, copied into both buckets
}

TEST(HashIndexTagTest, DistinctTagsInOneBucketGetSeparateHeads) {
  HashIndex idx(16);
  const std::vector<Key> keys = DistinctTagKeys(2, /*bucket=*/0, 8);
  for (size_t i = 0; i < keys.size(); ++i) {
    Address e = idx.Load(keys[i]);
    ASSERT_EQ(e, kInvalidAddress);  // a fresh tag has no chain yet
    ASSERT_TRUE(idx.CompareExchange(keys[i], e, 0x100 + 8 * i));
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(idx.Load(keys[i]), 0x100 + 8 * i) << "key " << keys[i];
  }
  EXPECT_EQ(idx.CountUsed(), keys.size());
}

TEST(HashIndexTagTest, SameTagKeysShareOneEntry) {
  HashIndex idx(16);
  const Key a = 3;
  const Key b = FindKey(a + 1, [&](Key k) {
    return Bucket(k, 2) == Bucket(a, 2) && TagOf(k) == TagOf(a);
  });
  Address e = idx.Load(a);
  ASSERT_TRUE(idx.CompareExchange(a, e, 0x100));
  e = idx.Load(b);
  EXPECT_EQ(e, Address{0x100});  // b's chain is a's
  // A publish that missed a's head loses, like any stale chain head.
  Address stale = kInvalidAddress;
  EXPECT_FALSE(idx.CompareExchange(b, stale, 0x180));
  EXPECT_EQ(stale, Address{0x100});
  ASSERT_TRUE(idx.CompareExchange(b, e, 0x200));
  EXPECT_EQ(idx.Load(a), Address{0x200});
  EXPECT_EQ(idx.Load(b), Address{0x200});
  EXPECT_EQ(idx.CountUsed(), 1u);
}

TEST(HashIndexTagTest, FullBucketRoutesMissingTagToNextClaimedTag) {
  HashIndex idx(16);
  FakeLog log;
  // Nine distinct tags in bucket 0: the first eight claim the entries in
  // order, the ninth finds the bucket full.
  const std::vector<Key> keys = DistinctTagKeys(2, /*bucket=*/0, 9);
  const std::vector<Key> claimed(keys.begin(), keys.begin() + 8);
  for (const Key k : claimed) log.Publish(&idx, k);
  EXPECT_EQ(idx.CountUsed(), 8u);
  const Key extra = keys[8];
  const Key owner = RouteOwner(claimed, extra);
  EXPECT_EQ(idx.Load(extra), idx.Load(owner));
  const Address head = log.Publish(&idx, extra);
  EXPECT_EQ(idx.Load(owner), head);  // one chain: extra on top of owner
  EXPECT_EQ(idx.CountUsed(), 8u);
  // More versions of everyone, then every key still resolves.
  for (int round = 0; round < 3; ++round) {
    for (const Key k : keys) log.Publish(&idx, k);
  }
  for (const Key k : keys) {
    EXPECT_EQ(log.Find(idx, k), log.newest(k)) << "key " << k;
  }
}

// Group-commit recovery re-claims entries in address order, not in the
// order the original CASes won, so a full bucket's routes must depend only
// on which tags it holds. Two indexes claim the same eight tags (each at
// the same address) in opposite orders; every missing tag then routes to
// the same owner's chain in both.
TEST(HashIndexTagTest, FullBucketRoutesIgnoreClaimOrder) {
  const std::vector<Key> keys = DistinctTagKeys(2, /*bucket=*/0, 8 + 32);
  const std::vector<Key> claimed(keys.begin(), keys.begin() + 8);
  auto address_of = [&](Key k) {
    const size_t i = std::find(claimed.begin(), claimed.end(), k) -
                     claimed.begin();
    return Address{0x100 + 8 * i};
  };
  HashIndex forward(16), backward(16);
  for (size_t i = 0; i < claimed.size(); ++i) {
    Address e = kInvalidAddress;
    ASSERT_TRUE(forward.CompareExchange(claimed[i], e, address_of(claimed[i])));
    const Key back = claimed[claimed.size() - 1 - i];
    e = kInvalidAddress;
    ASSERT_TRUE(backward.CompareExchange(back, e, address_of(back)));
  }
  for (size_t i = 8; i < keys.size(); ++i) {
    const Address want = address_of(RouteOwner(claimed, keys[i]));
    EXPECT_EQ(forward.Load(keys[i]), want) << "key " << keys[i];
    EXPECT_EQ(backward.Load(keys[i]), want) << "key " << keys[i];
  }
}

TEST(HashIndexTagTest, ConcurrentClaimsOfOneTagEndWithOneEntry) {
  constexpr size_t kThreads = 8;
  const Key first = 5;
  std::vector<Key> keys{first};
  for (Key k = first + 1; keys.size() < kThreads; ++k) {
    k = FindKey(k, [&](Key c) {
      return Bucket(c, 2) == Bucket(first, 2) && TagOf(c) == TagOf(first);
    });
    keys.push_back(k);
  }
  for (int round = 0; round < 50; ++round) {
    HashIndex idx(16);
    std::vector<Address> prev(kThreads, kInvalidAddress);
    std::atomic<size_t> ready{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        const Address mine = 0x1000 + 8 * t;
        Address e = idx.Load(keys[t]);
        while (!idx.CompareExchange(keys[t], e, mine)) {
        }
        prev[t] = e;
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_EQ(idx.CountUsed(), 1u) << "round " << round;
    // The winners' prev links form one chain through all eight records.
    std::set<Address> reached;
    for (Address a = idx.Load(first); a != kInvalidAddress;
         a = prev[(a - 0x1000) / 8]) {
      ASSERT_TRUE(reached.insert(a).second) << "cycle at " << a;
    }
    EXPECT_EQ(reached.size(), kThreads) << "round " << round;
  }
}

TEST(HashIndexGrowTest, GrowKeepsEveryKeyReachable) {
  HashIndex idx(16);
  FakeLog log;
  constexpr Key kKeys = 300;  // ~19 keys per entry: overflow chains
  for (Key k = 0; k < kKeys; ++k) log.Publish(&idx, k);
  ASSERT_TRUE(idx.Grow(3).ok());  // 16 -> 128 entries
  for (Key k = 0; k < kKeys; ++k) {
    ASSERT_EQ(log.Find(idx, k), log.newest(k)) << "key " << k;
  }
  // Updates and new keys publish into the refined buckets.
  for (Key k = 0; k < kKeys + 100; ++k) log.Publish(&idx, k);
  ASSERT_TRUE(idx.Grow().ok());
  for (Key k = 0; k < kKeys + 100; ++k) {
    ASSERT_EQ(log.Find(idx, k), log.newest(k)) << "key " << k;
  }
}

}  // namespace
}  // namespace mlkv
