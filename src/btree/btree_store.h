// BTreeStore: the WiredTiger-style baseline backend — an update-in-place,
// disk-paged B+tree with a bounded buffer pool.
//
// Values are fixed-size per store (set at Open), matching the embedding use
// case and keeping leaf layout slot-based. Concurrency uses one
// reader/writer lock over the tree structure; WiredTiger's hazard-pointer
// latching is out of scope for a comparator (README, "Substitutions and
// deviations"). The behaviours Fig. 7 depends on — page-granular caching,
// update-in-place writes, write-back on eviction, logarithmic descent — are
// faithful.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "btree/buffer_pool.h"
#include "common/status.h"
#include "io/file_device.h"
#include "kv/record.h"

namespace mlkv {

struct BTreeOptions {
  std::string path;
  uint32_t page_size = 4096;
  uint64_t buffer_pool_bytes = 32ull << 20;
  uint32_t value_size = 64;  // fixed bytes per value
};

class BTreeStore {
 public:
  BTreeStore() = default;

  BTreeStore(const BTreeStore&) = delete;
  BTreeStore& operator=(const BTreeStore&) = delete;

  Status Open(const BTreeOptions& options);

  Status Put(Key key, const void* value);
  Status Get(Key key, void* value_out);
  bool Contains(Key key);

  // Visits every key in [from, to] in ascending order with its value bytes
  // (value_size() per entry). Leaves carry no sibling links (README,
  // "Substitutions and deviations"), so the scan re-descends per leaf using
  // the separator-derived upper bound — O(height) pins per leaf visited.
  Status Scan(Key from, Key to,
              const std::function<void(Key, const void*)>& fn);

  Status FlushAll();

  // Leaf splits since Open, and the current tree height (1 = root leaf).
  uint64_t split_count() const {
    return splits_.load(std::memory_order_relaxed);
  }
  uint64_t height() const { return height_.load(std::memory_order_relaxed); }
  // Dirty pages the buffer pool has written back on eviction or flush.
  uint64_t writeback_count() const;
  uint32_t value_size() const { return options_.value_size; }

 private:
  // Page layout helpers (see btree_store.cc for the exact layout).
  struct PageRef {
    PageId id = kInvalidPageId;
    char* data = nullptr;
  };

  Status PinPage(PageId id, PageRef* ref);
  // Descends to the leaf that owns `key`; fills `path` with pinned pages
  // (root..leaf). Caller unpins everything via UnpinPath.
  Status DescendToLeaf(Key key, std::vector<PageRef>* path);
  void UnpinPath(const std::vector<PageRef>& path, bool leaf_dirty);
  // Splits the full leaf at path.back(), updating parents (and possibly
  // growing a new root). Called with the write lock held.
  Status SplitLeaf(std::vector<PageRef>* path, Key key);

  BTreeOptions options_;
  FileDevice file_;
  std::unique_ptr<BufferPool> pool_;
  std::shared_mutex tree_mu_;
  PageId root_ = kInvalidPageId;
  uint32_t leaf_capacity_ = 0;
  uint32_t internal_capacity_ = 0;
  std::atomic<uint64_t> height_{1};
  std::atomic<uint64_t> splits_{0};
};

}  // namespace mlkv
