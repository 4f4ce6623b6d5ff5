#include "btree/btree_store.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace mlkv {

// Page layout (both kinds):
//   u32 type (1 = leaf, 2 = internal)
//   u32 count
// Leaf:     count * (u64 key, value_size bytes)
//   entries sorted by key.
// Internal: count * (u64 key) followed by (count + 1) * (u64 child)
//   child[i] covers keys < key[i]; child[count] covers the rest. The key
//   array is sorted; layout places children after the fixed-capacity key
//   region so both arrays are contiguous.
namespace {

constexpr uint32_t kHeaderSize = 8;
constexpr uint32_t kLeafType = 1;
constexpr uint32_t kInternalType = 2;

uint32_t PageType(const char* p) {
  uint32_t t;
  std::memcpy(&t, p, 4);
  return t;
}
uint32_t PageCount(const char* p) {
  uint32_t c;
  std::memcpy(&c, p + 4, 4);
  return c;
}
void SetPageHeader(char* p, uint32_t type, uint32_t count) {
  std::memcpy(p, &type, 4);
  std::memcpy(p + 4, &count, 4);
}

Key LeafKeyAt(const char* p, uint32_t slot, uint32_t value_size) {
  Key k;
  std::memcpy(&k, p + kHeaderSize + slot * (8 + value_size), 8);
  return k;
}
char* LeafValueAt(char* p, uint32_t slot, uint32_t value_size) {
  return p + kHeaderSize + slot * (8 + value_size) + 8;
}
void LeafSetEntry(char* p, uint32_t slot, Key key, const void* value,
                  uint32_t value_size) {
  char* base = p + kHeaderSize + slot * (8 + value_size);
  std::memcpy(base, &key, 8);
  if (value != nullptr) std::memcpy(base + 8, value, value_size);
}

Key InternalKeyAt(const char* p, uint32_t i) {
  Key k;
  std::memcpy(&k, p + kHeaderSize + i * 8, 8);
  return k;
}
void InternalSetKey(char* p, uint32_t i, Key k) {
  std::memcpy(p + kHeaderSize + i * 8, &k, 8);
}
PageId InternalChildAt(const char* p, uint32_t i, uint32_t capacity) {
  PageId c;
  std::memcpy(&c, p + kHeaderSize + capacity * 8 + i * 8, 8);
  return c;
}
void InternalSetChild(char* p, uint32_t i, uint32_t capacity, PageId c) {
  std::memcpy(p + kHeaderSize + capacity * 8 + i * 8, &c, 8);
}

}  // namespace

Status BTreeStore::Open(const BTreeOptions& options) {
  options_ = options;
  MLKV_RETURN_NOT_OK(file_.Open(options.path));
  const size_t pool_pages =
      std::max<size_t>(8, options.buffer_pool_bytes / options.page_size);
  pool_.reset(new BufferPool(&file_, options.page_size, pool_pages));
  leaf_capacity_ = (options.page_size - kHeaderSize) / (8 + options.value_size);
  // Internal pages store `capacity` keys and `capacity + 1` children.
  internal_capacity_ = (options.page_size - kHeaderSize - 8) / 16;
  if (leaf_capacity_ < 2 || internal_capacity_ < 2) {
    return Status::InvalidArgument("page too small for value size");
  }
  char* data = nullptr;
  MLKV_RETURN_NOT_OK(pool_->NewPage(&root_, &data));
  SetPageHeader(data, kLeafType, 0);
  pool_->Unpin(root_, /*dirty=*/true);
  return Status::OK();
}

Status BTreeStore::PinPage(PageId id, PageRef* ref) {
  ref->id = id;
  return pool_->Pin(id, &ref->data);
}

Status BTreeStore::DescendToLeaf(Key key, std::vector<PageRef>* path) {
  PageRef cur;
  MLKV_RETURN_NOT_OK(PinPage(root_, &cur));
  path->push_back(cur);
  while (PageType(cur.data) == kInternalType) {
    const uint32_t count = PageCount(cur.data);
    // First key strictly greater than `key` determines the child.
    uint32_t lo = 0, hi = count;
    while (lo < hi) {
      const uint32_t mid = (lo + hi) / 2;
      if (key < InternalKeyAt(cur.data, mid)) hi = mid;
      else lo = mid + 1;
    }
    const PageId child = InternalChildAt(cur.data, lo, internal_capacity_);
    PageRef next;
    MLKV_RETURN_NOT_OK(PinPage(child, &next));
    path->push_back(next);
    cur = next;
  }
  return Status::OK();
}

void BTreeStore::UnpinPath(const std::vector<PageRef>& path, bool leaf_dirty) {
  for (size_t i = 0; i < path.size(); ++i) {
    const bool dirty = leaf_dirty && i + 1 == path.size();
    pool_->Unpin(path[i].id, dirty);
  }
}

Status BTreeStore::Get(Key key, void* value_out) {
  std::shared_lock lk(tree_mu_);
  std::vector<PageRef> path;
  Status s = DescendToLeaf(key, &path);
  if (!s.ok()) {
    UnpinPath(path, false);
    return s;
  }
  const PageRef& leaf = path.back();
  const uint32_t count = PageCount(leaf.data);
  uint32_t lo = 0, hi = count;
  while (lo < hi) {
    const uint32_t mid = (lo + hi) / 2;
    if (LeafKeyAt(leaf.data, mid, options_.value_size) < key) lo = mid + 1;
    else hi = mid;
  }
  if (lo < count && LeafKeyAt(leaf.data, lo, options_.value_size) == key) {
    std::memcpy(value_out, LeafValueAt(leaf.data, lo, options_.value_size),
                options_.value_size);
    UnpinPath(path, false);
    return Status::OK();
  }
  UnpinPath(path, false);
  return Status::NotFound();
}

bool BTreeStore::Contains(Key key) {
  std::vector<char> buf(options_.value_size);
  return Get(key, buf.data()).ok();
}

Status BTreeStore::Scan(Key from, Key to,
                        const std::function<void(Key, const void*)>& fn) {
  const uint32_t vs = options_.value_size;
  Key cursor = from;
  std::vector<char> batch;     // copied entries, emitted outside the lock
  std::vector<Key> batch_keys;
  for (;;) {
    batch.clear();
    batch_keys.clear();
    bool done = false;
    {
      std::shared_lock lk(tree_mu_);
      // Descend to the leaf owning `cursor`, tracking the smallest
      // separator greater than every key in that leaf (its upper bound).
      PageRef cur;
      std::vector<PageRef> path;
      Status s = PinPage(root_, &cur);
      if (!s.ok()) return s;
      path.push_back(cur);
      bool has_upper = false;
      Key upper = 0;
      while (PageType(cur.data) == kInternalType) {
        const uint32_t count = PageCount(cur.data);
        uint32_t lo = 0, hi = count;
        while (lo < hi) {
          const uint32_t mid = (lo + hi) / 2;
          if (cursor < InternalKeyAt(cur.data, mid)) {
            hi = mid;
          } else {
            lo = mid + 1;
          }
        }
        if (lo < count) {
          // child[lo] covers keys < key[lo]: tighter upper bound.
          upper = InternalKeyAt(cur.data, lo);
          has_upper = true;
        }
        const PageId child = InternalChildAt(cur.data, lo,
                                             internal_capacity_);
        PageRef next;
        s = PinPage(child, &next);
        if (!s.ok()) {
          UnpinPath(path, false);
          return s;
        }
        path.push_back(next);
        cur = next;
      }
      const PageRef& leaf = path.back();
      const uint32_t count = PageCount(leaf.data);
      uint32_t lo = 0, hi = count;
      while (lo < hi) {
        const uint32_t mid = (lo + hi) / 2;
        if (LeafKeyAt(leaf.data, mid, vs) < cursor) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      for (uint32_t slot = lo; slot < count; ++slot) {
        const Key k = LeafKeyAt(leaf.data, slot, vs);
        if (k > to) {
          done = true;
          break;
        }
        batch_keys.push_back(k);
        const size_t off = batch.size();
        batch.resize(off + vs);
        std::memcpy(batch.data() + off,
                    LeafValueAt(const_cast<char*>(leaf.data), slot, vs), vs);
      }
      UnpinPath(path, false);
      if (!done) {
        if (!has_upper || upper > to) {
          done = true;  // rightmost leaf for this range
        } else {
          cursor = upper;  // next leaf starts at the separator
        }
      }
    }
    for (size_t i = 0; i < batch_keys.size(); ++i) {
      fn(batch_keys[i], batch.data() + i * vs);
    }
    if (done) return Status::OK();
  }
}

Status BTreeStore::Put(Key key, const void* value) {
  std::unique_lock lk(tree_mu_);
  for (;;) {
    std::vector<PageRef> path;
    Status s = DescendToLeaf(key, &path);
    if (!s.ok()) {
      UnpinPath(path, false);
      return s;
    }
    PageRef& leaf = path.back();
    const uint32_t count = PageCount(leaf.data);
    const uint32_t vs = options_.value_size;
    uint32_t lo = 0, hi = count;
    while (lo < hi) {
      const uint32_t mid = (lo + hi) / 2;
      if (LeafKeyAt(leaf.data, mid, vs) < key) lo = mid + 1;
      else hi = mid;
    }
    if (lo < count && LeafKeyAt(leaf.data, lo, vs) == key) {
      // Update in place (the B-tree advantage the paper contrasts with LSM).
      std::memcpy(LeafValueAt(leaf.data, lo, vs), value, vs);
      UnpinPath(path, true);
      return Status::OK();
    }
    if (count < leaf_capacity_) {
      // Shift tail right, insert at lo.
      char* base = leaf.data + kHeaderSize;
      const size_t entry = 8 + vs;
      std::memmove(base + (lo + 1) * entry, base + lo * entry,
                   (count - lo) * entry);
      LeafSetEntry(leaf.data, lo, key, value, vs);
      SetPageHeader(leaf.data, kLeafType, count + 1);
      UnpinPath(path, true);
      return Status::OK();
    }
    // Leaf full: split and retry the insert.
    MLKV_RETURN_NOT_OK(SplitLeaf(&path, key));
    // SplitLeaf unpins the path.
  }
}

namespace {
// Inserts (key, right_child) into an internal page with room; `lo` is the
// insert position. Caller guarantees count < capacity.
void InternalInsertAt(char* page, uint32_t count, uint32_t capacity,
                      Key key, PageId right_child) {
  uint32_t lo = 0, hi = count;
  while (lo < hi) {
    const uint32_t mid = (lo + hi) / 2;
    if (key < InternalKeyAt(page, mid)) hi = mid;
    else lo = mid + 1;
  }
  for (uint32_t i = count; i > lo; --i) {
    InternalSetKey(page, i, InternalKeyAt(page, i - 1));
  }
  for (uint32_t i = count + 1; i > lo + 1; --i) {
    InternalSetChild(page, i, capacity,
                     InternalChildAt(page, i - 1, capacity));
  }
  InternalSetKey(page, lo, key);
  InternalSetChild(page, lo + 1, capacity, right_child);
  SetPageHeader(page, kInternalType, count + 1);
}
}  // namespace

Status BTreeStore::SplitLeaf(std::vector<PageRef>* path, Key key) {
  // Pages touched during a split are all unpinned dirty; conservatively
  // re-writing a clean ancestor is harmless and keeps the bookkeeping
  // simple under the exclusive tree lock.
  splits_.fetch_add(1, std::memory_order_relaxed);
  PageRef leaf = path->back();
  const uint32_t vs = options_.value_size;
  const uint32_t count = PageCount(leaf.data);
  const uint32_t left_count = count / 2;
  const uint32_t right_count = count - left_count;
  const Key split_key = LeafKeyAt(leaf.data, left_count, vs);

  PageId right_id;
  char* right;
  Status s = pool_->NewPage(&right_id, &right);
  if (!s.ok()) {
    UnpinPath(*path, true);
    return s;
  }
  SetPageHeader(right, kLeafType, right_count);
  const size_t entry = 8 + vs;
  std::memcpy(right + kHeaderSize,
              leaf.data + kHeaderSize + left_count * entry,
              right_count * entry);
  SetPageHeader(leaf.data, kLeafType, left_count);
  pool_->Unpin(right_id, true);

  // Bubble (insert_key, insert_child) up the pinned path, splitting full
  // internal pages as needed; grow a new root when the split reaches it.
  Key insert_key = split_key;
  PageId insert_child = right_id;
  PageId left_of_insert = leaf.id;  // child left of insert_key at this level
  bool need_new_root = true;
  for (size_t level = path->size(); level-- > 1;) {
    PageRef& parent = (*path)[level - 1];
    const uint32_t pcount = PageCount(parent.data);
    if (pcount < internal_capacity_) {
      InternalInsertAt(parent.data, pcount, internal_capacity_, insert_key,
                       insert_child);
      need_new_root = false;
      break;
    }
    // Split the full internal page: push the middle key up.
    const uint32_t mid_idx = pcount / 2;
    const Key up_key = InternalKeyAt(parent.data, mid_idx);
    PageId pright_id;
    char* pright;
    s = pool_->NewPage(&pright_id, &pright);
    if (!s.ok()) {
      UnpinPath(*path, true);
      return s;
    }
    const uint32_t r = pcount - mid_idx - 1;
    SetPageHeader(pright, kInternalType, r);
    for (uint32_t i = 0; i < r; ++i) {
      InternalSetKey(pright, i, InternalKeyAt(parent.data, mid_idx + 1 + i));
    }
    for (uint32_t i = 0; i <= r; ++i) {
      InternalSetChild(pright, i, internal_capacity_,
                       InternalChildAt(parent.data, mid_idx + 1 + i,
                                       internal_capacity_));
    }
    SetPageHeader(parent.data, kInternalType, mid_idx);
    // Route the pending separator into the correct half.
    if (insert_key < up_key) {
      InternalInsertAt(parent.data, mid_idx, internal_capacity_, insert_key,
                       insert_child);
    } else {
      InternalInsertAt(pright, r, internal_capacity_, insert_key,
                       insert_child);
    }
    pool_->Unpin(pright_id, true);
    insert_key = up_key;
    insert_child = pright_id;
    left_of_insert = parent.id;
  }
  if (need_new_root) {
    PageId new_root;
    char* nr;
    s = pool_->NewPage(&new_root, &nr);
    if (!s.ok()) {
      UnpinPath(*path, true);
      return s;
    }
    SetPageHeader(nr, kInternalType, 1);
    InternalSetKey(nr, 0, insert_key);
    InternalSetChild(nr, 0, internal_capacity_, left_of_insert);
    InternalSetChild(nr, 1, internal_capacity_, insert_child);
    pool_->Unpin(new_root, true);
    root_ = new_root;
    height_.fetch_add(1, std::memory_order_relaxed);
  }
  UnpinPath(*path, true);
  return Status::OK();
}

Status BTreeStore::FlushAll() {
  std::unique_lock lk(tree_mu_);
  return pool_->FlushAll();
}

uint64_t BTreeStore::writeback_count() const {
  return pool_->stats().writebacks;
}

}  // namespace mlkv
