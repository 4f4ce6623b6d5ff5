// LsmStore: the RocksDB-style baseline backend — active memtable, immutable
// memtables awaiting flush, and two levels of SSTables (L0: overlapping
// runs, L1: one sorted non-overlapping run set produced by compaction), all
// read through a shared LRU block cache with bloom filters.
//
// The paper's Fig. 7 integrates PERSIA/DGL/DGL-KE with RocksDB as an
// offloading baseline; this class plays that role. It favours fidelity of
// the performance-relevant mechanisms (write buffering, sorted-run reads,
// read amplification across levels, compaction I/O) over RocksDB's full
// feature surface.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "lsm/block_cache.h"
#include "lsm/memtable.h"
#include "lsm/sstable.h"
#include "lsm/wal.h"

namespace mlkv {

struct LsmOptions {
  std::string dir;
  uint64_t memtable_bytes = 8ull << 20;   // flush threshold
  uint64_t block_cache_bytes = 32ull << 20;
  uint32_t block_size = 4096;
  int bloom_bits_per_key = 10;
  size_t l0_compaction_trigger = 4;       // L0 runs before compaction

  // Write-ahead logging. Every Put/Delete is appended to dir/WAL before it
  // reaches the memtable; the WAL resets once its memtable is an SSTable.
  // Opening a directory that contains a LEVELS manifest recovers the tree
  // and replays the WAL tail.
  bool enable_wal = true;
  // fdatasync the WAL on every write (true) or only at rotation (false).
  // Per-write syncing is the RocksDB `sync=true` equivalent and costs
  // throughput; rotation syncing loses at most one memtable on power loss.
  bool sync_every_write = false;
};

class LsmStore {
 public:
  LsmStore() = default;
  ~LsmStore() = default;

  LsmStore(const LsmStore&) = delete;
  LsmStore& operator=(const LsmStore&) = delete;

  Status Open(const LsmOptions& options);

  Status Put(Key key, const void* value, uint32_t size);
  Status Get(Key key, std::string* value);
  Status Delete(Key key);

  // Visits every live key in [from, to] in ascending key order, merging the
  // memtables and both levels with newest-version-wins (YCSB-E scans).
  Status Scan(Key from, Key to,
              const std::function<void(Key, const std::string&)>& fn);

  // Forces the active memtable to disk (tests / shutdown).
  Status Flush();

  // Memtable flushes to L0 and L0+L1 compactions since Open.
  uint64_t flush_count() const {
    return flushes_.load(std::memory_order_relaxed);
  }
  uint64_t compaction_count() const {
    return compactions_.load(std::memory_order_relaxed);
  }
  size_t l0_run_count() const;
  size_t l1_run_count() const;

 private:
  Status MaybeScheduleFlush();         // called with write lock held
  Status FlushMemTable(std::shared_ptr<MemTable> imm);
  Status MaybeCompact();
  std::string NextTablePath();
  std::string TablePath(uint64_t id) const;
  std::string WalPath() const { return options_.dir + "/WAL"; }
  std::string LevelsPath() const { return options_.dir + "/LEVELS"; }
  // Persists the level structure (write-then-rename); called after every
  // flush/compaction with the write lock held.
  Status WriteLevels();
  // Rebuilds the tree from LEVELS and replays the WAL (called from Open).
  Status Recover();

  LsmOptions options_;
  mutable std::shared_mutex mu_;  // guards memtables + level lists
  std::shared_ptr<MemTable> active_;
  std::deque<std::shared_ptr<MemTable>> immutables_;
  std::vector<std::shared_ptr<SSTable>> l0_;  // newest first
  std::vector<std::shared_ptr<SSTable>> l1_;  // sorted, non-overlapping
  std::unique_ptr<BlockCache> cache_;
  std::atomic<uint64_t> next_table_id_{1};
  std::unique_ptr<WalWriter> wal_;  // null when WAL disabled
  std::atomic<uint64_t> flushes_{0}, compactions_{0};
};

}  // namespace mlkv
