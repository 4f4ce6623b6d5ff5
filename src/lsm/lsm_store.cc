#include "lsm/lsm_store.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

namespace mlkv {

Status LsmStore::Open(const LsmOptions& options) {
  options_ = options;
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) return Status::IOError("create dir: " + ec.message());
  active_ = std::make_shared<MemTable>();
  cache_.reset(new BlockCache(options.block_cache_bytes));
  if (std::filesystem::exists(LevelsPath())) {
    MLKV_RETURN_NOT_OK(Recover());
  }
  // The WAL tail may carry writes even when no flush (and hence no LEVELS
  // manifest) ever happened; replay it regardless.
  MLKV_RETURN_NOT_OK(ReplayWal(
      WalPath(),
      [this](Key key, const std::string& value, bool tombstone) {
        if (tombstone) {
          active_->Delete(key);
        } else {
          active_->Put(key, value.data(),
                       static_cast<uint32_t>(value.size()));
        }
      },
      nullptr));
  if (options_.enable_wal) {
    // Recover() already replayed the previous WAL contents into the active
    // memtable; the fresh writer re-logs them so they stay covered.
    auto snapshot = active_->Snapshot();
    wal_ = std::make_unique<WalWriter>();
    MLKV_RETURN_NOT_OK(wal_->Open(WalPath()));
    for (const auto& [key, entry] : snapshot) {
      if (entry.tombstone) {
        MLKV_RETURN_NOT_OK(wal_->AppendDelete(key));
      } else {
        MLKV_RETURN_NOT_OK(
            wal_->AppendPut(key, entry.value.data(),
                            static_cast<uint32_t>(entry.value.size())));
      }
    }
    if (!snapshot.empty()) MLKV_RETURN_NOT_OK(wal_->Sync());
  }
  return Status::OK();
}

Status LsmStore::Recover() {
  std::ifstream in(LevelsPath());
  if (!in.is_open()) return Status::IOError("open " + LevelsPath());
  std::string line;
  if (!std::getline(in, line) || line != "LSM_LEVELS v1") {
    return Status::Corruption("bad LEVELS header");
  }
  uint64_t next_id = 1;
  std::vector<uint64_t> l0_ids, l1_ids;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "next_id") {
      ls >> next_id;
    } else if (tag == "l0" || tag == "l1") {
      uint64_t id = 0;
      auto& ids = tag == "l0" ? l0_ids : l1_ids;
      while (ls >> id) ids.push_back(id);
    } else {
      return Status::Corruption("bad LEVELS row: " + line);
    }
    if (ls.fail() && !ls.eof()) {
      return Status::Corruption("bad LEVELS row: " + line);
    }
  }
  next_table_id_.store(next_id);
  auto open_into = [this](const std::vector<uint64_t>& ids,
                          std::vector<std::shared_ptr<SSTable>>* level) {
    for (const uint64_t id : ids) {
      std::unique_ptr<SSTable> t;
      MLKV_RETURN_NOT_OK(SSTable::Open(TablePath(id), id, cache_.get(), &t));
      level->push_back(std::shared_ptr<SSTable>(t.release()));
    }
    return Status::OK();
  };
  MLKV_RETURN_NOT_OK(open_into(l0_ids, &l0_));
  MLKV_RETURN_NOT_OK(open_into(l1_ids, &l1_));
  return Status::OK();
}

Status LsmStore::WriteLevels() {
  const std::string tmp = LevelsPath() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.is_open()) return Status::IOError("open " + tmp);
    out << "LSM_LEVELS v1\n";
    out << "next_id " << next_table_id_.load() << '\n';
    out << "l0";
    for (const auto& t : l0_) out << ' ' << t->table_id();
    out << "\nl1";
    for (const auto& t : l1_) out << ' ' << t->table_id();
    out << '\n';
    out.flush();
    if (!out.good()) return Status::IOError("write " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, LevelsPath(), ec);
  if (ec) return Status::IOError("rename LEVELS: " + ec.message());
  return Status::OK();
}

std::string LsmStore::TablePath(uint64_t id) const {
  return options_.dir + "/sst_" + std::to_string(id) + ".sst";
}

std::string LsmStore::NextTablePath() {
  return TablePath(next_table_id_.fetch_add(1));
}

Status LsmStore::Put(Key key, const void* value, uint32_t size) {
  std::unique_lock lk(mu_);
  if (wal_ != nullptr) {
    MLKV_RETURN_NOT_OK(wal_->AppendPut(key, value, size));
    if (options_.sync_every_write) MLKV_RETURN_NOT_OK(wal_->Sync());
  }
  active_->Put(key, value, size);
  return MaybeScheduleFlush();
}

Status LsmStore::Delete(Key key) {
  std::unique_lock lk(mu_);
  if (wal_ != nullptr) {
    MLKV_RETURN_NOT_OK(wal_->AppendDelete(key));
    if (options_.sync_every_write) MLKV_RETURN_NOT_OK(wal_->Sync());
  }
  active_->Delete(key);
  return MaybeScheduleFlush();
}

Status LsmStore::MaybeScheduleFlush() {
  if (active_->ApproximateBytes() < options_.memtable_bytes) {
    return Status::OK();
  }
  immutables_.push_front(active_);
  active_ = std::make_shared<MemTable>();
  // Synchronous flush keeps the design single-writer-simple; the paper's
  // baseline comparisons measure steady-state I/O volume, not flush
  // latency hiding.
  auto imm = immutables_.back();
  immutables_.pop_back();
  MLKV_RETURN_NOT_OK(FlushMemTable(imm));
  MLKV_RETURN_NOT_OK(MaybeCompact());
  MLKV_RETURN_NOT_OK(WriteLevels());
  if (wal_ != nullptr) {
    // Everything the WAL covered now lives in an SSTable; the new active
    // memtable is empty, so the log restarts from scratch.
    MLKV_RETURN_NOT_OK(wal_->Reset());
  }
  return Status::OK();
}

Status LsmStore::FlushMemTable(std::shared_ptr<MemTable> imm) {
  const uint64_t table_id = next_table_id_.fetch_add(1);
  const std::string path = TablePath(table_id);
  SSTableBuilder builder(path, options_.block_size,
                         options_.bloom_bits_per_key);
  for (const auto& [key, entry] : imm->Snapshot()) {
    MLKV_RETURN_NOT_OK(builder.Add(key, entry.value, entry.tombstone));
  }
  MLKV_RETURN_NOT_OK(builder.Finish());
  std::unique_ptr<SSTable> table;
  MLKV_RETURN_NOT_OK(SSTable::Open(path, table_id, cache_.get(), &table));
  l0_.insert(l0_.begin(), std::shared_ptr<SSTable>(table.release()));
  flushes_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status LsmStore::MaybeCompact() {
  if (l0_.size() < options_.l0_compaction_trigger) return Status::OK();
  // Full compaction of L0 + L1 into a fresh L1 run: merge newest-first so
  // the latest version of each key wins; drop tombstones at the bottom.
  std::map<Key, std::pair<std::string, bool>> merged;
  auto absorb = [&merged](const std::shared_ptr<SSTable>& t) {
    return t->Scan([&merged](Key k, const std::string& v, bool tomb) {
      merged.emplace(k, std::make_pair(v, tomb));  // first writer (newest) wins
    });
  };
  for (const auto& t : l0_) MLKV_RETURN_NOT_OK(absorb(t));
  for (const auto& t : l1_) MLKV_RETURN_NOT_OK(absorb(t));

  const uint64_t table_id = next_table_id_.fetch_add(1);
  const std::string path = TablePath(table_id);
  SSTableBuilder builder(path, options_.block_size,
                         options_.bloom_bits_per_key);
  for (const auto& [key, vt] : merged) {
    if (vt.second) continue;  // bottom level: tombstones die here
    MLKV_RETURN_NOT_OK(builder.Add(key, vt.first, false));
  }
  MLKV_RETURN_NOT_OK(builder.Finish());
  std::unique_ptr<SSTable> table;
  MLKV_RETURN_NOT_OK(SSTable::Open(path, table_id, cache_.get(), &table));

  // Retire old tables.
  std::vector<std::shared_ptr<SSTable>> old;
  old.swap(l0_);
  for (auto& t : l1_) old.push_back(std::move(t));
  l1_.clear();
  l1_.push_back(std::shared_ptr<SSTable>(table.release()));
  for (const auto& t : old) {
    cache_->EraseTable(t->table_id());
    std::error_code ec;
    std::filesystem::remove(t->path(), ec);
  }
  compactions_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status LsmStore::Get(Key key, std::string* value) {
  std::shared_ptr<MemTable> active;
  std::vector<std::shared_ptr<MemTable>> imms;
  std::vector<std::shared_ptr<SSTable>> l0, l1;
  {
    std::shared_lock lk(mu_);
    active = active_;
    imms.assign(immutables_.begin(), immutables_.end());
    l0 = l0_;
    l1 = l1_;
  }
  if (auto e = active->Get(key)) {
    if (e->tombstone) return Status::NotFound();
    *value = e->value;
    return Status::OK();
  }
  for (const auto& imm : imms) {
    if (auto e = imm->Get(key)) {
      if (e->tombstone) return Status::NotFound();
      *value = e->value;
      return Status::OK();
    }
  }
  for (const auto& t : l0) {  // newest first
    SSTable::GetResult r;
    MLKV_RETURN_NOT_OK(t->Get(key, &r));
    if (r.found) {
      if (r.tombstone) return Status::NotFound();
      *value = std::move(r.value);
      return Status::OK();
    }
  }
  for (const auto& t : l1) {
    SSTable::GetResult r;
    MLKV_RETURN_NOT_OK(t->Get(key, &r));
    if (r.found) {
      if (r.tombstone) return Status::NotFound();
      *value = std::move(r.value);
      return Status::OK();
    }
  }
  return Status::NotFound();
}

Status LsmStore::Flush() {
  std::unique_lock lk(mu_);
  if (active_->size() == 0) return Status::OK();
  auto imm = active_;
  active_ = std::make_shared<MemTable>();
  MLKV_RETURN_NOT_OK(FlushMemTable(imm));
  MLKV_RETURN_NOT_OK(WriteLevels());
  if (wal_ != nullptr) MLKV_RETURN_NOT_OK(wal_->Reset());
  return Status::OK();
}

Status LsmStore::Scan(Key from, Key to,
                      const std::function<void(Key, const std::string&)>& fn) {
  if (from > to) return Status::OK();
  std::shared_ptr<MemTable> active;
  std::vector<std::shared_ptr<MemTable>> imms;
  std::vector<std::shared_ptr<SSTable>> l0, l1;
  {
    std::shared_lock lk(mu_);
    active = active_;
    imms.assign(immutables_.begin(), immutables_.end());
    l0 = l0_;
    l1 = l1_;
  }
  // Merge newest-source-first: the first writer of a key wins, so absorbing
  // memtables before L0 before L1 yields the live version.
  std::map<Key, std::pair<std::string, bool>> merged;
  for (const auto& [k, e] : active->SnapshotRange(from, to)) {
    merged.emplace(k, std::make_pair(e.value, e.tombstone));
  }
  for (const auto& imm : imms) {
    for (const auto& [k, e] : imm->SnapshotRange(from, to)) {
      merged.emplace(k, std::make_pair(e.value, e.tombstone));
    }
  }
  auto absorb = [&merged, from, to](const std::shared_ptr<SSTable>& t) {
    return t->RangeScan(from, to,
                        [&merged](Key k, const std::string& v, bool tomb) {
                          merged.emplace(k, std::make_pair(v, tomb));
                        });
  };
  for (const auto& t : l0) MLKV_RETURN_NOT_OK(absorb(t));
  for (const auto& t : l1) MLKV_RETURN_NOT_OK(absorb(t));
  for (const auto& [k, vt] : merged) {
    if (!vt.second) fn(k, vt.first);
  }
  return Status::OK();
}

size_t LsmStore::l0_run_count() const {
  std::shared_lock lk(mu_);
  return l0_.size();
}
size_t LsmStore::l1_run_count() const {
  std::shared_lock lk(mu_);
  return l1_.size();
}

}  // namespace mlkv
