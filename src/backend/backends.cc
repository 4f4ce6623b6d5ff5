// Adapters binding each storage engine to the batch-first KvBackend seam.
//
// Layout of this file:
//  * intra-batch key dedup for the baseline engines (the deterministic
//    embedding bootstrap lives in mlkv/embedding_init.h, shared with
//    EmbeddingTable);
//  * BatchedEngineBackend, an intermediate base turning per-key engine
//    primitives (ReadOne/WriteOne/ApplyOne) into MultiGet/MultiPut/
//    MultiApplyGradient with dedup, run inline on the calling thread;
//  * the five adapters: MLKV (delegates whole spans to EmbeddingTable),
//    FASTER (the MLKV adapter over a table with staleness tracking and
//    lookahead off, on the same pool and I/O engine), LSM / B+tree
//    (BatchedEngineBackend with native RMW where the engine has one), and
//    the in-memory map (native batch loops that take each lock once per
//    batch).
#include "backend/kv_backend.h"

#include <filesystem>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "btree/btree_store.h"
#include "common/simd.h"
#include "kv/faster_store.h"
#include "kv/sharded_store.h"
#include "cluster/cluster_backend.h"
#include "kv/update_log.h"
#include "lsm/lsm_store.h"
#include "mlkv/embedding_cache.h"
#include "mlkv/embedding_init.h"
#include "mlkv/mlkv.h"
#include "net/remote_backend.h"
#include "obs/metrics.h"

namespace mlkv {

namespace {

// Replication feed over a table's ShardedStore: one poll of shard
// `shard`'s committed-update stream. Persists the shard first — replication
// is a durability consumer, and in checkpoint-only mode nothing else
// advances the durable watermark the cursor reads under.
Status ReadShardUpdates(ShardedStore* store, uint32_t shard, uint64_t from,
                        uint32_t max_records, uint32_t max_bytes,
                        std::vector<UpdateEntry>* out, uint64_t* next_from,
                        uint64_t* durable) {
  if (shard >= store->num_shards()) {
    return Status::InvalidArgument("replication shard out of range");
  }
  FasterStore* s = store->shard(shard);
  // Seal before persisting: updates racing with this read must RCU-append
  // above the window instead of rewriting bytes in place, or a cursor that
  // already passed their address would never be told about them.
  const Address sealed = s->mutable_log()->SealMutableRegion();
  MLKV_RETURN_NOT_OK(s->Persist());
  UpdateLogCursor cur(s, from);
  UpdateEntry e;
  size_t bytes = 0;
  Address frontier = kInvalidAddress;
  while (out->size() < max_records && cur.Next(&e)) {
    // Records appended between the seal and Persist's tail snapshot are
    // durable but still mutable: an in-place update after this poll would
    // never reach the replica. Stop at the first one; the next poll's seal
    // freezes it.
    if (e.address >= sealed) {
      frontier = e.address;
      break;
    }
    bytes += e.value.size() + 32;  // rough wire cost per entry
    out->push_back(std::move(e));
    if (max_bytes != 0 && bytes >= max_bytes) break;
  }
  MLKV_RETURN_NOT_OK(cur.status());
  *next_from = frontier != kInvalidAddress ? frontier : cur.position();
  *durable = s->durable_address();
  return Status::OK();
}

// Applies one replicated entry by key — the replica's shard layout need
// not match the primary's. A tombstone for a key the replica never saw is
// OK (the delete already "took").
Status ApplyShardUpdate(ShardedStore* store, const UpdateEntry& e) {
  if (e.tombstone) {
    const Status s = store->Delete(e.key);
    return s.IsNotFound() ? Status::OK() : s;
  }
  return store->Upsert(e.key, e.value.data(),
                       static_cast<uint32_t>(e.value.size()));
}

// Deduplicated view of one batch: `unique` holds first occurrences in
// input order; `slot_of[i]` maps input position i to its unique slot.
// Trainers dedup their minibatches anyway, but serving and YCSB traffic
// under skew does not — dedup keeps a zipfian batch from hammering one
// record.
struct DedupPlan {
  std::vector<Key> unique;
  std::vector<uint32_t> slot_of;
  bool has_dupes = false;

  explicit DedupPlan(std::span<const Key> keys) {
    slot_of.resize(keys.size());
    unique.reserve(keys.size());
    if (keys.size() <= 1) {  // single-key wrappers: no hashing needed
      unique.assign(keys.begin(), keys.end());
      if (!slot_of.empty()) slot_of[0] = 0;
      return;
    }
    std::unordered_map<Key, uint32_t> first;
    first.reserve(keys.size() * 2);
    for (size_t i = 0; i < keys.size(); ++i) {
      const auto [it, fresh] =
          first.emplace(keys[i], static_cast<uint32_t>(unique.size()));
      if (fresh) {
        unique.push_back(keys[i]);
      } else {
        has_dupes = true;
      }
      slot_of[i] = it->second;
    }
  }
};

// Turns thread-safe per-key engine primitives into the batched KvBackend
// surface: key dedup and per-key outcome bookkeeping live here once
// instead of per engine. Batches run inline; the hybrid-log engines'
// ShardedStore scatter is the only batch fan-out.
class BatchedEngineBackend : public KvBackend {
 public:
  uint32_t dim() const override { return dim_; }

  BatchResult MultiGet(std::span<const Key> keys, float* out,
                       const MultiGetOptions& options) override {
    const DedupPlan plan(keys);
    const size_t n = plan.unique.size();
    std::vector<float> scratch;
    float* ubuf = out;
    if (plan.has_dupes) {
      scratch.resize(n * size_t{dim_});
      ubuf = scratch.data();
    }
    std::vector<uint8_t> fresh(n, 0);
    BatchResult uniq(n);
    for (size_t u = 0; u < n; ++u) {
      const Key key = plan.unique[u];
      float* dst = ubuf + u * dim_;
      Status s = ReadOne(key, dst);
      if (s.IsNotFound() && options.init_missing) {
        InitEmbedding(key, dim_, dst);
        s = InitMissingOne(key, dst);
        if (s.ok()) {
          fresh[u] = 1;
          uniq.RecordInitialized(u);
          continue;
        }
      }
      uniq.Record(u, s);
    }
    if (!plan.has_dupes) return uniq;
    // Scatter values and codes back to every occurrence; only the first
    // occurrence of a fresh key counts as missing, matching a sequential
    // per-key loop (the first get initializes, later ones find).
    BatchResult result(keys.size());
    std::vector<uint8_t> seen(n, 0);
    for (size_t i = 0; i < keys.size(); ++i) {
      const uint32_t u = plan.slot_of[i];
      if (uniq.codes[u] == Status::Code::kOk) {
        simd::CopyFloats(out + i * size_t{dim_}, ubuf + u * size_t{dim_},
                         dim_);
        if (fresh[u] && !seen[u]) {
          result.RecordInitialized(i);
        } else {
          result.Record(i, Status::OK());
        }
      } else {
        // Non-kOk rows stay untouched (the scratch row was never written).
        result.Record(i, uniq.StatusAt(u));
      }
      seen[u] = 1;
    }
    return result;
  }

  BatchResult MultiPut(std::span<const Key> keys,
                       const float* values) override {
    const DedupPlan plan(keys);
    const size_t n = plan.unique.size();
    const float* ubuf = values;
    std::vector<float> scratch;
    if (plan.has_dupes) {
      // Last occurrence wins, matching a sequential per-key loop.
      scratch.resize(n * size_t{dim_});
      for (size_t i = 0; i < keys.size(); ++i) {
        simd::CopyFloats(&scratch[plan.slot_of[i] * size_t{dim_}],
                         values + i * size_t{dim_}, dim_);
      }
      ubuf = scratch.data();
    }
    BatchResult uniq(n);
    for (size_t u = 0; u < n; ++u) {
      uniq.Record(u, WriteOne(plan.unique[u], ubuf + u * dim_));
    }
    if (!plan.has_dupes) return uniq;
    BatchResult result(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      result.Record(i, uniq.StatusAt(plan.slot_of[i]));
    }
    return result;
  }

  BatchResult MultiApplyGradient(std::span<const Key> keys, const float* grads,
                                 float lr) override {
    const DedupPlan plan(keys);
    const size_t n = plan.unique.size();
    const float* ubuf = grads;
    std::vector<float> scratch;
    if (plan.has_dupes) {
      // Duplicate keys accumulate: SGD is linear in the gradient, so one
      // fused apply of the sum equals sequential applies per occurrence.
      scratch.assign(n * size_t{dim_}, 0.0f);
      for (size_t i = 0; i < keys.size(); ++i) {
        simd::AccumulateFloats(&scratch[plan.slot_of[i] * size_t{dim_}],
                               grads + i * size_t{dim_}, dim_);
      }
      ubuf = scratch.data();
    }
    BatchResult uniq(n);
    for (size_t u = 0; u < n; ++u) {
      uniq.Record(u, ApplyOne(plan.unique[u], ubuf + u * dim_, lr));
    }
    if (!plan.has_dupes) return uniq;
    BatchResult result(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      result.Record(i, uniq.StatusAt(plan.slot_of[i]));
    }
    return result;
  }

 protected:
  explicit BatchedEngineBackend(uint32_t dim) : dim_(dim) {}

  // Engine primitives; must be safe to call from multiple threads.
  virtual Status ReadOne(Key key, float* out) = 0;  // NotFound when absent
  virtual Status WriteOne(Key key, const float* value) = 0;
  // First-touch bootstrap: `out` already holds the init vector; store it
  // (or adopt a concurrent winner's value into `out`).
  virtual Status InitMissingOne(Key key, float* out) {
    return WriteOne(key, out);
  }
  // value <- value - lr * grad; emulated read-modify-write by default,
  // overridden where the engine has a native (atomic) RMW.
  virtual Status ApplyOne(Key key, const float* grad, float lr) {
    std::vector<float> value(dim_);
    Status s = ReadOne(key, value.data());
    if (s.IsNotFound()) {
      InitEmbedding(key, dim_, value.data());
      s = Status::OK();
    }
    MLKV_RETURN_NOT_OK(s);
    simd::SubScaled(value.data(), grad, lr, dim_);
    return WriteOne(key, value.data());
  }

  const uint32_t dim_;
};

// MLKV: bounded staleness + look-ahead prefetching (the system under test).
// Batches are handed to EmbeddingTable's span APIs whole — the table owns
// dedup-free semantics (each occurrence participates in the staleness
// protocol) and the store is latch-free, so no adapter-level fan-out.
// FasterBackend below is this class over a table without either mechanism.
class MlkvBackend : public KvBackend {
 public:
  // Borrows `table` (must outlive the backend).
  explicit MlkvBackend(EmbeddingTable* table) : table_(table) {}

  static Status Make(const BackendConfig& config,
                     std::unique_ptr<KvBackend>* out) {
    std::unique_ptr<Mlkv> db;
    MLKV_RETURN_NOT_OK(Mlkv::Open(HybridLogOptions(config, "/mlkv"), &db));
    EmbeddingTable* table = nullptr;
    MLKV_RETURN_NOT_OK(
        db->OpenTable("emb", config.dim, config.staleness_bound, &table));
    auto b = std::make_unique<MlkvBackend>(table);
    b->db_ = std::move(db);
    *out = std::move(b);
    return Status::OK();
  }

  std::string name() const override { return "MLKV"; }
  uint32_t dim() const override { return table_->dim(); }
  uint32_t shard_bits() const override {
    return const_cast<EmbeddingTable*>(table_)->store()->shard_bits();
  }

  BatchResult MultiGet(std::span<const Key> keys, float* out,
                       const MultiGetOptions& options) override {
    BatchResult result;
    if (!options.untracked) {
      if (options.init_missing) {
        table_->GetOrInit(keys, out, &result);
      } else {
        table_->Get(keys, out, &result);
      }
      return result;
    }
    // Untracked read: never waits on or advances staleness state, even
    // when bootstrapping never-stored keys.
    if (options.init_missing) {
      table_->PeekOrInit(keys, out, &result);
    } else {
      table_->Peek(keys, out, &result);
    }
    return result;
  }

  BatchResult MultiPut(std::span<const Key> keys,
                       const float* values) override {
    BatchResult result;
    table_->Put(keys, values, &result);
    return result;
  }

  BatchResult MultiApplyGradient(std::span<const Key> keys, const float* grads,
                                 float lr) override {
    // Fused path: one atomic Rmw per record (also lowers the staleness
    // clock, like a Put).
    BatchResult result;
    table_->ApplyGradients(keys, grads, lr, &result);
    return result;
  }

  Status Lookahead(std::span<const Key> keys) override {
    return table_->Lookahead(keys);
  }
  void WaitIdle() override { table_->WaitLookahead(); }

  uint64_t device_bytes_read() const override {
    return const_cast<EmbeddingTable*>(table_)->store()->device_bytes_read();
  }
  uint64_t device_bytes_written() const override {
    return const_cast<EmbeddingTable*>(table_)
        ->store()
        ->device_bytes_written();
  }
  void CollectMetrics(obs::MetricsSink* sink) const override {
    KvBackend::CollectMetrics(sink);
    const_cast<EmbeddingTable*>(table_)->store()->CollectMetrics(sink);
  }

  uint32_t replication_shards() const override {
    return static_cast<uint32_t>(
        const_cast<EmbeddingTable*>(table_)->store()->num_shards());
  }
  Status ReadCommittedUpdates(uint32_t shard, uint64_t from,
                              uint32_t max_records, uint32_t max_bytes,
                              std::vector<UpdateEntry>* out,
                              uint64_t* next_from,
                              uint64_t* durable) override {
    return ReadShardUpdates(table_->store(), shard, from, max_records,
                            max_bytes, out, next_from, durable);
  }
  Status ApplyReplicatedUpdate(const UpdateEntry& entry) override {
    return ApplyShardUpdate(table_->store(), entry);
  }

 protected:
  // Both hybrid-log backends run on one Mlkv, so they share its shard
  // scatter pool, I/O engine and store budgets by construction.
  static MlkvOptions HybridLogOptions(const BackendConfig& config,
                                      const std::string& subdir) {
    MlkvOptions o;
    o.dir = config.dir + subdir;
    o.index_slots = config.index_slots;
    o.mem_size = config.buffer_bytes;
    o.shard_bits = config.shard_bits;
    o.lookahead_threads = config.lookahead_threads;
    o.busy_spin_limit = config.busy_spin_limit;
    o.io_threads = config.io_threads;
    o.durability_mode = config.durability_mode;
    o.group_commit_window_us = config.group_commit_window_us;
    o.group_commit_max_bytes = config.group_commit_max_bytes;
    o.checkpoint_mode = config.checkpoint_mode;
    return o;
  }

  EmbeddingTable* table_;
  // Owns table_ (MLKV) or only its store's pool and engine (FASTER); null
  // over a caller's table (MakeTableBackend).
  std::unique_ptr<Mlkv> db_;
};

// Plain FASTER (the strongest baseline engine in the paper's Fig. 7): the
// MLKV table path over a store with staleness tracking off and without
// lookahead — the paper's own framing of MLKV as FASTER plus staleness
// tracking (Fig. 10), so both engines run one batch path on one Mlkv's
// scatter pool and I/O engine, and differ only in those two mechanisms.
// The table is plain SGD, so a record is exactly `dim` floats; tracked
// reads never wait on or advance a clock on this store, and Lookahead
// stays the baseline no-op even when a benchmark asks for prefetch depth.
class FasterBackend final : public MlkvBackend {
 public:
  using MlkvBackend::MlkvBackend;

  static Status Make(const BackendConfig& config,
                     std::unique_ptr<KvBackend>* out) {
    // The Mlkv lends its pool and I/O engine only: it opens no table, so
    // it writes no MANIFEST row.
    std::unique_ptr<Mlkv> db;
    MLKV_RETURN_NOT_OK(Mlkv::Open(HybridLogOptions(config, ""), &db));
    ShardedStoreOptions o =
        db->TableStoreOptions("faster", config.staleness_bound);
    o.store.track_staleness = false;
    auto store = std::make_unique<ShardedStore>();
    MLKV_RETURN_NOT_OK(store->Open(o));
    // Built directly, not through Mlkv::OpenTable. The table gets no
    // lookahead pool (Lookahead is overridden below), though its store
    // scatters on the Mlkv's. The configured bound rides along but is never
    // consulted, since the store tracks nothing.
    auto b = std::make_unique<FasterBackend>(nullptr);
    b->db_ = std::move(db);
    b->owned_table_ = std::make_unique<EmbeddingTable>(
        "faster", config.dim, config.staleness_bound, std::move(store),
        /*lookahead_pool=*/nullptr);
    b->table_ = b->owned_table_.get();
    *out = std::move(b);
    return Status::OK();
  }

  std::string name() const override { return "FASTER"; }
  Status Lookahead(std::span<const Key>) override { return Status::OK(); }
  void WaitIdle() override {}

 private:
  // Destroyed before the base's db_, whose pool and engine its store uses.
  std::unique_ptr<EmbeddingTable> owned_table_;
};

// RocksDB-style LSM baseline.
class LsmBackend : public BatchedEngineBackend {
 public:
  static Status Make(const BackendConfig& config,
                     std::unique_ptr<KvBackend>* out) {
    auto b = std::unique_ptr<LsmBackend>(new LsmBackend(config));
    LsmOptions o;
    o.dir = config.dir + "/lsm";
    // Split the memory budget the way RocksDB deployments do: a write
    // buffer plus a block cache.
    o.memtable_bytes = std::max<uint64_t>(config.buffer_bytes / 4, 1u << 20);
    o.block_cache_bytes =
        std::max<uint64_t>(config.buffer_bytes - o.memtable_bytes, 1u << 20);
    MLKV_RETURN_NOT_OK(b->store_.Open(o));
    *out = std::move(b);
    return Status::OK();
  }

  std::string name() const override { return "RocksDB-like"; }

 protected:
  Status ReadOne(Key key, float* out) override {
    std::string value;
    MLKV_RETURN_NOT_OK(store_.Get(key, &value));
    std::memcpy(out, value.data(),
                std::min(value.size(), size_t{dim_} * sizeof(float)));
    return Status::OK();
  }
  Status WriteOne(Key key, const float* value) override {
    return store_.Put(key, value, dim_ * sizeof(float));
  }

 private:
  explicit LsmBackend(const BackendConfig& config)
      : BatchedEngineBackend(config.dim) {}

  LsmStore store_;
};

// WiredTiger-style B+tree baseline.
class BtreeBackend : public BatchedEngineBackend {
 public:
  static Status Make(const BackendConfig& config,
                     std::unique_ptr<KvBackend>* out) {
    auto b = std::unique_ptr<BtreeBackend>(new BtreeBackend(config));
    BTreeOptions o;
    o.path = config.dir + "/btree.db";
    o.buffer_pool_bytes = config.buffer_bytes;
    o.value_size = config.dim * sizeof(float);
    MLKV_RETURN_NOT_OK(b->store_.Open(o));
    *out = std::move(b);
    return Status::OK();
  }

  std::string name() const override { return "WiredTiger-like"; }

 protected:
  Status ReadOne(Key key, float* out) override { return store_.Get(key, out); }
  Status WriteOne(Key key, const float* value) override {
    return store_.Put(key, value);
  }

 private:
  explicit BtreeBackend(const BackendConfig& config)
      : BatchedEngineBackend(config.dim) {}

  BTreeStore store_;
};

// Pure in-memory hash map: stands in for the specialized frameworks'
// proprietary in-memory embedding management (PERSIA/DGL/DGL-KE native) in
// the Fig. 6 convergence comparison. Native batch loops: each Multi* call
// takes its lock once per batch instead of once per key; no thread-pool
// fan-out, since the lock — not I/O — is the bottleneck.
class InMemoryBackend : public KvBackend {
 public:
  static Status Make(const BackendConfig& config,
                     std::unique_ptr<KvBackend>* out) {
    out->reset(new InMemoryBackend(config.dim));
    return Status::OK();
  }

  std::string name() const override { return "InMemory"; }
  uint32_t dim() const override { return dim_; }

  BatchResult MultiGet(std::span<const Key> keys, float* out,
                       const MultiGetOptions& options) override {
    BatchResult result(keys.size());
    std::vector<size_t> misses;
    {
      std::shared_lock lk(mu_);
      for (size_t i = 0; i < keys.size(); ++i) {
        const auto it = map_.find(keys[i]);
        if (it != map_.end()) {
          std::copy(it->second.begin(), it->second.end(),
                    out + i * size_t{dim_});
          result.Record(i, Status::OK());
        } else {
          misses.push_back(i);
        }
      }
    }
    if (misses.empty()) return result;
    if (!options.init_missing) {
      for (const size_t i : misses) result.Record(i, Status::NotFound());
      return result;
    }
    std::unique_lock lk(mu_);
    for (const size_t i : misses) {
      float* dst = out + i * size_t{dim_};
      const auto it = map_.find(keys[i]);  // may have appeared meanwhile
      if (it != map_.end()) {
        std::copy(it->second.begin(), it->second.end(), dst);
        result.Record(i, Status::OK());
        continue;
      }
      std::vector<float> v(dim_);
      InitEmbedding(keys[i], dim_, v.data());
      std::copy(v.begin(), v.end(), dst);
      map_.emplace(keys[i], std::move(v));
      result.RecordInitialized(i);
    }
    return result;
  }

  BatchResult MultiPut(std::span<const Key> keys,
                       const float* values) override {
    BatchResult result(keys.size());
    std::unique_lock lk(mu_);
    for (size_t i = 0; i < keys.size(); ++i) {
      const float* src = values + i * size_t{dim_};
      map_[keys[i]].assign(src, src + dim_);
      result.Record(i, Status::OK());
    }
    return result;
  }

  BatchResult MultiApplyGradient(std::span<const Key> keys, const float* grads,
                                 float lr) override {
    // One lock for the whole batch makes the apply atomic per batch —
    // strictly stronger than the per-record atomicity MLKV offers.
    BatchResult result(keys.size());
    std::unique_lock lk(mu_);
    for (size_t i = 0; i < keys.size(); ++i) {
      auto [it, fresh] = map_.try_emplace(keys[i]);
      if (fresh) {
        it->second.resize(dim_);
        InitEmbedding(keys[i], dim_, it->second.data());
      }
      simd::SubScaled(it->second.data(), grads + i * size_t{dim_}, lr, dim_);
      result.Record(i, Status::OK());
    }
    return result;
  }

 private:
  explicit InMemoryBackend(uint32_t dim) : dim_(dim) {}
  uint32_t dim_;
  std::shared_mutex mu_;
  std::unordered_map<Key, std::vector<float>> map_;
};

// Serving-side row cache decorator (see MakeCachingBackend in the header):
// untracked reads probe a sharded LRU before the engine; writes invalidate.
// Tracked reads bypass entirely — a cached row never participates in the
// staleness protocol, so caching them would let training reads dodge the
// bound. A fill racing an invalidate can briefly resurrect a row one write
// old, within the untracked read contract's bounded staleness.
class CachingBackend : public KvBackend {
 public:
  CachingBackend(std::unique_ptr<KvBackend> inner, size_t capacity,
                 CacheAdmission admission)
      : inner_(std::move(inner)),
        cache_(capacity, inner_->dim(), /*shards=*/16, admission) {}

  std::string name() const override {
    return "Cached(" + inner_->name() + ")";
  }
  uint32_t dim() const override { return inner_->dim(); }
  uint32_t shard_bits() const override { return inner_->shard_bits(); }

  BatchResult MultiGet(std::span<const Key> keys, float* out,
                       const MultiGetOptions& options) override {
    if (!options.untracked) return inner_->MultiGet(keys, out, options);
    const uint32_t d = inner_->dim();
    BatchResult result(keys.size());
    std::vector<Key> miss_keys;
    std::vector<size_t> miss_pos;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (cache_.Get(keys[i], out + i * size_t{d})) {
        result.Record(i, Status::OK());
      } else {
        miss_keys.push_back(keys[i]);
        miss_pos.push_back(i);
      }
    }
    if (miss_keys.empty()) return result;
    std::vector<float> rows(miss_keys.size() * size_t{d});
    const BatchResult got = inner_->MultiGet(miss_keys, rows.data(), options);
    size_t not_found = 0;
    for (size_t m = 0; m < miss_keys.size(); ++m) {
      const size_t i = miss_pos[m];
      if (got.codes[m] == Status::Code::kOk) {
        const float* row = rows.data() + m * size_t{d};
        simd::CopyFloats(out + i * size_t{d}, row, d);
        cache_.Put(miss_keys[m], row);
      } else if (got.codes[m] == Status::Code::kNotFound) {
        ++not_found;
      }
      result.Record(i, got.StatusAt(m));
    }
    // The engine's `missing` also counts keys it initialized, which were
    // recorded kOk above (per-key codes carry no initialized flag); move
    // just those found -> missing. kNotFound keys are already missing.
    const size_t initialized = got.missing - not_found;
    result.found -= initialized;
    result.missing += initialized;
    return result;
  }

  BatchResult MultiPut(std::span<const Key> keys,
                       const float* values) override {
    BatchResult r = inner_->MultiPut(keys, values);
    for (const Key key : keys) cache_.Erase(key);
    return r;
  }

  BatchResult MultiApplyGradient(std::span<const Key> keys, const float* grads,
                                 float lr) override {
    BatchResult r = inner_->MultiApplyGradient(keys, grads, lr);
    for (const Key key : keys) cache_.Erase(key);
    return r;
  }

  Status Lookahead(std::span<const Key> keys) override {
    return inner_->Lookahead(keys);
  }
  void WaitIdle() override { inner_->WaitIdle(); }
  uint64_t device_bytes_read() const override {
    return inner_->device_bytes_read();
  }
  uint64_t device_bytes_written() const override {
    return inner_->device_bytes_written();
  }

  void CollectMetrics(obs::MetricsSink* sink) const override {
    inner_->CollectMetrics(sink);
    const char* hits_help = "Serving cache hits per cache shard";
    const char* miss_help = "Serving cache misses per cache shard";
    const char* evict_help = "Serving cache evictions per cache shard";
    for (size_t i = 0; i < cache_.num_cache_shards(); ++i) {
      const EmbeddingCache::CacheStats s = cache_.shard_stats(i);
      const std::string shard = std::to_string(i);
      sink->AddCounter("mlkv_cache_hits_total", hits_help, s.hits,
                       {{"shard", shard}});
      sink->AddCounter("mlkv_cache_misses_total", miss_help, s.misses,
                       {{"shard", shard}});
      sink->AddCounter("mlkv_cache_evictions_total", evict_help, s.evictions,
                       {{"shard", shard}});
    }
    sink->AddGauge("mlkv_cache_entries", "Rows resident in the serving cache",
                   static_cast<double>(cache_.size()));
    const EmbeddingCache::CacheStats total = cache_.stats();
    sink->AddCounter("mlkv_cache_admission_rejects_total",
                     "Cache fills refused by TinyLFU admission",
                     total.admission_rejects);
    sink->AddCounter("mlkv_cache_admission_agings_total",
                     "TinyLFU sketch aging resets", total.admission_agings);
  }

  uint32_t replication_shards() const override {
    return inner_->replication_shards();
  }
  Status ReadCommittedUpdates(uint32_t shard, uint64_t from,
                              uint32_t max_records, uint32_t max_bytes,
                              std::vector<UpdateEntry>* out,
                              uint64_t* next_from,
                              uint64_t* durable) override {
    return inner_->ReadCommittedUpdates(shard, from, max_records, max_bytes,
                                        out, next_from, durable);
  }
  Status ApplyReplicatedUpdate(const UpdateEntry& entry) override {
    const Status s = inner_->ApplyReplicatedUpdate(entry);
    cache_.Erase(entry.key);
    return s;
  }

 private:
  std::unique_ptr<KvBackend> inner_;
  EmbeddingCache cache_;
};

}  // namespace

// Emulated batched gradient push for engines without a native override:
// dedup + sum duplicate gradients (SGD is linear), one MultiGet, axpy, one
// MultiPut over the keys that produced a value — exactly what integrating a
// training framework with a stock KV store gives you, batch edition.
BatchResult KvBackend::MultiApplyGradient(std::span<const Key> keys,
                                          const float* grads, float lr) {
  const uint32_t d = dim();
  const DedupPlan plan(keys);
  const size_t n = plan.unique.size();
  const float* ugrads = grads;
  std::vector<float> grad_sum;
  if (plan.has_dupes) {
    grad_sum.assign(n * size_t{d}, 0.0f);
    for (size_t i = 0; i < keys.size(); ++i) {
      simd::AccumulateFloats(&grad_sum[plan.slot_of[i] * size_t{d}],
                             grads + i * size_t{d}, d);
    }
    ugrads = grad_sum.data();
  }
  std::vector<float> value(n * size_t{d});
  const BatchResult got = MultiGet(plan.unique, value.data());
  std::vector<Key> ok_keys;
  std::vector<size_t> ok_slot;
  for (size_t u = 0; u < n; ++u) {
    if (got.codes[u] != Status::Code::kOk) continue;
    simd::SubScaled(&value[u * size_t{d}], ugrads + u * size_t{d}, lr, d);
    ok_keys.push_back(plan.unique[u]);
    ok_slot.push_back(u);
  }
  std::vector<float> put_values(ok_keys.size() * size_t{d});
  for (size_t j = 0; j < ok_keys.size(); ++j) {
    simd::CopyFloats(&put_values[j * size_t{d}], &value[ok_slot[j] * size_t{d}],
                     d);
  }
  const BatchResult put = MultiPut(ok_keys, put_values.data());
  std::vector<Status::Code> ucodes = got.codes;
  for (size_t j = 0; j < ok_keys.size(); ++j) {
    if (put.codes[j] != Status::Code::kOk) ucodes[ok_slot[j]] = put.codes[j];
  }
  BatchResult result(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    result.Record(i, Status::FromCode(ucodes[plan.slot_of[i]]));
  }
  return result;
}

// Default scrape: device byte totals, which every engine reports (zeros
// where it has no device).
void KvBackend::CollectMetrics(obs::MetricsSink* sink) const {
  sink->AddCounter("mlkv_io_device_read_bytes_total",
                   "Bytes read from storage devices", device_bytes_read());
  sink->AddCounter("mlkv_io_device_written_bytes_total",
                   "Bytes written to storage devices", device_bytes_written());
}

const char* BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kMlkv: return "MLKV";
    case BackendKind::kFaster: return "FASTER";
    case BackendKind::kLsm: return "RocksDB-like";
    case BackendKind::kBtree: return "WiredTiger-like";
    case BackendKind::kInMemory: return "InMemory";
    case BackendKind::kRemote: return "Remote";
    case BackendKind::kCluster: return "Cluster";
  }
  return "?";
}

Status MakeBackend(BackendKind kind, const BackendConfig& config,
                   std::unique_ptr<KvBackend>* out) {
  if (kind == BackendKind::kRemote) {
    // No local files: storage lives behind the KvServer at remote_addr.
    net::RemoteBackendOptions o;
    o.addr = config.remote_addr;
    o.pool_size = config.remote_pool_size;
    o.max_keys_per_rpc = config.remote_max_keys_per_rpc;
    return net::RemoteBackend::Connect(o, out);
  }
  if (kind == BackendKind::kCluster) {
    // No local files either: keys scatter across the KvServers named in
    // cluster_addrs (seed list; the authoritative map comes from the
    // servers' kClusterMap when they run in cluster mode).
    cluster::ClusterBackendOptions o;
    MLKV_RETURN_NOT_OK(
        net::ParseEndpointList(config.cluster_addrs, &o.endpoints));
    o.pool_size = config.remote_pool_size;
    o.max_keys_per_rpc = config.remote_max_keys_per_rpc;
    o.hedge_us = config.cluster_hedge_us;
    return cluster::ClusterBackend::Connect(o, out);
  }
  std::error_code ec;
  std::filesystem::create_directories(config.dir, ec);
  if (ec) return Status::IOError("create dir: " + ec.message());
  switch (kind) {
    case BackendKind::kMlkv: return MlkvBackend::Make(config, out);
    case BackendKind::kFaster: return FasterBackend::Make(config, out);
    case BackendKind::kLsm: return LsmBackend::Make(config, out);
    case BackendKind::kBtree: return BtreeBackend::Make(config, out);
    case BackendKind::kInMemory: return InMemoryBackend::Make(config, out);
    case BackendKind::kRemote: break;   // handled above
    case BackendKind::kCluster: break;  // handled above
  }
  return Status::InvalidArgument("unknown backend kind");
}

Status MakeTableBackend(EmbeddingTable* table,
                        std::unique_ptr<KvBackend>* out) {
  if (table == nullptr) {
    return Status::InvalidArgument("table backend needs a table");
  }
  *out = std::make_unique<MlkvBackend>(table);
  return Status::OK();
}

Status MakeCachingBackend(std::unique_ptr<KvBackend> inner, size_t capacity,
                          CacheAdmission admission,
                          std::unique_ptr<KvBackend>* out) {
  if (inner == nullptr) {
    return Status::InvalidArgument("caching backend needs an inner backend");
  }
  if (capacity == 0) {
    return Status::InvalidArgument("caching backend capacity must be > 0");
  }
  out->reset(new CachingBackend(std::move(inner), capacity, admission));
  return Status::OK();
}

}  // namespace mlkv
