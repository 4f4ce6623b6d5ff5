// KvBackend: the storage seam between training pipelines and key-value
// engines. The paper integrates PERSIA / DGL / DGL-KE with four storage
// backends (MLKV, FASTER, RocksDB, WiredTiger); here every trainer talks to
// this interface and each engine gets an adapter, so a benchmark varies the
// backend with one flag and nothing else changes (the reusability claim of
// Table I).
//
// The seam is batch-first: every caller — trainers, the serving path, the
// YCSB drivers — naturally operates on a minibatch of sparse ids, so the
// primary virtuals take key spans and report per-key outcomes in a
// BatchResult instead of failing the whole call on the first problem.
//
// Semantics expected by trainers:
//  * MultiGet: blocking read of keys.size() dim-float vectors, honoring the
//    backend's consistency model (MLKV: bounded staleness; others: last
//    write wins). By default missing keys are initialized with the shared
//    deterministic embedding bootstrap (per-key code kOk, counted in
//    BatchResult::missing); per-key kBusy marks bounded-staleness aborts
//    the caller may retry untracked.
//  * MultiPut: upsert of the updated vectors. Duplicate keys within a batch
//    resolve last-occurrence-wins.
//  * MultiApplyGradient: value <- value - lr * grad per key, preferably as
//    one atomic read-modify-write inside the engine (MLKV and FASTER share
//    EmbeddingTable's fused Rmw; under ASP that closes the read-apply-write
//    race a Get+Put pair has). A never-stored key starts from the shared
//    bootstrap, as if MultiGet had initialized it. Duplicate keys within a
//    batch accumulate (SGD is linear in the gradient).
//  * Lookahead: hint that `keys` will be needed soon. Returns once their
//    fetches are queued: it may wait for queue depth, never for a read.
//    Optional (no-op where the engine has no such mechanism — exactly the
//    paper's point about baseline engines).
//
// The single-key methods (GetEmbedding & co.) remain as thin non-virtual
// wrappers over the batched virtuals for tests and examples.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/batch_result.h"
#include "common/status.h"
#include "kv/record.h"
#include "kv/update_log.h"
#include "mlkv/mlkv_options.h"
#include "serve/tinylfu.h"

namespace mlkv {

class EmbeddingTable;

namespace obs {
class MetricsSink;
}  // namespace obs

struct MultiGetOptions {
  // Initialize absent keys deterministically from the key (the standard
  // embedding-table bootstrap, identical across engines so convergence
  // comparisons start from the same vectors). When false, absent keys keep
  // code kNotFound and their output rows are untouched.
  bool init_missing = true;
  // Consistency-free read: must neither wait on nor advance any staleness
  // state (evaluation passes, serving replicas). Engines without a
  // staleness protocol treat this the same as a tracked read.
  bool untracked = false;
};

class KvBackend {
 public:
  virtual ~KvBackend() = default;

  virtual std::string name() const = 0;
  virtual uint32_t dim() const = 0;
  // log2 shard count of the engine's store (0 for unsharded engines).
  // Callers that lay out batches shard-contiguously (train/batch_io.h's
  // OrderKeysByShard) derive the mask from here so it can never drift from
  // the store's actual routing.
  virtual uint32_t shard_bits() const { return 0; }

  // --- Batch-first primary surface ---

  // Reads keys.size() vectors into `out` (keys.size() * dim() floats, row i
  // for keys[i]). Rows whose per-key code is not kOk are unspecified.
  virtual BatchResult MultiGet(std::span<const Key> keys, float* out,
                               const MultiGetOptions& options = {}) = 0;

  // Upserts keys.size() vectors from `values` (keys.size() * dim() floats).
  virtual BatchResult MultiPut(std::span<const Key> keys,
                               const float* values) = 0;

  // Gradient push: value <- value - lr * grad per key (contract above).
  // Each engine implements it with its own batched loop — a fused
  // read-modify-write where it has one — and decorators forward it.
  virtual BatchResult MultiApplyGradient(std::span<const Key> keys,
                                         const float* grads, float lr) = 0;

  // --- Single-key wrappers (tests / examples); not for hot paths ---

  Status GetEmbedding(Key key, float* out) {
    return MultiGet({&key, 1}, out).StatusAt(0);
  }
  Status PutEmbedding(Key key, const float* value) {
    return MultiPut({&key, 1}, value).StatusAt(0);
  }
  Status ApplyGradient(Key key, const float* grad, float lr) {
    return MultiApplyGradient({&key, 1}, grad, lr).StatusAt(0);
  }
  // Consistency-free single read (evaluation): still initializes missing
  // keys, but never waits on or advances staleness state.
  Status PeekEmbedding(Key key, float* out) {
    MultiGetOptions options;
    options.untracked = true;
    return MultiGet({&key, 1}, out, options).StatusAt(0);
  }

  // --- Prefetch / accounting ---

  // Prefetch hint (contract above); default no-op (plain FASTER / RocksDB /
  // WiredTiger).
  virtual Status Lookahead(std::span<const Key> keys) {
    return Status::OK();
  }
  // Blocks until outstanding Lookahead work completes (benchmark teardown).
  virtual void WaitIdle() {}

  // Bytes read from / written to storage devices so far (energy model).
  virtual uint64_t device_bytes_read() const { return 0; }
  virtual uint64_t device_bytes_written() const { return 0; }

  // Scrape-time metrics: writes this backend's families into `sink`
  // (Prometheus exposition via obs::MetricsRegistry collectors — see
  // docs/OBSERVABILITY.md for the catalog). The base implementation emits
  // the device byte totals; each engine adds the families whose counters
  // it owns (the hybrid-log engines their store and disk-pipeline
  // counters, RemoteBackend/ClusterBackend their RPC counters). Decorators
  // forward to their inner backends.
  virtual void CollectMetrics(obs::MetricsSink* sink) const;

  // --- Replication feed (cluster mode; see docs/CLUSTER.md) ---
  //
  // Engines whose store exposes a committed-update feed (the hybrid-log
  // engines, via kv/update_log.h) serve it per shard so a replica KvServer
  // can tail a primary. Engines without a feed keep the defaults:
  // replication_shards() == 0 means kSubscribe/kReplicate answer
  // NotSupported.

  // Number of independent feed streams (the store's shard count); 0 when
  // the engine cannot serve a replication feed.
  virtual uint32_t replication_shards() const { return 0; }

  // One poll of shard `shard`'s feed starting at resume token `from`
  // (0 = oldest retained update). Appends up to max_records entries (and
  // roughly max_bytes of value payload) to `out` in log order, then
  // reports the resume token after the last entry and the shard's durable
  // watermark. Implementations persist the shard first so the feed always
  // drains to the current tail, even in checkpoint-only durability mode.
  virtual Status ReadCommittedUpdates(uint32_t shard, uint64_t from,
                                      uint32_t max_records, uint32_t max_bytes,
                                      std::vector<UpdateEntry>* out,
                                      uint64_t* next_from, uint64_t* durable) {
    (void)shard, (void)from, (void)max_records, (void)max_bytes;
    (void)out, (void)next_from, (void)durable;
    return Status::NotSupported(name() + " has no replication feed");
  }

  // Applies one replicated entry (tombstone = delete, else upsert of the
  // raw value bytes). Routing is by key, so the replica's shard layout
  // need not match the primary's.
  virtual Status ApplyReplicatedUpdate(const UpdateEntry& entry) {
    (void)entry;
    return Status::NotSupported(name() + " cannot apply replicated updates");
  }
};

struct BackendConfig {
  std::string dir;           // working directory for files
  uint32_t dim = 16;         // embedding dimension
  uint64_t buffer_bytes = 64ull << 20;  // in-memory budget (the Fig. 7 knob)
  uint64_t index_slots = 1ull << 20;
  uint32_t staleness_bound = 16;        // MLKV only
  // The hybrid-log engines (MLKV tables and the FASTER baseline) both run
  // on one Mlkv opened with these options (mlkv/mlkv.h), so they share its
  // shard layout, scatter pool, I/O engine and durability knobs. MakeBackend
  // sets its dir, store.mem_size and store.index_slots from dir,
  // buffer_bytes and index_slots above, and OpenTable sets the table's
  // store.staleness_bound from staleness_bound; MakeBackend returns
  // InvalidArgument when any of those four, store.path, store.io or
  // store.track_staleness is set here. Engines without a hybrid log
  // ignore it.
  MlkvOptions mlkv;
  // kRemote only: "host:port" of a KvServer (src/net/). The storage
  // fields above are ignored — dim and shard layout are negotiated in the
  // connection handshake, and the server side owns the storage
  // configuration.
  std::string remote_addr;
  // kRemote only: idle client connections retained for reuse. Size to the
  // number of concurrently batching threads, or steady-state traffic pays
  // a fresh connect + handshake whenever a burst exceeds the pool.
  size_t remote_pool_size = 8;
  // kCluster only: comma-separated seed endpoints ("h1:7700,h2:7701").
  // Any reachable cluster member supplies the routing map; the storage
  // fields above are ignored (each server owns its own). Connection
  // pooling reuses remote_pool_size per endpoint.
  std::string cluster_addrs;
  // kCluster only: read-hedging delay in microseconds (docs/SERVING.md).
  // After this long without a response, a read sub-batch is re-issued to
  // the partition's next replica candidate and the first response wins.
  // 0 disables (default); kHedgeAuto derives the delay per endpoint from
  // its trailing p99. Writes never hedge.
  uint64_t cluster_hedge_us = 0;
};

// Sentinel for cluster_hedge_us: derive the hedge delay per endpoint from
// its trailing p99 latency instead of a fixed value.
inline constexpr uint64_t kHedgeAuto = UINT64_MAX;

enum class BackendKind {
  kMlkv, kFaster, kLsm, kBtree, kInMemory, kRemote, kCluster
};

// Human-readable names matching the paper's legends.
const char* BackendKindName(BackendKind kind);

// Factory: builds the requested backend rooted at config.dir.
Status MakeBackend(BackendKind kind, const BackendConfig& config,
                   std::unique_ptr<KvBackend>* out);

// The MLKV backend over a table the caller already owns (recovered from a
// checkpoint, or being written by a trainer); `table` must outlive `*out`.
// MakeBackend(kMlkv) is this over a table it opens itself.
Status MakeTableBackend(EmbeddingTable* table,
                        std::unique_ptr<KvBackend>* out);

// Wraps `inner` in a serving-side EmbeddingCache decorator: untracked
// MultiGets probe a sharded cache of `capacity` rows and only miss through
// to the engine, in one batched read whose rows fill the cache through
// `admission` (kTinyLfu guards eviction with a per-shard frequency
// sketch; see serve/tinylfu.h and docs/SERVING.md); writes invalidate.
// Tracked (training) reads bypass the cache entirely — caching them would
// break the staleness protocol. Reads may observe a bounded-stale row when
// a fill races an invalidate, which the untracked read contract already
// permits. capacity == 0 is rejected.
//
// In-process serving is this over MakeTableBackend, read with
// {init_missing = false, untracked = true}: never-stored keys come back
// kNotFound (zero their rows for the DLRM convention), and a warm-up is
// one such MultiGet of the head keys.
Status MakeCachingBackend(std::unique_ptr<KvBackend> inner, size_t capacity,
                          CacheAdmission admission,
                          std::unique_ptr<KvBackend>* out);

}  // namespace mlkv
