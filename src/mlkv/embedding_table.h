// EmbeddingTable: the embedding-model face of MLKV. Maps 64-bit sparse
// feature ids to `dim`-float vectors stored in a bounded-staleness
// FasterStore, and exposes the four paper interfaces — Get, Put, Rmw-style
// gradient application, and the non-blocking Lookahead (§III-A).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/batch_result.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "kv/sharded_store.h"
#include "mlkv/embedding_cache.h"
#include "mlkv/optimizer.h"

namespace mlkv {

class EmbeddingTable {
 public:
  // Destination of a Lookahead (paper Fig. 5(b)): the store's own mutable
  // memory buffer, or an application-side cache.
  enum class LookaheadDest { kStorageBuffer, kApplicationCache };

  // `store` must carry an AsyncIoEngine (ShardedStoreOptions::io): batched
  // reads and storage-buffer lookaheads submit their cold fetches to it.
  // Mlkv::OpenTable always provides its per-DB engine. `lookahead_pool`
  // may be null when Lookahead is never called (the FASTER baseline).
  EmbeddingTable(std::string model_id, uint32_t dim, uint32_t staleness_bound,
                 std::unique_ptr<ShardedStore> store,
                 ThreadPool* lookahead_pool, OptimizerConfig optimizer = {})
      : model_id_(std::move(model_id)),
        dim_(dim),
        staleness_bound_(staleness_bound),
        optimizer_(optimizer),
        store_(std::move(store)),
        lookahead_pool_(lookahead_pool) {}

  const std::string& model_id() const { return model_id_; }
  uint32_t dim() const { return dim_; }
  uint32_t staleness_bound() const { return staleness_bound_; }
  const OptimizerConfig& optimizer() const { return optimizer_; }
  // Bytes of the embedding vector itself (what Get/Put exchange).
  uint32_t value_bytes() const { return dim_ * sizeof(float); }
  // Bytes of the stored record value: embedding plus fused optimizer state.
  uint32_t record_bytes() const {
    return OptimizerValueBytes(optimizer_.kind, dim_);
  }

  // Each span API takes an optional BatchResult sink. Without one the call
  // fails fast on the first per-key error (the original contract; with a
  // sharded store each shard's sub-batch stops at its first error and the
  // earliest failure in caller order is returned). With one, the call
  // serves every key it can, records a per-key Status code plus
  // found/missing/busy counts, and returns the first hard error (OK when
  // every problem was a NotFound or Busy) — the batch-first contract the
  // KvBackend seam builds on.
  //
  // Every span call is scattered into per-shard sub-batches executed in
  // parallel on the store's pool (ShardedStore::MultiExecute; Mlkv hands
  // in the lookahead pool); per-key results land at the caller's indices
  // regardless of shard routing.

  // Fetches embeddings for `keys`; `out` must hold keys.size()*dim floats.
  // Missing keys are NotFound.
  Status Get(std::span<const Key> keys, float* out,
             BatchResult* result = nullptr);

  // Fetches embeddings, initializing missing keys with scaled-uniform
  // random values (the standard embedding-table bootstrap). Thread-safe.
  // Initialized keys record code kOk but count as missing.
  Status GetOrInit(std::span<const Key> keys, float* out,
                   BatchResult* result = nullptr);

  // Untracked batched read (serving / evaluation): neither waits on nor
  // advances any staleness state, never initializes. Missing keys are
  // NotFound per key.
  Status Peek(std::span<const Key> keys, float* out,
              BatchResult* result = nullptr);

  // Untracked read that still bootstraps never-stored keys: like GetOrInit
  // but without the tracked read, so it never waits on (or advances) an
  // existing record's staleness clock — the only write is the first-touch
  // Rmw that creates the record. The evaluation/serving flavor of the
  // bootstrap contract.
  Status PeekOrInit(std::span<const Key> keys, float* out,
                    BatchResult* result = nullptr);

  // Upserts embeddings; `values` holds keys.size()*dim floats. When the
  // table carries fused optimizer state, the state floats of existing
  // records are preserved (the Put becomes a per-record atomic Rmw).
  Status Put(std::span<const Key> keys, const float* values,
             BatchResult* result = nullptr);

  // Applies SGD-style updates in-store: v <- v - lr * grad. Uses Rmw so the
  // read-modify-write is atomic per record even under ASP training. Ignores
  // the table's optimizer config (but still preserves its state floats).
  // A never-stored key starts from its InitEmbedding bootstrap (zeroed
  // optimizer state), as if GetOrInit had created it.
  Status ApplyGradients(std::span<const Key> keys, const float* grads,
                        float lr, BatchResult* result = nullptr);

  // Applies the table's configured optimizer (paper Fig. 3 line 18,
  // `emb_optimizer` fused into the store): one atomic Rmw per record that
  // advances both the embedding and its optimizer state. Never-stored keys
  // bootstrap as in the overload above.
  Status ApplyGradients(std::span<const Key> keys, const float* grads);

  // Look-ahead prefetch (§III-C2): brings the records for `keys` from disk
  // into the chosen destination in the background. `cache` is required
  // for kApplicationCache. kStorageBuffer walks the keys on the calling
  // thread (memory-only) and returns once every cold key's fetch is queued
  // on the AsyncIoEngine, as one wave: it may wait for a slot in the
  // engine's queue, never for a read. The lookahead pool then copies the
  // landed records to the tail (FasterStore::CopyToTail). Submitting here
  // rather than from the pool puts the prefetch I/O ahead of the demand
  // reads of the batches in between. kApplicationCache queues one pool
  // task per shard and returns immediately.
  Status Lookahead(std::span<const Key> keys,
                   LookaheadDest dest = LookaheadDest::kStorageBuffer,
                   EmbeddingCache* cache = nullptr);

  // Blocks until all Lookahead work for this table — calls in progress
  // included — has completed.
  void WaitLookahead();

  // Writes every live embedding (key + dim floats, optimizer state
  // stripped) to `path` in a flat binary format — the serving-export /
  // cloud-upload step of the paper's heterogeneous-storage story. Quiesced:
  // callers must pause training and Lookahead traffic.
  Status Export(const std::string& path);

  // Bulk-loads an Export()-format file via Put (optimizer state resets to
  // zero). The file's dim must match this table's.
  Status Import(const std::string& path);

  // Garbage-collects this table's log up to the read-only boundary when the
  // log span exceeds `max_log_bytes` (0 forces a pass). Embedding training
  // overwrites rows in place most of the time, but RCU appends from
  // size-changing or cold updates still accrete garbage over long runs.
  Status CompactStorage(uint64_t max_log_bytes = 0);

  // Synchronous single-key helpers (tests / examples).
  Status GetOne(Key key, float* out) { return Get({&key, 1}, out); }
  Status PutOne(Key key, const float* value) { return Put({&key, 1}, value); }

  ShardedStore* store() { return store_.get(); }
  uint64_t num_embeddings() const { return store_->approximate_size(); }

 private:
  // Shared body of the span APIs: runs `op` through the sharded
  // scatter/gather and reconciles the two result contracts (sink vs
  // fail-fast; see the span-API comment above).
  Status ExecuteSpan(std::span<const Key> keys,
                     const ShardedStore::ShardOp& op, BatchResult* result);
  // Read-flavored ExecuteSpan: cold misses across the whole batch go into
  // flight together through the pending-read pipeline
  // (kv/pending_read.h). The fail-fast (sink-less) contract and single-key
  // calls take the blocking path.
  Status ExecuteReadSpan(std::span<const Key> keys,
                         const ShardedStore::ShardReadOp& op,
                         BatchResult* result);
  // Group-durability epilogue for the write batches (Put/ApplyGradients):
  // under DurabilityMode::kGroup, persists every shard before returning, so
  // the batch's records are on disk (concurrent batches share fsyncs via
  // the per-shard group committers). A persist failure downgrades the
  // sink's still-kOk keys — those writes applied but are not durable. A
  // no-op under kSync. GetOrInit's bootstrap inserts intentionally skip
  // this: InitEmbedding is deterministic per key, so a lost bootstrap
  // re-creates identically on the next access, and reads shouldn't pay
  // for fsyncs.
  Status CommitIfGroup(Status s, BatchResult* result);
  // Miss bootstrap of GetOrInit/PeekOrInit: fills `dst` with the key's
  // initial embedding and inserts it unless a concurrent initializer won
  // (then `dst` gets the winner's row). `chain_head` is the index slot
  // the read's walk observed (FasterStore::InsertIfAbsent).
  Status InitMissing(FasterStore* shard, Key key, float* dst,
                     Address chain_head);
  // Lookahead into an application cache: one pool task per shard Peeks
  // its keys and fills `cache`.
  Status LookaheadToCache(std::span<const Key> keys, EmbeddingCache* cache);

  std::string model_id_;
  uint32_t dim_;
  uint32_t staleness_bound_;
  OptimizerConfig optimizer_;
  std::unique_ptr<ShardedStore> store_;
  ThreadPool* lookahead_pool_;
  std::atomic<uint64_t> pending_lookaheads_{0};
};

}  // namespace mlkv
