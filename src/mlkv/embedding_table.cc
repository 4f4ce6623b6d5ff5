#include "mlkv/embedding_table.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "common/simd.h"
#include "common/spin_wait.h"
#include "io/file_device.h"
#include "kv/log_iterator.h"
#include "kv/pending_read.h"
#include "mlkv/embedding_init.h"

namespace mlkv {

namespace {

// Export file header. Values are embeddings only (optimizer state is an
// internal representation and is stripped on the way out).
struct ExportHeader {
  uint64_t magic = 0x4D4C4B5645585031ull;  // "MLKVEXP1"
  uint32_t dim = 0;
  uint32_t reserved = 0;
  uint64_t count = 0;
};

}  // namespace

Status EmbeddingTable::Make(std::string model_id, uint32_t dim,
                            uint32_t staleness_bound,
                            std::unique_ptr<ShardedStore> store,
                            ThreadPool* lookahead_pool,
                            OptimizerConfig optimizer,
                            std::unique_ptr<EmbeddingTable>* out) {
  std::unique_ptr<EmbeddingTable> table(
      new EmbeddingTable(std::move(model_id), dim, staleness_bound,
                         std::move(store), lookahead_pool, optimizer));
  const uint64_t record = Record::SizeFor(table->record_bytes());
  ShardedStore* shards = table->store();
  for (size_t i = 0; i < shards->num_shards(); ++i) {
    const uint64_t page = shards->shard(i)->log().options().page_size;
    if (record > page) {
      return Status::InvalidArgument(
          "table " + table->model_id() + ": a " + std::to_string(record) +
          "-byte record exceeds the " + std::to_string(page) +
          "-byte log page; raise mem_size or lower dim");
    }
  }
  *out = std::move(table);
  return Status::OK();
}

namespace {
// Reconciles the two span-API result contracts (see the header comment):
// with a sink, serve everything and return the first hard error; without
// one, fail fast on the earliest per-key problem in caller order.
Status ReconcileSpanResult(const BatchResult& r, bool caller_has_sink) {
  if (caller_has_sink) return r.first_error;
  for (size_t i = 0; i < r.codes.size(); ++i) {
    if (r.codes[i] != Status::Code::kOk) return r.StatusAt(i);
  }
  return Status::OK();
}

// BatchReadOrPark: the shared phase-1 body of every batched read op (the
// table's gets and peeks, which also serve the FASTER baseline).
// One place owns the blocking-vs-pipeline split and the miss-bootstrap
// contract:
//
//  * null `sink` — resolve synchronously (the blocking path: single-key
//    calls and the fail-fast contract);
//  * memory-resident or absent key — resolve inline either way;
//  * disk-resident key — park a primed PendingRead on the wave, with the
//    same outcome handling deferred to its finish callback. It lands
//    `fetch` value bytes (>= `cap`; FasterStore::StartRead): a read
//    passes the full stored value size so its tail copy can carry the
//    whole record, and copies `cap` bytes out.
//
// `init_missing` (pass nullptr for plain reads) initializes the caller's
// row and stores the bootstrap value when the key is absent; on success
// the key records as initialized (code kOk, counted missing). It is called
// with the chain head the read's walk observed (kInvalidAddress on the
// blocking path), so it can insert through FasterStore::InsertIfAbsent
// without walking the disk chain a second time. It is a templated callable
// so the warm path constructs no std::function — the copy into the
// continuation happens only for parked (cold) keys.
template <typename InitFn>
void BatchReadOrPark(FasterStore* shard, Key key, void* dst, uint32_t cap,
                     uint32_t fetch, uint32_t bound, bool tracked,
                     BatchResult* part, size_t part_index, PendingSink* sink,
                     const InitFn* init_missing) {
  const auto resolve = [&](Status s, Address chain_head) {
    if (s.IsNotFound() && init_missing != nullptr) {
      s = (*init_missing)(chain_head);
      if (s.ok()) {
        part->RecordInitialized(part_index);
        return;
      }
    }
    part->Record(part_index, s);
  };
  if (sink == nullptr) {
    resolve(tracked ? shard->Read(key, dst, cap, nullptr, bound)
                    : shard->Peek(key, dst, cap),
            kInvalidAddress);
    return;
  }
  PendingRead pending;
  if (shard->StartRead(key, dst, cap, nullptr, bound, tracked, &pending,
                       fetch)) {
    resolve(pending.status, pending.chain_head);
    return;
  }
  std::function<Status(Address)> init;
  if (init_missing != nullptr) init = *init_missing;
  sink->Park(shard, std::move(pending),
             [init = std::move(init), part, part_index](PendingRead* done) {
               Status s = done->status;
               if (s.IsNotFound() && init) {
                 s = init(done->chain_head);
                 if (s.ok()) {
                   part->RecordInitialized(part_index);
                   return;
                 }
               }
               part->Record(part_index, s);
             });
}

// Plain read (no miss bootstrap).
void BatchReadOrPark(FasterStore* shard, Key key, void* dst, uint32_t cap,
                     uint32_t fetch, uint32_t bound, bool tracked,
                     BatchResult* part, size_t part_index, PendingSink* sink) {
  BatchReadOrPark<std::function<Status(Address)>>(
      shard, key, dst, cap, fetch, bound, tracked, part, part_index, sink,
      nullptr);
}
}  // namespace

Status EmbeddingTable::ExecuteSpan(std::span<const Key> keys,
                                   const ShardedStore::ShardOp& op,
                                   BatchResult* result) {
  BatchResult local;
  BatchResult* r = result != nullptr ? result : &local;
  // Without a sink the caller wants the original fail-fast contract, so
  // each shard's sub-batch stops at its first problem.
  store_->MultiExecute(keys, op, r, /*stop_on_error=*/result == nullptr);
  return ReconcileSpanResult(*r, result != nullptr);
}

Status EmbeddingTable::ExecuteReadSpan(std::span<const Key> keys,
                                       const ShardedStore::ShardReadOp& op,
                                       BatchResult* result) {
  BatchResult local;
  BatchResult* r = result != nullptr ? result : &local;
  // Without a sink the caller wants the original fail-fast contract
  // (MultiExecuteRead then takes the blocking path with per-sub-batch
  // early exit).
  store_->MultiExecuteRead(keys, op, r, /*stop_on_error=*/result == nullptr);
  return ReconcileSpanResult(*r, result != nullptr);
}

// Reads land the whole record (embedding plus fused optimizer state): a
// cold record's tail copy carries all of it, while only the embedding is
// copied out.
Status EmbeddingTable::Get(std::span<const Key> keys, float* out,
                           BatchResult* result) {
  const uint32_t bytes = value_bytes();
  const uint32_t fetch = record_bytes();
  return ExecuteReadSpan(
      keys,
      [this, out, bytes, fetch](FasterStore* shard, Key key, size_t i,
                                BatchResult* part, size_t pi,
                                PendingSink* sink) {
        BatchReadOrPark(shard, key, out + i * dim_, bytes, fetch,
                        staleness_bound_, /*tracked=*/true, part, pi, sink);
      },
      result);
}

Status EmbeddingTable::GetOrInit(std::span<const Key> keys, float* out,
                                 BatchResult* result) {
  const uint32_t bytes = value_bytes();
  const uint32_t fetch = record_bytes();
  return ExecuteReadSpan(
      keys,
      [this, out, bytes, fetch](FasterStore* shard, Key key, size_t i,
                                BatchResult* part, size_t pi,
                                PendingSink* sink) {
        float* dst = out + i * dim_;
        const auto init_missing = [this, shard, key, dst](Address head) {
          return InitMissing(shard, key, dst, head);
        };
        BatchReadOrPark(shard, key, dst, bytes, fetch, staleness_bound_,
                        /*tracked=*/true, part, pi, sink, &init_missing);
      },
      result);
}

Status EmbeddingTable::Peek(std::span<const Key> keys, float* out,
                            BatchResult* result) {
  const uint32_t bytes = value_bytes();
  const uint32_t fetch = record_bytes();
  return ExecuteReadSpan(
      keys,
      [this, out, bytes, fetch](FasterStore* shard, Key key, size_t i,
                                BatchResult* part, size_t pi,
                                PendingSink* sink) {
        BatchReadOrPark(shard, key, out + i * dim_, bytes, fetch, UINT32_MAX,
                        /*tracked=*/false, part, pi, sink);
      },
      result);
}

Status EmbeddingTable::PeekOrInit(std::span<const Key> keys, float* out,
                                  BatchResult* result) {
  const uint32_t bytes = value_bytes();
  const uint32_t fetch = record_bytes();
  return ExecuteReadSpan(
      keys,
      [this, out, bytes, fetch](FasterStore* shard, Key key, size_t i,
                                BatchResult* part, size_t pi,
                                PendingSink* sink) {
        float* dst = out + i * dim_;
        const auto init_missing = [this, shard, key, dst](Address head) {
          return InitMissing(shard, key, dst, head);
        };
        BatchReadOrPark(shard, key, dst, bytes, fetch, UINT32_MAX,
                        /*tracked=*/false, part, pi, sink, &init_missing);
      },
      result);
}

Status EmbeddingTable::InitMissing(FasterStore* shard, Key key, float* dst,
                                   Address chain_head) {
  // First touch of an absent key: the shared deterministic bootstrap, so
  // all threads racing on the same key produce the same vector. Optimizer
  // state starts all-zero — the correct initial value for every kind —
  // which the zeroed insert scratch provides for free. Only the missing
  // case writes: a concurrent initializer that got there first wins, and
  // we adopt its row.
  InitEmbedding(key, dim_, dst);
  return shard->InsertIfAbsent(key, chain_head, record_bytes(),
                               [&](char* value, uint32_t, bool exists) {
                                 float* row = reinterpret_cast<float*>(value);
                                 if (!exists) {
                                   simd::CopyFloats(row, dst, dim_);
                                 } else {
                                   simd::CopyFloats(dst, row, dim_);
                                 }
                               });
}

Status EmbeddingTable::CommitIfGroup(Status s, BatchResult* result) {
  if (store_->options().store.durability != DurabilityMode::kGroup) {
    return s;
  }
  const Status d = store_->PersistAll();
  if (!d.ok() && result != nullptr) result->DowngradeOk(d);
  return s.ok() ? d : s;
}

Status EmbeddingTable::Put(std::span<const Key> keys, const float* values,
                           BatchResult* result) {
  const uint32_t emb_bytes = value_bytes();
  const uint32_t rec_bytes = record_bytes();
  if (rec_bytes == emb_bytes) {
    // Stateless layout: a Put is a plain upsert.
    return CommitIfGroup(
        ExecuteSpan(
            keys,
            [this, values, emb_bytes](FasterStore* shard, Key key, size_t i,
                                      BatchResult* part, size_t pi) {
              part->Record(pi,
                           shard->Upsert(key, values + i * dim_, emb_bytes));
            },
            result),
        result);
  }
  // Fused-state layout: overwrite the embedding floats, keep the optimizer
  // slots (zero for fresh keys, courtesy of the Rmw scratch).
  return CommitIfGroup(
      ExecuteSpan(
          keys,
          [this, values, rec_bytes](FasterStore* shard, Key key, size_t i,
                                    BatchResult* part, size_t pi) {
            const float* src = values + i * dim_;
            part->Record(
                pi, shard->Rmw(key, rec_bytes,
                               [src, dim = dim_](char* value, uint32_t, bool) {
                                 simd::CopyFloats(
                                     reinterpret_cast<float*>(value), src, dim);
                               }));
          },
          result),
      result);
}

Status EmbeddingTable::ApplyGradients(std::span<const Key> keys,
                                      const float* grads, float lr,
                                      BatchResult* result) {
  const uint32_t rec_bytes = record_bytes();
  const uint32_t dim = dim_;
  return CommitIfGroup(
      ExecuteSpan(
          keys,
          [grads, lr, dim, rec_bytes](FasterStore* shard, Key key, size_t i,
                                      BatchResult* part, size_t pi) {
            // One reference capture keeps the modifier inside
            // std::function's inline buffer (no allocation per record).
            const struct {
              Key key;
              const float* g;
              float lr;
              uint32_t dim;
            } step{key, grads + i * dim, lr, dim};
            part->Record(
                pi, shard->Rmw(key, rec_bytes,
                               [&step](char* value, uint32_t, bool exists) {
                                 float* emb = reinterpret_cast<float*>(value);
                                 // A never-stored key starts from its
                                 // bootstrap, like GetOrInit would give it.
                                 if (!exists) {
                                   InitEmbedding(step.key, step.dim, emb);
                                 }
                                 simd::SubScaled(emb, step.g, step.lr,
                                                 step.dim);
                               }));
          },
          result),
      result);
}

Status EmbeddingTable::ApplyGradients(std::span<const Key> keys,
                                      const float* grads) {
  const uint32_t rec_bytes = record_bytes();
  const uint32_t dim = dim_;
  const OptimizerConfig config = optimizer_;
  return CommitIfGroup(
      ExecuteSpan(
          keys,
          [&config, grads, dim, rec_bytes](FasterStore* shard, Key key,
                                           size_t i, BatchResult* part,
                                           size_t pi) {
            const float* g = grads + i * dim;
            part->Record(
                pi, shard->Rmw(key, rec_bytes,
                               [&config, key, g, dim](char* value, uint32_t,
                                                      bool exists) {
                                 float* emb = reinterpret_cast<float*>(value);
                                 // Bootstrap a never-stored key; its
                                 // optimizer state starts at zero.
                                 if (!exists) InitEmbedding(key, dim, emb);
                                 ApplyOptimizerUpdate(config, dim, emb,
                                                      emb + dim, g);
                               }));
          },
          nullptr),
      nullptr);
}

Status EmbeddingTable::Lookahead(std::span<const Key> keys, LookaheadDest dest,
                                 EmbeddingCache* cache) {
  if (dest == LookaheadDest::kApplicationCache) {
    return LookaheadToCache(keys, cache);
  }
  // Phase 1 runs here, memory-only, and the cold keys' fetches go into
  // the engine's FIFO before this call returns: ahead of the demand reads
  // of the batches between now and the one being prefetched, so the lead
  // the caller asked for is the lead it gets. Only the completions — the
  // tail copies of the landed records — go to the pool. Counted from
  // before the walk, so WaitLookahead covers the whole call.
  pending_lookaheads_.fetch_add(1, std::memory_order_acq_rel);
  const auto done = [this] {
    pending_lookaheads_.fetch_sub(1, std::memory_order_acq_rel);
  };
  // Each key once: a duplicate would lose its sibling's publish CAS,
  // leaving an abandoned copy in the log and a skip that looks late.
  std::vector<Key> unique(keys.begin(), keys.end());
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  PendingSink sink;
  for (const Key key : unique) {
    FasterStore* shard = store_->shard(store_->ShardIndexOf(key));
    PendingRead p;
    bool parked = false;
    // cap = the full stored value, so the copy never truncates.
    shard->StartPromote(key, record_bytes(), &p, &parked).ok();
    // Promotion is best-effort: no finish callback inspects the outcome.
    if (parked) sink.Park(shard, std::move(p), nullptr);
  }
  if (sink.empty()) {
    done();
    return Status::OK();
  }
  auto wave = std::make_shared<PendingReadWave>(store_->options().store.io);
  wave->Adopt(&sink);
  wave->Submit();
  const auto complete = [wave, done] {
    wave->Complete();
    done();
  };
  // The reads are in flight either way; a refused task (queue full or
  // shutdown) completes them here.
  if (!lookahead_pool_->TrySubmit(complete)) complete();
  return Status::OK();
}

Status EmbeddingTable::LookaheadToCache(std::span<const Key> keys,
                                        EmbeddingCache* cache) {
  if (cache == nullptr) {
    return Status::InvalidArgument("application-cache lookahead needs cache");
  }
  // Partition the batch by shard: one pool task per shard sub-batch, each
  // touching only its own shard's log and index. (Keys are copied: the
  // call is non-blocking and the caller's span may die.)
  std::vector<std::shared_ptr<std::vector<Key>>> per_shard(
      store_->num_shards());
  for (const Key key : keys) {
    auto& batch = per_shard[store_->ShardIndexOf(key)];
    if (batch == nullptr) batch = std::make_shared<std::vector<Key>>();
    batch->push_back(key);
  }
  for (size_t s = 0; s < per_shard.size(); ++s) {
    const auto& batch = per_shard[s];
    if (batch == nullptr) continue;
    FasterStore* shard = store_->shard(s);
    pending_lookaheads_.fetch_add(1, std::memory_order_acq_rel);
    const bool submitted =
        lookahead_pool_->TrySubmit([this, shard, batch, cache] {
          std::vector<float> value(dim_);
          for (const Key key : *batch) {
            // Conventional-prefetch path: populate the application cache.
            // Uses Peek, not Read — a prefetch is not a training access,
            // so it must neither wait on nor advance any record's
            // staleness clock (§III-C2: lookahead leaves the vector clocks
            // untouched). A miss is simply skipped.
            if (shard->Peek(key, value.data(), value_bytes()).ok()) {
              cache->Put(key, value.data());
            }
          }
          pending_lookaheads_.fetch_sub(1, std::memory_order_acq_rel);
        });
    if (!submitted) {
      // Queue full: prefetching is best-effort, drop this shard's batch
      // (backpressure).
      pending_lookaheads_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
  return Status::OK();
}

void EmbeddingTable::WaitLookahead() {
  SpinWaitUntil([this] {
    return pending_lookaheads_.load(std::memory_order_acquire) == 0;
  });
}

Status EmbeddingTable::Export(const std::string& path) {
  WaitLookahead();
  FileDevice dev;
  MLKV_RETURN_NOT_OK(dev.Open(path));
  const uint32_t emb_bytes = value_bytes();
  uint64_t offset = sizeof(ExportHeader);
  uint64_t count = 0;
  // One live scan per shard; shard order is arbitrary but stable, and the
  // export format carries explicit keys, so consumers are unaffected.
  for (size_t s = 0; s < store_->num_shards(); ++s) {
    LiveLogIterator it(store_->shard(s));
    for (; it.Valid(); it.Next()) {
      if (it.value().size() < emb_bytes) {
        return Status::Corruption("record smaller than an embedding");
      }
      MLKV_RETURN_NOT_OK(dev.WriteAt(offset, &it.meta().key, sizeof(Key)));
      offset += sizeof(Key);
      MLKV_RETURN_NOT_OK(dev.WriteAt(offset, it.value().data(), emb_bytes));
      offset += emb_bytes;
      ++count;
    }
    MLKV_RETURN_NOT_OK(it.status());
  }
  ExportHeader header;
  header.dim = dim_;
  header.count = count;
  MLKV_RETURN_NOT_OK(dev.WriteAt(0, &header, sizeof(header)));
  return dev.Sync();
}

Status EmbeddingTable::Import(const std::string& path) {
  FileDevice dev;
  MLKV_RETURN_NOT_OK(dev.Open(path, /*truncate=*/false));
  ExportHeader header;
  MLKV_RETURN_NOT_OK(dev.ReadAt(0, &header, sizeof(header)));
  if (header.magic != ExportHeader().magic) {
    return Status::Corruption("bad export magic");
  }
  if (header.dim != dim_) {
    return Status::InvalidArgument("export dim mismatch");
  }
  const uint32_t emb_bytes = value_bytes();
  std::vector<float> value(dim_);
  uint64_t offset = sizeof(ExportHeader);
  for (uint64_t i = 0; i < header.count; ++i) {
    Key key = 0;
    MLKV_RETURN_NOT_OK(dev.ReadAt(offset, &key, sizeof(Key)));
    offset += sizeof(Key);
    MLKV_RETURN_NOT_OK(dev.ReadAt(offset, value.data(), emb_bytes));
    offset += emb_bytes;
    MLKV_RETURN_NOT_OK(Put({&key, 1}, value.data()));
  }
  return Status::OK();
}

Status EmbeddingTable::CompactStorage(uint64_t max_log_bytes) {
  WaitLookahead();
  if (max_log_bytes == 0) {
    return store_->CompactAll();
  }
  return store_->MaybeCompact(max_log_bytes, nullptr);
}

}  // namespace mlkv
