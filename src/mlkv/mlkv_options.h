// Options of an MLKV instance (mlkv/mlkv.h). Kept apart from the engine's
// API so that backend/kv_backend.h can embed them without depending on
// EmbeddingTable and its caches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "io/async_io.h"
#include "kv/faster_store.h"

namespace mlkv {

struct MlkvOptions {
  std::string dir;                     // directory for table log files
  // Store template every table starts from (TableStoreOptions). OpenTable
  // sets its path (dir/<model_id>.log), io (this DB's engine),
  // track_staleness and staleness_bound per table, so Mlkv::Open rejects
  // a template that sets any of those four. index_slots and
  // mem_size are TOTALS per table, split evenly across its shards (>>
  // shard_bits, floored at ShardedStore::kMinShardIndexSlots /
  // kMinShardMemBytes); each shard then rounds its index slice up to a
  // power of two and halves page_size until FasterStore::
  // kMinResidentFrames pages fit its buffer slice. OpenTable rejects a
  // table whose record exceeds that page. Under kGroup durability each
  // batched Put/ApplyGradients is durable before it returns, and recovery
  // replays group-committed records past the last checkpoint.
  FasterOptions store;
  // log2 of the per-table shard count: each table's store is 1 <<
  // shard_bits independent FasterStore shards (own index, log, epoch
  // domain) with log/checkpoint files under dir/shard-NN/. 0 preserves the
  // legacy single-log layout exactly. Mlkv::Open rejects values > 8
  // (ShardedStore::kMaxShardBits). Tables recorded in the directory's
  // MANIFEST keep the shard_bits they were created with — the on-disk
  // layout wins over this option when re-attaching.
  uint32_t shard_bits = 2;
  // Workers of the per-DB background pool: Lookahead completes its
  // prefetches on it, and every table's batched span calls scatter their
  // shard sub-batches onto it (sub-batches shorter than
  // ShardedStore::kParallelMinKeys stay on the calling thread).
  size_t lookahead_threads = 2;
  // The per-DB AsyncIoEngine. The cold misses of every table's batched
  // gets/peeks and Lookahead promotions go into flight together on it, and
  // log page flushes leave as one wave through it.
  AsyncIoEngine::Options engine;
};

}  // namespace mlkv
