// BatchReadOrPark: the shared phase-1 body of every batched read op
// (EmbeddingTable gets/peeks, FasterBackend::MultiGet). One place owns the
// blocking-vs-pipeline split and the miss-bootstrap contract:
//
//  * null `sink` — resolve synchronously (the blocking path: single-key
//    calls and the fail-fast contract);
//  * memory-resident or absent key — resolve inline either way;
//  * disk-resident key — park a primed PendingRead on the wave, with the
//    same outcome handling deferred to its finish callback. It lands
//    `fetch` value bytes (>= `cap`; FasterStore::StartRead): a tracked
//    read passes the full stored value size so its tail copy can carry
//    the whole record, and copies `cap` bytes out.
//
// `init_missing` (pass nullptr for plain reads) initializes the caller's
// row and stores the bootstrap value when the key is absent; on success
// the key records as initialized (code kOk, counted missing). It is called
// with the chain head the read's walk observed (kInvalidAddress on the
// blocking path), so it can insert through FasterStore::InsertIfAbsent
// without walking the disk chain a second time. It is a templated callable
// so the warm path constructs no std::function — the copy into the
// continuation happens only for parked (cold) keys.
#pragma once

#include <functional>
#include <utility>

#include "common/batch_result.h"
#include "kv/faster_store.h"
#include "kv/pending_read.h"

namespace mlkv {

template <typename InitFn>
inline void BatchReadOrPark(FasterStore* shard, Key key, void* dst,
                            uint32_t cap, uint32_t fetch, uint32_t bound,
                            bool tracked, BatchResult* part,
                            size_t part_index, PendingSink* sink,
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
inline void BatchReadOrPark(FasterStore* shard, Key key, void* dst,
                            uint32_t cap, uint32_t fetch, uint32_t bound,
                            bool tracked, BatchResult* part,
                            size_t part_index, PendingSink* sink) {
  BatchReadOrPark<std::function<Status(Address)>>(
      shard, key, dst, cap, fetch, bound, tracked, part, part_index, sink,
      nullptr);
}

}  // namespace mlkv
