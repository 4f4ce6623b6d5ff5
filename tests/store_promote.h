// Blocking one-key promotion for tests and micro-benchmarks, over the
// store's one promotion path: StartPromote plus a one-key PendingReadWave,
// completed on the calling thread — the storage half of a Lookahead,
// key by key.
#pragma once

#include <utility>

#include "common/status.h"
#include "io/async_io.h"
#include "kv/faster_store.h"
#include "kv/pending_read.h"
#include "kv/record.h"

namespace mlkv {

// Copies `key`'s disk-resident record to the mutable tail with its
// original control word (§III-C2); a memory-resident record counts a
// skip, as does one a concurrent write or compaction moved in flight.
// NotFound for an absent or deleted key. The fetch runs on the store's
// engine, or on a shared one-worker engine when the store has none.
inline Status Promote(FasterStore* store, Key key) {
  RecordMeta meta;
  MLKV_RETURN_NOT_OK(store->PeekMeta(key, &meta));
  if (meta.flags & kRecordTombstone) return Status::NotFound();
  PendingRead read;
  bool parked = false;
  MLKV_RETURN_NOT_OK(
      store->StartPromote(key, meta.value_size, &read, &parked));
  if (!parked) return Status::OK();

  static AsyncIoEngine shared_engine([] {
    AsyncIoEngine::Options o;
    o.io_threads = 1;
    return o;
  }());
  AsyncIoEngine* engine =
      store->options().io != nullptr ? store->options().io : &shared_engine;
  Status status;
  PendingSink sink;
  sink.Park(store, std::move(read),
            [&status](PendingRead* done) { status = done->status; });
  PendingReadWave wave(engine);
  wave.Adopt(&sink);
  wave.CompleteAll();
  return status;
}

}  // namespace mlkv
